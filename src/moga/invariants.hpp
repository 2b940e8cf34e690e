// Structural verifiers for the ranking kernels' canonical-order contract.
//
// Both NDS kernels (sweep and legacy — see nds.hpp) promise fronts
// in canonical form: front 0 first, each front non-empty, strictly
// ascending by population index, fronts disjoint, and together covering
// the selection exactly once. Checkpoint bit-identity, trace byte-identity
// and the cross-kernel equivalence tests all lean on that order, so the
// kernels verify it at their exits when ANADEX_CHECK_INVARIANTS is on.
//
// The verifiers themselves are compiled unconditionally (they are plain
// functions, cheap to build) so tests can drive them with corrupted inputs
// in any configuration; only the hot-path call sites are compile-time
// gated behind `if constexpr (anadex::kCheckInvariants)`.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace anadex::moga {

/// Throws InvariantError unless `front` is non-empty and strictly
/// ascending (the canonical order of one front).
void require_ascending_front(std::span<const std::size_t> front);

/// Throws InvariantError unless `fronts` is in canonical form: every front
/// non-empty and strictly ascending, fronts pairwise disjoint, and the
/// total member count equal to `expected_total`.
void require_canonical_fronts(std::span<const std::vector<std::size_t>> fronts,
                              std::size_t expected_total);

}  // namespace anadex::moga
