// SoA batch analysis of the two-stage Miller opamp — W (process, design)
// lanes per call.
//
// analyze_lanes<W>() produces, for each lane, the exact OpAmpAnalysis that
// scalar analyze() produces for that lane's process and design
// (bit-identical doubles; see docs/performance.md for the contract and
// batch_mosfet.hpp for how the kernels achieve it). The hot inverse-model
// solves run vectorized across lanes; the cheap epilogue (capacitances,
// gains, margins) runs per lane with the scalar expression trees.
#pragma once

#include <cstddef>
#include <span>

#include "circuit/opamp.hpp"

namespace anadex::circuit {

/// Lane widths with compiled kernels (explicit instantiations in
/// batch_opamp.cpp). Callers pad short groups up to one of these.
inline constexpr std::size_t kLaneWidths[] = {4, 8, 16};
inline constexpr std::size_t kMaxLaneWidth = 16;

/// Analyzes W amplifier designs in SoA form, lane k on *processes[k].
/// out[k] is bit-identical to analyze(*processes[k], designs[k], context).
/// The lane processes may differ in any field except vdd and the
/// DeviceParams fields other than vt0 and mu_cox, which the kernels share
/// (checked under ANADEX_CHECK_INVARIANTS): corners and Monte-Carlo samples
/// of one process qualify.
template <std::size_t W>
void analyze_lanes(std::span<const device::Process* const, W> processes,
                   std::span<const OpAmpDesign, W> designs, const OpAmpContext& context,
                   std::span<OpAmpAnalysis, W> out);

extern template void analyze_lanes<4>(std::span<const device::Process* const, 4>,
                                      std::span<const OpAmpDesign, 4>, const OpAmpContext&,
                                      std::span<OpAmpAnalysis, 4>);
extern template void analyze_lanes<8>(std::span<const device::Process* const, 8>,
                                      std::span<const OpAmpDesign, 8>, const OpAmpContext&,
                                      std::span<OpAmpAnalysis, 8>);
extern template void analyze_lanes<16>(std::span<const device::Process* const, 16>,
                                       std::span<const OpAmpDesign, 16>, const OpAmpContext&,
                                       std::span<OpAmpAnalysis, 16>);

}  // namespace anadex::circuit
