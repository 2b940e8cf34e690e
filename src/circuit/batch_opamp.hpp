// SoA batch analysis of the two-stage Miller opamp — W (process, design)
// lanes per call.
//
// analyze_lanes<W>() produces, for each lane, the exact OpAmpAnalysis that
// scalar analyze() produces for that lane's process and design
// (bit-identical doubles; see docs/performance.md for the contract and
// batch_mosfet.hpp for how the kernels achieve it). The hot inverse-model
// solves run vectorized across lanes; the cheap epilogue (capacitances,
// gains, margins) runs per lane with the scalar expression trees.
//
// The three SoA loop helpers under those solves are compiled for two
// instruction-set levels in one portable binary: the baseline, and on
// x86-64 an AVX-512 (x86-64-v4) variant. analyze_lanes() runs the widest
// level the CPU supports, chosen once per process; every level produces the
// same bits (docs/performance.md, "Kernel variants").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "circuit/opamp.hpp"

namespace anadex::circuit {

/// Lane widths with compiled kernels (explicit instantiations in
/// batch_opamp.cpp). Callers pad short groups up to one of these.
inline constexpr std::size_t kLaneWidths[] = {4, 8, 16};
inline constexpr std::size_t kMaxLaneWidth = 16;

/// The instruction-set levels the lane kernels are compiled for.
/// X86_64_V4 exists in x86-64 builds only.
enum class LaneIsa : std::uint8_t { Baseline, X86_64_V4 };

/// The level analyze_lanes() runs: x86-64-v4 where the build has it and the
/// CPU supports it, the baseline otherwise. Resolved on the first call.
LaneIsa lane_isa();

/// "x86-64-v4", or the baseline's name ("x86-64" in an x86-64 build).
std::string_view to_string(LaneIsa isa);

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

namespace detail {

/// Every level this binary holds, baseline first.
std::span<const LaneIsa> compiled_lane_isas();

/// Whether this CPU can run the `isa` kernels (always true for the baseline).
bool cpu_supports(LaneIsa isa);

/// analyze_lanes() on a named level instead of the dispatched one, so tests
/// and benchmarks can hold each variant to the scalar model. Requires
/// cpu_supports(isa).
template <std::size_t W>
void analyze_lanes_as(LaneIsa isa, std::span<const device::Process* const, W> processes,
                      std::span<const OpAmpDesign, W> designs, const OpAmpContext& context,
                      std::span<OpAmpAnalysis, W> out);

extern template void analyze_lanes_as<4>(LaneIsa, std::span<const device::Process* const, 4>,
                                         std::span<const OpAmpDesign, 4>, const OpAmpContext&,
                                         std::span<OpAmpAnalysis, 4>);
extern template void analyze_lanes_as<8>(LaneIsa, std::span<const device::Process* const, 8>,
                                         std::span<const OpAmpDesign, 8>, const OpAmpContext&,
                                         std::span<OpAmpAnalysis, 8>);
extern template void analyze_lanes_as<16>(LaneIsa,
                                          std::span<const device::Process* const, 16>,
                                          std::span<const OpAmpDesign, 16>,
                                          const OpAmpContext&, std::span<OpAmpAnalysis, 16>);

}  // namespace detail

}  // namespace anadex::circuit
