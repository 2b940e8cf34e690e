// SoA batch evaluation of the SC integrator — W (process, design) lanes per
// call. evaluate_lanes<W>() is circuit::analyze_lanes (the vectorized
// amplifier analysis) followed by the scalar assemble_performance() per
// lane on that lane's process, so each lane's IntegratorPerformance is
// bit-identical to scint::evaluate() for that process and design by
// construction. The lanes are (design, corner) pairs of the problem's
// corner check, one design or many, or one design on W Monte-Carlo samples
// (yield::robustness).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string_view>
#include <type_traits>

#include "circuit/batch_opamp.hpp"
#include "scint/integrator.hpp"

namespace anadex::scint {

/// Evaluates W integrator lanes; out[k] is bit-identical to
/// evaluate(*processes[k], designs[k], context). The lane processes obey
/// circuit::analyze_lanes' sharing rule. Instantiated for the lane widths
/// in circuit::kLaneWidths ({4, 8, 16}).
template <std::size_t W>
void evaluate_lanes(std::span<const device::Process* const, W> processes,
                    std::span<const IntegratorDesign, W> designs,
                    const IntegratorContext& context, std::span<IntegratorPerformance, W> out);

extern template void evaluate_lanes<4>(std::span<const device::Process* const, 4>,
                                       std::span<const IntegratorDesign, 4>,
                                       const IntegratorContext&,
                                       std::span<IntegratorPerformance, 4>);
extern template void evaluate_lanes<8>(std::span<const device::Process* const, 8>,
                                       std::span<const IntegratorDesign, 8>,
                                       const IntegratorContext&,
                                       std::span<IntegratorPerformance, 8>);
extern template void evaluate_lanes<16>(std::span<const device::Process* const, 16>,
                                        std::span<const IntegratorDesign, 16>,
                                        const IntegratorContext&,
                                        std::span<IntegratorPerformance, 16>);

/// The instruction-set level the lane kernels run on in this process
/// (circuit::lane_isa()), by name: "x86-64-v4" or the baseline's "x86-64".
inline std::string_view lane_isa_name() { return circuit::to_string(circuit::lane_isa()); }

/// The lane kernels check no preconditions, so callers screen every design
/// with this first. It rejects non-positive (or NaN) device geometry and
/// bias current, and an infinite M5 length: the inputs on which the scalar
/// model's ANADEX_REQUIREs fire.
bool in_lane_domain(const IntegratorDesign& design);

/// Splits `count` items into lane groups of at most circuit::kMaxLaneWidth
/// and calls group(std::integral_constant<std::size_t, W>{}, first, n) for
/// each, W being the narrowest compiled width that holds its n items. The
/// caller pads lanes n..W-1 and discards their results.
template <typename Group>
void for_each_lane_group(std::size_t count, Group&& group) {
  for (std::size_t first = 0; first < count;) {
    const std::size_t n = std::min(count - first, circuit::kMaxLaneWidth);
    if (n <= 4) {
      group(std::integral_constant<std::size_t, 4>{}, first, n);
    } else if (n <= 8) {
      group(std::integral_constant<std::size_t, 8>{}, first, n);
    } else {
      group(std::integral_constant<std::size_t, 16>{}, first, n);
    }
    first += n;
  }
}

}  // namespace anadex::scint
