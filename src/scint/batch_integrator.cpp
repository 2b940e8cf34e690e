#include "scint/batch_integrator.hpp"

#include <array>
#include <limits>

namespace anadex::scint {

template <std::size_t W>
void evaluate_lanes(std::span<const device::Process* const, W> processes,
                    std::span<const IntegratorDesign, W> designs,
                    const IntegratorContext& context, std::span<IntegratorPerformance, W> out) {
  std::array<circuit::OpAmpDesign, W> amps;
  std::array<circuit::OpAmpAnalysis, W> analyses;
  for (std::size_t k = 0; k < W; ++k) amps[k] = designs[k].opamp;
  circuit::analyze_lanes<W>(processes, std::span<const circuit::OpAmpDesign, W>{amps},
                            context.opamp, std::span<circuit::OpAmpAnalysis, W>{analyses});
  for (std::size_t k = 0; k < W; ++k) {
    out[k] = assemble_performance(*processes[k], designs[k], context, analyses[k]);
  }
}

template void evaluate_lanes<4>(std::span<const device::Process* const, 4>,
                                std::span<const IntegratorDesign, 4>, const IntegratorContext&,
                                std::span<IntegratorPerformance, 4>);
template void evaluate_lanes<8>(std::span<const device::Process* const, 8>,
                                std::span<const IntegratorDesign, 8>, const IntegratorContext&,
                                std::span<IntegratorPerformance, 8>);
template void evaluate_lanes<16>(std::span<const device::Process* const, 16>,
                                 std::span<const IntegratorDesign, 16>,
                                 const IntegratorContext&, std::span<IntegratorPerformance, 16>);

bool in_lane_domain(const IntegratorDesign& design) {
  const circuit::OpAmpDesign& a = design.opamp;
  // An infinite M5 length makes the tail device's vdsat inf/inf = NaN, so
  // the scalar model's tail current check fires.
  return a.m1.w > 0.0 && a.m1.l > 0.0 && a.m3.w > 0.0 && a.m3.l > 0.0 && a.m5.w > 0.0 &&
         a.m5.l > 0.0 && a.m5.l < std::numeric_limits<double>::infinity() && a.m6.w > 0.0 &&
         a.m6.l > 0.0 && a.m7.w > 0.0 && a.m7.l > 0.0 && a.ibias > 0.0;
}

}  // namespace anadex::scint
