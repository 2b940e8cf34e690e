#include "yield/robustness.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "scint/batch_integrator.hpp"

namespace anadex::yield {

device::Process ProcessPerturbation::applied_to(const device::Process& base) const {
  device::Process p = base;
  p.nmos.vt0 += dvt_nmos;
  p.pmos.vt0 += dvt_pmos;
  p.nmos.mu_cox *= 1.0 + rel_mu_nmos;
  p.pmos.mu_cox *= 1.0 + rel_mu_pmos;
  p.cap_density *= 1.0 + rel_cap;
  return p;
}

std::vector<ProcessPerturbation> draw_perturbations(const MonteCarloParams& params) {
  ANADEX_REQUIRE(params.samples >= 1, "Monte-Carlo needs at least one sample");
  Rng rng(params.seed);
  std::vector<ProcessPerturbation> set;
  set.reserve(params.samples);
  for (std::size_t i = 0; i < params.samples; ++i) {
    ProcessPerturbation s;
    s.dvt_nmos = rng.normal(0.0, params.sigma_vt);
    s.dvt_pmos = rng.normal(0.0, params.sigma_vt);
    s.rel_mu_nmos = rng.normal(0.0, params.sigma_mu);
    s.rel_mu_pmos = rng.normal(0.0, params.sigma_mu);
    s.rel_cap = rng.normal(0.0, params.sigma_cap);
    if (params.include_pair_mismatch) {
      s.z_pair_input = rng.normal();
      s.z_pair_mirror = rng.normal();
      s.z_pair_stage2 = rng.normal();
    }
    set.push_back(s);
  }
  return set;
}

double ProcessPerturbation::pair_vt_mismatch(const device::Process& process,
                                             const device::Geometry& geom,
                                             double z) const {
  ANADEX_REQUIRE(geom.w > 0.0 && geom.l > 0.0, "pair geometry must be positive");
  return z * process.avt / std::sqrt(geom.w * geom.l);
}

namespace {

/// One sample's process: the global shift, then the Pelgrom pair mismatch
/// when it was drawn — the input pair's VT mismatch folded into the NMOS
/// threshold and the mirror pair's into the PMOS threshold, a conservative
/// single-ended view of the differential circuit.
device::Process sample_process(const device::Process& base,
                               const scint::IntegratorDesign& design,
                               const ProcessPerturbation& sample) {
  device::Process shifted = sample.applied_to(base);
  if (sample.z_pair_input != 0.0 || sample.z_pair_mirror != 0.0) {
    shifted.nmos.vt0 +=
        sample.pair_vt_mismatch(shifted, design.opamp.m1, sample.z_pair_input);
    shifted.pmos.vt0 +=
        sample.pair_vt_mismatch(shifted, design.opamp.m3, sample.z_pair_mirror);
  }
  if constexpr (kCheckInvariants) {
    device::Process rest = shifted;
    rest.nmos.vt0 = base.nmos.vt0;
    rest.pmos.vt0 = base.pmos.vt0;
    rest.nmos.mu_cox = base.nmos.mu_cox;
    rest.pmos.mu_cox = base.pmos.mu_cox;
    rest.cap_density = base.cap_density;
    ANADEX_ASSERT(rest == base,
                  "Monte-Carlo lanes may differ only in vt0, mu_cox and cap_density");
  }
  return shifted;
}

}  // namespace

double robustness(const device::Process& base, const scint::IntegratorDesign& design,
                  const scint::IntegratorContext& context, const scint::Spec& spec,
                  const std::vector<ProcessPerturbation>& perturbations) {
  std::size_t pass = 0;
  for (const auto& perf : sample_performances(base, design, context, perturbations)) {
    if (spec.satisfied_by(perf)) ++pass;
  }
  return static_cast<double>(pass) / static_cast<double>(perturbations.size());
}

std::vector<scint::IntegratorPerformance> sample_performances(
    const device::Process& base, const scint::IntegratorDesign& design,
    const scint::IntegratorContext& context,
    const std::vector<ProcessPerturbation>& perturbations) {
  ANADEX_REQUIRE(!perturbations.empty(), "robustness needs a non-empty perturbation set");
  ANADEX_REQUIRE(scint::in_lane_domain(design),
                 "robustness: design outside the device model's domain");
  std::vector<scint::IntegratorPerformance> out(perturbations.size());
  // One sample's process per lane, the design broadcast; pad lanes repeat
  // lane 0 and their results are dropped.
  scint::for_each_lane_group(perturbations.size(), [&](auto width, std::size_t first,
                                                       std::size_t n) {
    constexpr std::size_t W = decltype(width)::value;
    std::array<device::Process, W> shifted;
    std::array<const device::Process*, W> lanes;
    std::array<scint::IntegratorDesign, W> designs;
    std::array<scint::IntegratorPerformance, W> perfs;
    for (std::size_t k = 0; k < W; ++k) {
      if (k < n) shifted[k] = sample_process(base, design, perturbations[first + k]);
      lanes[k] = &shifted[k < n ? k : 0];
      designs[k] = design;
    }
    scint::evaluate_lanes<W>(lanes, designs, context, perfs);
    std::copy_n(perfs.begin(), n, out.begin() + static_cast<std::ptrdiff_t>(first));
  });
  return out;
}

}  // namespace anadex::yield
