// Monte-Carlo robustness ("Yield Calculation", paper §2, following the
// HOLMES idea of capturing yield-optimized design space boundaries).
//
// Robustness of a design = fraction of Monte-Carlo process samples for
// which the design still satisfies every deterministic spec limit. Samples
// perturb global process quantities (thresholds, mobility, capacitor
// density) with common random numbers: the SAME perturbation set is applied
// to every design, so the robustness landscape is deterministic and smooth
// for the optimizer.
#pragma once

#include <cstdint>
#include <vector>

#include "device/process.hpp"
#include "scint/integrator.hpp"
#include "scint/spec.hpp"

namespace anadex::yield {

/// One sampled set of global process perturbations, optionally augmented
/// with normalized per-pair local mismatch draws (scaled by the Pelgrom
/// coefficient and each pair's gate area at application time).
struct ProcessPerturbation {
  double dvt_nmos = 0.0;    ///< threshold shift, V
  double dvt_pmos = 0.0;
  double rel_mu_nmos = 0.0; ///< relative mobility error
  double rel_mu_pmos = 0.0;
  double rel_cap = 0.0;     ///< relative capacitor-density error

  /// Unit-normal draws for local mismatch (input pair / mirror pair /
  /// second-stage pair); zero when mismatch sampling is disabled.
  double z_pair_input = 0.0;
  double z_pair_mirror = 0.0;
  double z_pair_stage2 = 0.0;

  /// Applies the global perturbation to a copy of the process.
  device::Process applied_to(const device::Process& base) const;

  /// Pelgrom threshold mismatch (V) of a pair with gate geometry `geom`:
  /// sigma = AVT / sqrt(W L), scaled by the stored unit-normal draw.
  double pair_vt_mismatch(const device::Process& process, const device::Geometry& geom,
                          double z) const;
};

/// Parameters of the Monte-Carlo sampler.
struct MonteCarloParams {
  std::size_t samples = 16;
  double sigma_vt = 0.015;   ///< V
  double sigma_mu = 0.05;    ///< relative
  double sigma_cap = 0.05;   ///< relative
  /// Also draw per-pair local (Pelgrom) mismatch deviates. Off by default:
  /// the reproduction's calibrated robustness figure uses global shifts
  /// only; enable for finer-grained yield studies.
  bool include_pair_mismatch = false;
  std::uint64_t seed = 0xC0FFEE;  ///< fixed: common random numbers across designs
};

/// Pre-drawn perturbation set (draw once, reuse for every design).
std::vector<ProcessPerturbation> draw_perturbations(const MonteCarloParams& params);

/// Robustness in [0, 1]: fraction of perturbations under which the design
/// still satisfies `spec` (deterministic limits only). When a perturbation
/// carries pair-mismatch draws, the input pair's VT mismatch is applied as
/// an additional NMOS threshold shift and the mirror pair's as an
/// additional PMOS threshold shift (worst-case single-ended view). The
/// stage-2 draw (z_pair_stage2) is drawn but not applied. The samples run
/// through the SoA lane kernels, one sample per lane, each bit-identical to
/// scint::evaluate() on that sample's process. Throws PreconditionError for
/// a design outside the device model's domain (scint::in_lane_domain).
double robustness(const device::Process& base, const scint::IntegratorDesign& design,
                  const scint::IntegratorContext& context, const scint::Spec& spec,
                  const std::vector<ProcessPerturbation>& perturbations);

/// The per-sample performances robustness() judges: element i is
/// bit-identical to scint::evaluate() on perturbation i's process (global
/// shift, then pair mismatch when drawn). Same preconditions.
std::vector<scint::IntegratorPerformance> sample_performances(
    const device::Process& base, const scint::IntegratorDesign& design,
    const scint::IntegratorContext& context,
    const std::vector<ProcessPerturbation>& perturbations);

}  // namespace anadex::yield
