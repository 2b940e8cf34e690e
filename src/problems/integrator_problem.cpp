#include "problems/integrator_problem.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "scint/batch_integrator.hpp"

namespace anadex::problems {

namespace {

/// Clamp applied to each normalized violation so one wildly broken
/// constraint cannot swamp the sum Deb's rule compares.
constexpr double kViolationCap = 10.0;

double violation(double amount) {
  return std::clamp(amount, 0.0, kViolationCap);
}

/// One design's spec figures, worst case across the corners.
struct WorstCase {
  double dr = std::numeric_limits<double>::infinity();
  double out_range = std::numeric_limits<double>::infinity();
  double st = 0.0;
  double se = 0.0;
  double area = 0.0;
  double sat = std::numeric_limits<double>::infinity();
  double balance = 0.0;
  double vov = std::numeric_limits<double>::infinity();
  double power_tt = 0.0;
  bool tt_pass = false;

  /// Folds corner `corner`'s performance in. Corners must come in order
  /// 0..4: std::min/std::max keep the accumulator on a tie or a NaN, so
  /// which of 0.0 and -0.0 survives depends on order, and the typical
  /// corner (0) sets power and the pass flag.
  void fold(std::size_t corner, const scint::IntegratorPerformance& perf,
            const scint::Spec& spec) {
    dr = std::min(dr, perf.dynamic_range_db);
    out_range = std::min(out_range, perf.output_range);
    st = std::max(st, perf.settling_time);
    se = std::max(se, perf.settling_error);
    area = std::max(area, perf.area);
    sat = std::min(sat, perf.sat_margin_worst);
    balance = std::max(balance, perf.mirror_balance_error);
    vov = std::min(vov, perf.vov_worst);
    if (corner == 0) {
      power_tt = perf.power;
      tt_pass = spec.satisfied_by(perf);
    }
  }
};

}  // namespace

IntegratorProblem::IntegratorProblem(scint::Spec spec, scint::IntegratorContext context,
                                     yield::MonteCarloParams mc)
    : spec_(std::move(spec)),
      context_(context),
      corners_{device::Process::typical().at_corner(device::Corner::TT),
               device::Process::typical().at_corner(device::Corner::FF),
               device::Process::typical().at_corner(device::Corner::SS),
               device::Process::typical().at_corner(device::Corner::FS),
               device::Process::typical().at_corner(device::Corner::SF)},
      perturbations_(yield::draw_perturbations(mc)) {}

std::string IntegratorProblem::name() const { return "SCIntegrator[" + spec_.name + "]"; }

std::vector<moga::VariableBound> IntegratorProblem::bounds() const {
  std::vector<moga::VariableBound> b(kNumGenes);
  const double um = 1e-6;
  const double pf = 1e-12;
  b[kW1] = {1.0 * um, 200.0 * um};
  b[kL1] = {0.18 * um, 2.0 * um};
  b[kW3] = {1.0 * um, 200.0 * um};
  b[kL3] = {0.18 * um, 2.0 * um};
  b[kW5] = {1.0 * um, 200.0 * um};
  b[kL5] = {0.18 * um, 2.0 * um};
  b[kW6] = {1.0 * um, 400.0 * um};
  b[kL6] = {0.18 * um, 1.0 * um};
  b[kW7] = {1.0 * um, 200.0 * um};
  b[kL7] = {0.18 * um, 1.0 * um};
  b[kIbias] = {1e-6, 50e-6};
  b[kCc] = {0.1 * pf, 5.0 * pf};
  b[kCs] = {0.5 * pf, 8.0 * pf};
  b[kCoc] = {0.1 * pf, 2.0 * pf};
  b[kCload] = {0.01 * pf, kLoadMax};
  return b;
}

scint::IntegratorDesign IntegratorProblem::decode(std::span<const double> genes) {
  ANADEX_REQUIRE(genes.size() == kNumGenes, "integrator design needs 15 genes");
  scint::IntegratorDesign d;
  d.opamp.m1 = {genes[kW1], genes[kL1]};
  d.opamp.m3 = {genes[kW3], genes[kL3]};
  d.opamp.m5 = {genes[kW5], genes[kL5]};
  d.opamp.m6 = {genes[kW6], genes[kL6]};
  d.opamp.m7 = {genes[kW7], genes[kL7]};
  d.opamp.ibias = genes[kIbias];
  d.opamp.cc = genes[kCc];
  d.cs = genes[kCs];
  d.coc = genes[kCoc];
  d.cload = genes[kCload];
  return d;
}

std::vector<double> IntegratorProblem::encode(const scint::IntegratorDesign& design) {
  std::vector<double> genes(kNumGenes);
  genes[kW1] = design.opamp.m1.w;
  genes[kL1] = design.opamp.m1.l;
  genes[kW3] = design.opamp.m3.w;
  genes[kL3] = design.opamp.m3.l;
  genes[kW5] = design.opamp.m5.w;
  genes[kL5] = design.opamp.m5.l;
  genes[kW6] = design.opamp.m6.w;
  genes[kL6] = design.opamp.m6.l;
  genes[kW7] = design.opamp.m7.w;
  genes[kL7] = design.opamp.m7.l;
  genes[kIbias] = design.opamp.ibias;
  genes[kCc] = design.opamp.cc;
  genes[kCs] = design.cs;
  genes[kCoc] = design.coc;
  genes[kCload] = design.cload;
  return genes;
}

scint::IntegratorPerformance IntegratorProblem::typical_performance(
    const scint::IntegratorDesign& design) const {
  return scint::evaluate(corners_[0], design, context_);
}

double IntegratorProblem::design_robustness(const scint::IntegratorDesign& design) const {
  return yield::robustness(corners_[0], design, context_, spec_, perturbations_);
}

void IntegratorProblem::evaluate(std::span<const double> genes, moga::Evaluation& out) const {
  const scint::IntegratorDesign design = decode(genes);
  if (!scint::in_lane_domain(design)) {
    // The lane kernels check no preconditions. The scalar model raises its
    // own PreconditionError here (expression, file and line), the message
    // fault reports and checkpoints record.
    (void)scint::evaluate(corners_[0], design, context_);
    ANADEX_ASSERT(false, "the scalar model accepted a design outside the lane domain");
  }
  moga::Evaluation* const outs[] = {&out};
  evaluate_designs({&design, 1}, outs);
}

// 16, the widest compiled lane width: the x86-64-v4 kernels cost ~1.0 us a
// lane at W = 16 against ~1.3 us at W = 8, the baseline ones ~3 us a lane
// at either width (bench/micro_kernels, 4-vCPU AVX-512 Xeon, GCC 12.2).
std::size_t IntegratorProblem::preferred_lane_width() const { return 16; }

void IntegratorProblem::evaluate_lanes(std::span<const std::span<const double>> genes,
                                       std::span<moga::Evaluation* const> outs) const {
  ANADEX_REQUIRE(genes.size() == outs.size() && !genes.empty(),
                 "evaluate_lanes needs parallel, non-empty spans");
  // Pre-screen every genome BEFORE any output is written (LaneEvaluator
  // error contract). The engine reacts to the throw by re-running the group
  // through evaluate(), which reproduces the scalar model's own exception.
  std::vector<scint::IntegratorDesign> designs(genes.size());
  for (std::size_t i = 0; i < genes.size(); ++i) {
    designs[i] = decode(genes[i]);
    ANADEX_REQUIRE(scint::in_lane_domain(designs[i]),
                   "batch pre-screen: genome outside the device model's domain");
  }
  evaluate_designs(designs, outs);
}

void IntegratorProblem::evaluate_designs(std::span<const scint::IntegratorDesign> designs,
                                         std::span<moga::Evaluation* const> outs) const {
  constexpr std::size_t kCorners = std::tuple_size_v<decltype(corners_)>;

  // Every (design, corner) pair is one kernel lane, design-major: item
  // kCorners * d + c is design d on corner c. Lane groups run in item
  // order, so each design folds its corners in order. Pad lanes repeat the
  // group's first item; their results are dropped.
  std::vector<WorstCase> worst(designs.size());
  scint::for_each_lane_group(designs.size() * kCorners, [&](auto width, std::size_t first,
                                                            std::size_t n) {
    constexpr std::size_t W = decltype(width)::value;
    std::array<const device::Process*, W> processes;
    std::array<scint::IntegratorDesign, W> lanes;
    std::array<scint::IntegratorPerformance, W> perfs;
    for (std::size_t k = 0; k < W; ++k) {
      const std::size_t item = first + (k < n ? k : 0);
      processes[k] = &corners_[item % kCorners];
      lanes[k] = designs[item / kCorners];
    }
    scint::evaluate_lanes<W>(processes, lanes, context_, perfs);
    for (std::size_t k = 0; k < n; ++k) {
      worst[(first + k) / kCorners].fold((first + k) % kCorners, perfs[k], spec_);
    }
  });

  for (std::size_t d = 0; d < designs.size(); ++d) {
    const WorstCase& w = worst[d];
    // Monte-Carlo robustness is only worth spending on designs that pass
    // the deterministic limits at the typical corner; others would score
    // ~0 anyway (the samples are centred on TT).
    const double rob = w.tt_pass ? design_robustness(designs[d]) : 0.0;
    moga::Evaluation& out = *outs[d];
    out.objectives = {w.power_tt, kLoadMax - designs[d].cload};
    out.violations = {
        violation((spec_.dr_min_db - w.dr) / 10.0),              // per 10 dB
        violation((spec_.or_min - w.out_range) / 0.5),           // per 0.5 V
        violation((w.st - spec_.st_max) / spec_.st_max),
        violation((w.se - spec_.se_max) / spec_.se_max),
        violation((w.area - spec_.area_max) / spec_.area_max),
        violation(-w.sat / 0.1),                                 // per 100 mV shortfall
        violation((w.balance - spec_.balance_max) / spec_.balance_max),
        violation((spec_.vov_min - w.vov) / 0.1),                // strong inversion
        violation((spec_.robustness_min - rob) / spec_.robustness_min),
    };
  }
}

std::unique_ptr<IntegratorProblem> make_integrator_problem(const scint::Spec& spec) {
  return std::make_unique<IntegratorProblem>(spec);
}

}  // namespace anadex::problems
