// IntegratorProblem::evaluate() computed with the scalar model, one corner
// at a time. It is the oracle for the problem's lane routine
// (tests/problems/integrator_problem_test.cpp) and the scalar-model
// baseline of bench/eval_throughput.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "moga/problem.hpp"
#include "problems/integrator_problem.hpp"
#include "scint/integrator.hpp"

namespace anadex::testing_support {

/// What the reference loop saw over a corpus: both branches of the Monte
/// Carlo, and corner figures that came out NaN.
struct ReferenceCoverage {
  std::size_t monte_carlo = 0;
  std::size_t skipped = 0;
  std::size_t nan_figures = 0;
};

/// Five scint::evaluate() calls, folded worst-case in corner order, then
/// the Monte Carlo for designs that pass at TT, then the nine normalized
/// violations.
inline void reference_evaluate(const problems::IntegratorProblem& problem,
                               std::span<const double> genes, moga::Evaluation& out,
                               ReferenceCoverage* coverage = nullptr) {
  static const std::array<device::Process, 5> corners = [] {
    std::array<device::Process, 5> c;
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = device::Process::typical().at_corner(device::kAllCorners[i]);
    }
    return c;
  }();
  const scint::IntegratorDesign design = problems::IntegratorProblem::decode(genes);
  const scint::Spec& spec = problem.spec();
  const auto violation = [](double amount) { return std::clamp(amount, 0.0, 10.0); };

  double dr_worst = std::numeric_limits<double>::infinity();
  double or_worst = std::numeric_limits<double>::infinity();
  double st_worst = 0.0;
  double se_worst = 0.0;
  double area_worst = 0.0;
  double sat_worst = std::numeric_limits<double>::infinity();
  double balance_worst = 0.0;
  double vov_worst = std::numeric_limits<double>::infinity();
  double power_tt = 0.0;
  bool tt_pass = false;

  for (std::size_t c = 0; c < corners.size(); ++c) {
    const scint::IntegratorPerformance perf =
        scint::evaluate(corners[c], design, problem.context());
    dr_worst = std::min(dr_worst, perf.dynamic_range_db);
    or_worst = std::min(or_worst, perf.output_range);
    st_worst = std::max(st_worst, perf.settling_time);
    se_worst = std::max(se_worst, perf.settling_error);
    area_worst = std::max(area_worst, perf.area);
    sat_worst = std::min(sat_worst, perf.sat_margin_worst);
    balance_worst = std::max(balance_worst, perf.mirror_balance_error);
    vov_worst = std::min(vov_worst, perf.vov_worst);
    if (c == 0) {
      power_tt = perf.power;
      tt_pass = spec.satisfied_by(perf);
    }
    if (coverage != nullptr &&
        (std::isnan(perf.dynamic_range_db) || std::isnan(perf.output_range) ||
         std::isnan(perf.settling_time) || std::isnan(perf.settling_error) ||
         std::isnan(perf.area))) {
      ++coverage->nan_figures;
    }
  }
  if (coverage != nullptr) ++(tt_pass ? coverage->monte_carlo : coverage->skipped);

  const double rob = tt_pass ? problem.design_robustness(design) : 0.0;
  out.objectives = {power_tt, problems::kLoadMax - design.cload};
  out.violations = {
      violation((spec.dr_min_db - dr_worst) / 10.0),
      violation((spec.or_min - or_worst) / 0.5),
      violation((st_worst - spec.st_max) / spec.st_max),
      violation((se_worst - spec.se_max) / spec.se_max),
      violation((area_worst - spec.area_max) / spec.area_max),
      violation(-sat_worst / 0.1),
      violation((balance_worst - spec.balance_max) / spec.balance_max),
      violation((spec.vov_min - vov_worst) / 0.1),
      violation((spec.robustness_min - rob) / spec.robustness_min),
  };
}

/// The reference loop as a Problem over `problem` (which must outlive it),
/// so a GuardedProblem or an EvalEngine can run it.
class ReferenceProblem final : public moga::Problem {
 public:
  explicit ReferenceProblem(const problems::IntegratorProblem& problem) : problem_(problem) {}
  std::string name() const override { return problem_.name(); }
  std::size_t num_variables() const override { return problem_.num_variables(); }
  std::size_t num_objectives() const override { return problem_.num_objectives(); }
  std::size_t num_constraints() const override { return problem_.num_constraints(); }
  std::vector<moga::VariableBound> bounds() const override { return problem_.bounds(); }
  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override {
    reference_evaluate(problem_, genes, out);
  }

 private:
  const problems::IntegratorProblem& problem_;
};

}  // namespace anadex::testing_support
