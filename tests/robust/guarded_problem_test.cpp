#include "robust/guarded_problem.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "problems/analytic.hpp"

namespace anadex::robust {
namespace {

/// Two-variable, two-objective inner problem whose failure mode is selected
/// by the FIRST gene: < 0.25 clean, [0.25, 0.5) throws, [0.5, 0.75) NaN
/// objective, >= 0.75 wrong arity. Gene-driven behavior keeps the inner
/// problem deterministic, matching the Problem contract.
class FlakyProblem final : public moga::Problem {
 public:
  std::string name() const override { return "flaky"; }
  std::size_t num_variables() const override { return 2; }
  std::size_t num_objectives() const override { return 2; }
  std::size_t num_constraints() const override { return 1; }
  std::vector<moga::VariableBound> bounds() const override {
    return {{0.0, 1.0}, {0.0, 1.0}};
  }
  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override {
    if (genes[0] >= 0.25 && genes[0] < 0.5) throw std::runtime_error("flaky boom");
    out.objectives = {genes[0], genes[1]};
    out.violations = {0.0};
    if (genes[0] >= 0.5 && genes[0] < 0.75) {
      out.objectives[1] = std::numeric_limits<double>::quiet_NaN();
    }
    if (genes[0] >= 0.75) out.objectives.push_back(3.0);
  }
};

std::shared_ptr<const moga::Problem> flaky() { return std::make_shared<FlakyProblem>(); }

TEST(GuardedProblem, PassesCleanEvaluationsThroughUntouched) {
  GuardedProblem guard(flaky(), GuardPolicy{});
  const auto eval = guard.evaluated(std::vector<double>{0.1, 0.6});
  EXPECT_EQ(eval.objectives, (std::vector<double>{0.1, 0.6}));
  EXPECT_EQ(eval.violations, (std::vector<double>{0.0}));
  EXPECT_EQ(guard.report().total_faults(), 0u);
  EXPECT_FALSE(guard.report().any());
}

TEST(GuardedProblem, MirrorsInnerProblemShape) {
  GuardedProblem guard(flaky(), GuardPolicy{});
  EXPECT_EQ(guard.name(), "flaky+guard");
  EXPECT_EQ(guard.num_variables(), 2u);
  EXPECT_EQ(guard.num_objectives(), 2u);
  EXPECT_EQ(guard.num_constraints(), 1u);
  EXPECT_EQ(guard.bounds().size(), 2u);
}

TEST(GuardedProblem, RecoversViaPerturbedRetryNearAFaultBoundary) {
  // The gene sits a hair inside the faulty [0.25, 0.5) band and the wide
  // perturbation gives 8 chances to escape it. The retry stream is a fixed
  // function of the genome, so whichever way it lands the outcome is stable;
  // assert the bookkeeping invariants that hold either way and the finite
  // result when recovery happened.
  GuardPolicy policy;
  policy.max_retries = 8;
  policy.perturbation = 0.3;
  GuardedProblem guard(flaky(), policy);
  const auto eval = guard.evaluated(std::vector<double>{0.2500001, 0.5});
  const auto& report = guard.report();
  EXPECT_GE(report.exceptions, 1u);
  EXPECT_EQ(report.recovered + report.penalized, 1u);
  if (report.recovered == 1) {
    for (double v : eval.objectives) EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(report.retries, 1u);
  }
}

TEST(GuardedProblem, PenalizesWhenEveryRetryFaults) {
  GuardPolicy policy;
  policy.max_retries = 2;
  policy.perturbation = 1e-6;  // stays deep inside the faulty band
  policy.penalty_objective = 5e8;
  policy.penalty_violation = 7e8;
  GuardedProblem guard(flaky(), policy);
  const auto eval = guard.evaluated(std::vector<double>{0.4, 0.5});

  EXPECT_EQ(eval.objectives, (std::vector<double>{5e8, 5e8}));
  EXPECT_EQ(eval.violations, (std::vector<double>{7e8}));
  EXPECT_FALSE(eval.feasible());

  const auto& report = guard.report();
  EXPECT_EQ(report.exceptions, 3u);  // original + 2 retries
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.recovered, 0u);
  EXPECT_EQ(report.penalized, 1u);
}

TEST(GuardedProblem, CountsNonFiniteAndWrongArityFaults) {
  GuardPolicy policy;
  policy.max_retries = 0;
  GuardedProblem guard(flaky(), policy);
  (void)guard.evaluated(std::vector<double>{0.6, 0.5});   // NaN objective
  (void)guard.evaluated(std::vector<double>{0.8, 0.5});   // wrong arity
  const auto& report = guard.report();
  EXPECT_EQ(report.non_finite, 1u);
  EXPECT_EQ(report.wrong_arity, 1u);
  EXPECT_EQ(report.penalized, 2u);
  EXPECT_EQ(report.total_faults(), 2u);
}

TEST(GuardedProblem, RecordsCanonicalSampleFailure) {
  // The retained sample is the failure whose genome hashes lowest — a
  // canonical choice independent of evaluation order (and therefore of the
  // engine's thread count), not "whichever failed first".
  GuardPolicy policy;
  policy.max_retries = 0;
  GuardedProblem guard(flaky(), policy);
  const std::vector<double> throws_genes{0.3, 0.9};   // exception: flaky boom
  const std::vector<double> nan_genes{0.6, 0.1};      // non-finite objective
  (void)guard.evaluated(throws_genes);
  (void)guard.evaluated(nan_genes);
  const auto forward = guard.report();

  const bool throws_wins = hash_genes(throws_genes, 0) < hash_genes(nan_genes, 0);
  const auto& expected = throws_wins ? throws_genes : nan_genes;
  EXPECT_EQ(forward.failure_genes, expected);
  if (throws_wins) {
    EXPECT_NE(forward.failure_message.find("flaky boom"), std::string::npos);
  } else {
    EXPECT_NE(forward.failure_message.find("non-finite"), std::string::npos);
  }

  // Reversed evaluation order retains the same sample.
  GuardedProblem reversed_guard(flaky(), policy);
  (void)reversed_guard.evaluated(nan_genes);
  (void)reversed_guard.evaluated(throws_genes);
  const auto reversed = reversed_guard.report();
  EXPECT_EQ(reversed.failure_genes, forward.failure_genes);
  EXPECT_EQ(reversed.failure_message, forward.failure_message);
}

TEST(GuardedProblem, EvaluationIsDeterministic) {
  GuardPolicy policy;
  policy.max_retries = 3;
  policy.perturbation = 0.2;
  GuardedProblem guard(flaky(), policy);
  const std::vector<double> genes{0.26, 0.5};
  const auto a = guard.evaluated(genes);
  const auto b = guard.evaluated(genes);
  EXPECT_EQ(a.objectives, b.objectives);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(GuardedProblem, SummaryMentionsEveryCounter) {
  GuardPolicy policy;
  policy.max_retries = 0;
  GuardedProblem guard(flaky(), policy);
  (void)guard.evaluated(std::vector<double>{0.3, 0.9});
  const std::string text = guard.report().summary();
  EXPECT_NE(text.find("1 fault(s)"), std::string::npos);
  EXPECT_NE(text.find("penalized"), std::string::npos);
}

TEST(GuardedProblem, RejectsBadConstruction) {
  EXPECT_THROW(GuardedProblem(nullptr, GuardPolicy{}), PreconditionError);
  GuardPolicy bad;
  bad.penalty_objective = std::numeric_limits<double>::infinity();
  EXPECT_THROW(GuardedProblem(flaky(), bad), PreconditionError);
}

TEST(GuardedProblem, SetReportRestoresCumulativeCounters) {
  GuardedProblem guard(flaky(), GuardPolicy{});
  FaultReport prior;
  prior.exceptions = 7;
  prior.penalized = 2;
  guard.set_report(prior);
  (void)guard.evaluated(std::vector<double>{0.1, 0.1});  // clean
  EXPECT_EQ(guard.report().exceptions, 7u);
  EXPECT_EQ(guard.report().penalized, 2u);
}

TEST(GuardedProblem, RetryIsDeterministicAcrossInstances) {
  GuardPolicy policy;
  policy.max_retries = 3;
  GuardedProblem first(flaky(), policy);
  GuardedProblem second(flaky(), policy);
  const std::vector<double> faulty{0.3, 0.9};
  const auto a = first.evaluated(faulty);
  const auto c = second.evaluated(faulty);
  EXPECT_EQ(a.objectives, c.objectives);
  EXPECT_EQ(first.report().retries, second.report().retries);
  // Re-evaluating the same genes on the same instance doubles the tallies
  // but yields the same evaluation — the Problem purity contract.
  const auto b = first.evaluated(faulty);
  EXPECT_EQ(a.objectives, b.objectives);
  EXPECT_EQ(first.report().retries, 2 * second.report().retries);
}

TEST(HashGenes, IsStableAndSeedSensitive) {
  const std::vector<double> genes{0.25, -1.5, 3.75};
  EXPECT_EQ(hash_genes(genes, 1), hash_genes(genes, 1));
  EXPECT_NE(hash_genes(genes, 1), hash_genes(genes, 2));
  const std::vector<double> other{0.25, -1.5, 3.76};
  EXPECT_NE(hash_genes(genes, 1), hash_genes(other, 1));
}

}  // namespace
}  // namespace anadex::robust
