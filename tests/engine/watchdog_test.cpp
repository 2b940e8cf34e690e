// Evaluation-watchdog behavior: a stuck batch is cancelled at the deadline
// and converted into Timeout penalties by the guard; a generous deadline
// never fires and never perturbs results; a run's eval_deadline_s arms the
// watchdog of the engine the run evaluates on.
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.hpp"
#include "common/check.hpp"
#include "engine/eval_engine.hpp"
#include "expt/runner.hpp"
#include "problems/analytic.hpp"
#include "problems/spec_suite.hpp"
#include "robust/fault_injection.hpp"
#include "robust/guarded_problem.hpp"

namespace anadex::engine {
namespace {

std::shared_ptr<const moga::Problem> zdt1() {
  return std::shared_ptr<const moga::Problem>(problems::make_zdt1(4));
}

moga::Population make_members(std::size_t n) {
  moga::Population members(n);
  for (std::size_t i = 0; i < n; ++i) {
    members[i].genes = {0.1 + 0.01 * static_cast<double>(i), 0.2, 0.3, 0.4};
  }
  return members;
}

TEST(Watchdog, CancelsAStuckBatchAndPenalizesAsTimeouts) {
  // Every evaluation busy-spins for billions of iterations — minutes of
  // work if the watchdog were broken — but polls the cancel token, so a
  // 50 ms deadline ends the batch almost immediately.
  robust::FaultInjectionConfig config;
  config.slow_rate = 1.0;
  config.slow_spin_iterations = 3'000'000'000ULL;
  auto injector = std::make_shared<robust::FaultInjectingProblem>(zdt1(), config);

  CancelToken token;
  injector->set_cancel_token(&token);
  robust::GuardPolicy policy;
  policy.max_retries = 1;
  robust::GuardedProblem guarded(injector, policy);
  guarded.set_cancel_token(&token);

  const EvalEngine eval(guarded, 2, nullptr, 0, EvalWatchdog{&token, 0.05});
  auto members = make_members(4);
  eval.evaluate_members(members);

  EXPECT_GE(eval.watchdog_fires(), 1u);
  const auto report = guarded.report();
  EXPECT_GE(report.timeouts, 1u);
  EXPECT_EQ(report.penalized, members.size());
  for (const auto& member : members) {
    for (double objective : member.eval.objectives) {
      EXPECT_EQ(objective, policy.penalty_objective);
    }
  }
  // Disarming the watchdog reset the token, so the next batch starts clean.
  EXPECT_FALSE(token.requested());
}

TEST(Watchdog, GenerousDeadlineNeverFiresAndNeverChangesResults) {
  auto problem = zdt1();
  const EvalEngine plain(*problem, 2);
  auto expected = make_members(6);
  plain.evaluate_members(expected);

  CancelToken token;
  robust::GuardPolicy policy;
  robust::GuardedProblem guarded(problem, policy);
  guarded.set_cancel_token(&token);
  const EvalEngine watched(guarded, 2, nullptr, 0, EvalWatchdog{&token, 1000.0});
  auto members = make_members(6);
  watched.evaluate_members(members);

  EXPECT_EQ(watched.watchdog_fires(), 0u);
  EXPECT_EQ(guarded.report().total_faults(), 0u);
  ASSERT_EQ(members.size(), expected.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(members[i].eval.objectives, expected[i].eval.objectives);
    EXPECT_EQ(members[i].eval.violations, expected[i].eval.violations);
  }
}

TEST(Watchdog, RejectsNonFiniteDeadlines) {
  auto problem = zdt1();
  CancelToken token;
  EXPECT_THROW(
      EvalEngine(*problem, 1, nullptr, 0,
                 EvalWatchdog{&token, std::numeric_limits<double>::quiet_NaN()}),
      PreconditionError);
}

TEST(Watchdog, RunDeadlinePenalizesEveryStuckEvaluationAsATimeout) {
  // From settings to the run's engine: eval_deadline_s arms the watchdog of
  // the engine the run builds, whose token the guard and the injector poll.
  // Every evaluation spins several times longer than the deadline, so each
  // one ends as a timeout penalty. The spin is short enough that a run
  // whose watchdog is not armed ends within seconds and fails here instead
  // of hanging.
  expt::RunSettings s;
  s.algo = expt::Algo::TPG;
  s.spec = problems::spec_suite().front();
  s.population = 8;
  s.generations = 3;
  s.threads = 2;
  s.eval_deadline_s = 0.01;
  robust::FaultInjectionConfig chaos;
  chaos.slow_rate = 1.0;
  chaos.slow_spin_iterations = 50'000'000ULL;
  s.fault_injection = chaos;

  const expt::RunOutcome outcome = expt::run(s);
  EXPECT_EQ(outcome.evaluations, 32u);
  EXPECT_EQ(outcome.faults.timeouts, outcome.evaluations);
  EXPECT_EQ(outcome.faults.penalized, outcome.evaluations);
  EXPECT_EQ(outcome.faults.total_faults(), outcome.faults.timeouts);
}

}  // namespace
}  // namespace anadex::engine
