// The batch_eval execution setting at the engine layer: the default (Auto)
// engine claims lane groups for every multi-item batch, narrowed so each
// worker of a pool gets one, bit-identical to per-item (Scalar) evaluation
// across thread counts; a one-item batch stays per item; a throwing lane
// evaluator must fall back per item (counted, not fatal), and
// GuardedProblem's fault accounting must match scalar mode exactly when
// lanes re-run faulty items.
#include "engine/eval_engine.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/simd/lane_evaluator.hpp"
#include "expt/runner.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"
#include "robust/guarded_problem.hpp"

namespace anadex::engine {
namespace {

std::vector<Genome> make_genomes(const moga::Problem& problem, std::size_t count) {
  const auto bounds = problem.bounds();
  std::vector<Genome> genomes(count);
  for (std::size_t i = 0; i < count; ++i) {
    genomes[i].resize(bounds.size());
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      const double t = static_cast<double>(i * bounds.size() + k + 1) /
                       static_cast<double>(count * bounds.size() + 1);
      genomes[i][k] = bounds[k].lower + t * (bounds[k].upper - bounds[k].lower);
    }
  }
  return genomes;
}

void expect_evaluations_eq(const std::vector<moga::Evaluation>& a,
                           const std::vector<moga::Evaluation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].objectives, b[i].objectives) << "item " << i;
    EXPECT_EQ(a[i].violations, b[i].violations) << "item " << i;
  }
}

/// A lane evaluator whose lane path always throws: the engine must recover
/// by evaluating the group's items one by one through evaluate().
class ThrowingLanesProblem final : public moga::Problem, public LaneEvaluator {
 public:
  explicit ThrowingLanesProblem(const moga::Problem& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name() + "+throwing-lanes"; }
  std::size_t num_variables() const override { return inner_.num_variables(); }
  std::size_t num_objectives() const override { return inner_.num_objectives(); }
  std::size_t num_constraints() const override { return inner_.num_constraints(); }
  std::vector<moga::VariableBound> bounds() const override { return inner_.bounds(); }
  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override {
    inner_.evaluate(genes, out);
  }

  bool lanes_supported() const override { return true; }
  std::size_t preferred_lane_width() const override { return 8; }
  void evaluate_lanes(std::span<const std::span<const double>>,
                      std::span<moga::Evaluation* const>) const override {
    throw std::runtime_error("lane path unavailable");
  }

 private:
  const moga::Problem& inner_;
};

/// Evaluates `genomes` on a per-item (Scalar) engine: the reference bits.
std::vector<moga::Evaluation> scalar_reference(const moga::Problem& problem,
                                               const std::vector<Genome>& genomes) {
  EvalEngine scalar(problem, 1);
  scalar.set_batch_eval(BatchEval::Scalar);
  std::vector<moga::Evaluation> reference(genomes.size());
  scalar.evaluate_batch(genomes, reference);
  EXPECT_EQ(scalar.lane_groups(), 0u);
  return reference;
}

TEST(BatchEvalKnob, ParseAndToStringRoundTrip) {
  EXPECT_EQ(parse_batch_eval("scalar"), BatchEval::Scalar);
  EXPECT_EQ(parse_batch_eval("auto"), BatchEval::Auto);
  for (const BatchEval mode : {BatchEval::Scalar, BatchEval::Auto}) {
    EXPECT_EQ(parse_batch_eval(to_string(mode)), mode);
  }
  EXPECT_THROW(parse_batch_eval("simd"), std::exception);
  EXPECT_THROW(parse_batch_eval("vector"), std::exception);
}

TEST(BatchEvalKnob, DefaultsAreAuto) {
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  EXPECT_EQ(EvalEngine(problem).batch_eval(), BatchEval::Auto);
  EXPECT_EQ(EvalEngine(std::size_t{1}).batch_eval(), BatchEval::Auto);  // hub form
  const expt::RunSettings settings;
  EXPECT_EQ(settings.batch_eval, BatchEval::Auto);
}

TEST(BatchEvalKnob, DefaultEngineLanesBitIdenticalAcrossThreadCounts) {
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  const auto genomes = make_genomes(problem, 37);  // ragged: 2 full groups + 5
  const auto reference = scalar_reference(problem, genomes);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const EvalEngine lanes(problem, threads);
    std::vector<moga::Evaluation> out(genomes.size());
    lanes.evaluate_batch(genomes, out);
    expect_evaluations_eq(out, reference);
    EXPECT_GT(lanes.lane_groups(), 0u) << threads << " threads";
    EXPECT_EQ(lanes.lane_items() + lanes.lane_fallbacks(), genomes.size())
        << threads << " threads";
  }
}

TEST(BatchEvalKnob, DefaultEngineEngagesLanesForEveryMultiItemBatch) {
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  const std::size_t width = problem.preferred_lane_width();

  // Batches under one full group still run as a (short) lane group.
  for (const std::size_t size : {std::size_t{2}, width - 1}) {
    const auto genomes = make_genomes(problem, size);
    const auto reference = scalar_reference(problem, genomes);
    const EvalEngine eval(problem, 1);
    std::vector<moga::Evaluation> out(genomes.size());
    eval.evaluate_batch(genomes, out);
    expect_evaluations_eq(out, reference);
    EXPECT_EQ(eval.lane_groups(), 1u) << size << " items";
    EXPECT_EQ(eval.lane_items(), size) << size << " items";
  }

  // A one-item batch has nothing to group: it stays per item.
  const auto single = make_genomes(problem, 1);
  const auto reference = scalar_reference(problem, single);
  const EvalEngine eval(problem, 1);
  std::vector<moga::Evaluation> out(1);
  eval.evaluate_batch(single, out);
  expect_evaluations_eq(out, reference);
  EXPECT_EQ(eval.lane_groups(), 0u);
  EXPECT_EQ(eval.lane_fallbacks(), 0u);
}

TEST(BatchEvalKnob, PoolNarrowsGroupsUntilEveryWorkerHasOne) {
  // The width shrinks below preferred_lane_width() when the batch holds
  // fewer full groups than the pool has workers, and to one item (per-item
  // evaluation) when it holds no more items than workers.
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  ASSERT_EQ(problem.preferred_lane_width(), 16u);
  struct Case {
    std::size_t threads, items, groups;
  };
  for (const Case c : {Case{4, 32, 4},    // width 8, not two groups of 16
                       Case{8, 37, 8},    // width 5: seven groups of 5 and one of 2
                       Case{4, 100, 7},   // six groups of 16 and one of 4
                       Case{4, 4, 0}}) {  // width 1: per item
    const auto genomes = make_genomes(problem, c.items);
    const auto reference = scalar_reference(problem, genomes);
    const EvalEngine eval(problem, c.threads);
    std::vector<moga::Evaluation> out(genomes.size());
    eval.evaluate_batch(genomes, out);
    expect_evaluations_eq(out, reference);
    const std::string where =
        std::to_string(c.items) + " items, " + std::to_string(c.threads) + " threads";
    EXPECT_EQ(eval.lane_groups(), c.groups) << where;
    EXPECT_EQ(eval.lane_items(), c.groups == 0 ? 0 : c.items) << where;
  }
}

TEST(BatchEvalKnob, ThrowingLaneEvaluatorFallsBackPerItem) {
  const problems::IntegratorProblem inner(problems::spec_suite().front());
  const ThrowingLanesProblem problem(inner);
  const auto genomes = make_genomes(problem, 19);

  const auto reference = scalar_reference(inner, genomes);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const EvalEngine eval(problem, threads);
    std::vector<moga::Evaluation> out(genomes.size());
    eval.evaluate_batch(genomes, out);
    expect_evaluations_eq(out, reference);
    EXPECT_GT(eval.lane_fallbacks(), 0u) << threads << " threads";
    EXPECT_EQ(eval.lane_items(), 0u) << threads << " threads";
  }
}

TEST(BatchEvalKnob, GuardedProblemFaultAccountingMatchesScalarMode) {
  // Hostile genomes (NaN bias current) fault inside the kernels; the
  // guard's lane path must re-run faulty lanes scalar so the penalized
  // results AND the fault report match scalar mode exactly.
  const auto inner = std::make_shared<const problems::IntegratorProblem>(
      problems::spec_suite().front());
  const auto genomes = [&] {
    auto g = make_genomes(*inner, 24);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    g[2][problems::kIbias] = nan;
    g[11][problems::kW1] = nan;
    g[17][problems::kCc] = nan;
    return g;
  }();

  robust::GuardPolicy policy;  // default: two retries then penalize
  const robust::GuardedProblem scalar_guard(inner, policy);
  const auto reference = scalar_reference(scalar_guard, genomes);
  const robust::FaultReport scalar_report = scalar_guard.report();
  EXPECT_GT(scalar_report.total_faults(), 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const robust::GuardedProblem guard(inner, policy);
    const EvalEngine eval(guard, threads);
    std::vector<moga::Evaluation> out(genomes.size());
    eval.evaluate_batch(genomes, out);
    expect_evaluations_eq(out, reference);
    const robust::FaultReport report = guard.report();
    EXPECT_EQ(report.total_faults(), scalar_report.total_faults());
    EXPECT_EQ(report.retries, scalar_report.retries);
    EXPECT_EQ(report.penalized, scalar_report.penalized);
    EXPECT_EQ(report.recovered, scalar_report.recovered);
  }
}

TEST(BatchEvalKnob, DedupCacheComposesWithLanes) {
  // Duplicate genomes within a batch: the cache serves duplicates, the
  // lane path evaluates the distinct remainder, results stay identical.
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  auto genomes = make_genomes(problem, 32);
  for (std::size_t i = 1; i < genomes.size(); i += 3) genomes[i] = genomes[0];

  const auto reference = scalar_reference(problem, genomes);

  const EvalEngine cached(problem, 1, nullptr, /*cache_capacity=*/64);
  std::vector<moga::Evaluation> out(genomes.size());
  cached.evaluate_batch(genomes, out);
  expect_evaluations_eq(out, reference);
  EXPECT_GT(cached.stats().cache_hits(), 0u);
  EXPECT_GT(cached.lane_groups(), 0u);
}

}  // namespace
}  // namespace anadex::engine
