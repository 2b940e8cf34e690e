// EngineLease and the engine an evolver borrows: without a handle a run
// evaluates on a private serial engine; with one, every batch goes through
// the borrowed engine, and the run's evaluation accounting is that engine's.
#include "engine/engine_lease.hpp"

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/eval_engine.hpp"
#include "moga/nsga2.hpp"
#include "moga/scalarize.hpp"
#include "moga/spea2.hpp"
#include "problems/analytic.hpp"
#include "sacga/island.hpp"
#include "sacga/local_only.hpp"
#include "sacga/mesacga.hpp"
#include "sacga/sacga.hpp"

namespace anadex::engine {
namespace {

/// Forwards to SCH and records the thread of every evaluation.
class ThreadRecordingProblem final : public moga::Problem {
 public:
  std::string name() const override { return inner_->name(); }
  std::size_t num_variables() const override { return inner_->num_variables(); }
  std::size_t num_objectives() const override { return inner_->num_objectives(); }
  std::size_t num_constraints() const override { return inner_->num_constraints(); }
  std::vector<moga::VariableBound> bounds() const override { return inner_->bounds(); }
  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.insert(std::this_thread::get_id());
      ++evaluations_;
    }
    inner_->evaluate(genes, out);
  }

  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }
  std::size_t evaluations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evaluations_;
  }

 private:
  std::unique_ptr<moga::Problem> inner_ = problems::make_sch();
  mutable std::mutex mu_;
  mutable std::set<std::thread::id> threads_;
  mutable std::size_t evaluations_ = 0;
};

void expect_same_stats(const EvalStats& a, const EvalStats& b) {
  EXPECT_EQ(a.requested, b.requested);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.batch_hits, b.batch_hits);
  EXPECT_EQ(a.lru_hits, b.lru_hits);
}

moga::Population members_of(const moga::Problem& problem, std::size_t n) {
  moga::Population members(n);
  const auto bounds = problem.bounds();
  for (std::size_t i = 0; i < n; ++i) {
    // Every gene in range, with a duplicate pair (items 0 and n - 1).
    const double t = static_cast<double>(i % (n - 1)) / static_cast<double>(n);
    for (const auto& b : bounds) members[i].genes.push_back(b.lower + t * (b.upper - b.lower));
  }
  return members;
}

TEST(EngineLease, WithoutAHandleOwnsASerialEngine) {
  const ThreadRecordingProblem problem;
  const EngineLease lease(problem, EngineHandle{}, nullptr);
  auto members = members_of(problem, 6);
  lease.evaluate_members(members);

  for (const auto& member : members) {
    const moga::Evaluation expected = problem.evaluated(member.genes);
    EXPECT_EQ(member.eval.objectives, expected.objectives);
    EXPECT_EQ(member.eval.violations, expected.violations);
  }
  EXPECT_EQ(problem.threads(), std::set<std::thread::id>{std::this_thread::get_id()});
  // No cache: the duplicate pair is evaluated twice.
  EXPECT_EQ(lease.stats().requested, 6u);
  EXPECT_EQ(lease.stats().evaluated, 6u);
  EXPECT_EQ(lease.stats().cache_hits(), 0u);
}

TEST(EngineLease, WithAHandleBatchesThroughTheBorrowedEngine) {
  const ThreadRecordingProblem problem;
  EvalEngine hub(2, nullptr, 16);
  const EngineLease lease(problem, EngineHandle{&hub, 7}, nullptr);
  const EngineLease other(problem, EngineHandle{&hub, 8}, nullptr);
  auto members = members_of(problem, 6);
  lease.evaluate_members(members);
  lease.evaluate_members(members);  // the five distinct genomes hit the LRU
  auto other_members = members_of(problem, 6);
  other.evaluate_members(other_members);  // another context: no LRU hits

  EXPECT_EQ(lease.stats().requested, 12u);
  EXPECT_EQ(lease.stats().evaluated, 5u);
  EXPECT_EQ(lease.stats().batch_hits, 2u);
  EXPECT_EQ(lease.stats().lru_hits, 5u);
  EXPECT_EQ(other.stats().requested, 6u);
  EXPECT_EQ(other.stats().evaluated, 5u);
  EXPECT_EQ(hub.stats().requested, 18u);
  EXPECT_EQ(hub.stats().evaluated, 10u);
  EXPECT_EQ(problem.evaluations(), 10u);
  EXPECT_EQ(other_members[3].eval.objectives, members[3].eval.objectives);
}

// ---- every evolver borrows its engine through params.engine --------------

/// What a run reports about its evaluations.
struct Accounting {
  std::size_t evaluations = 0;
  EvalStats stats;
};

template <class Result>
Accounting accounting_of(const Result& result) {
  return Accounting{result.evaluations, result.eval_stats};
}

using Runner = std::function<Accounting(const moga::Problem&, EngineHandle)>;

/// One small run of each of the seven evolvers on a borrowed `handle`.
std::vector<std::pair<std::string, Runner>> evolvers() {
  return {
      {"nsga2",
       [](const moga::Problem& p, EngineHandle h) {
         moga::Nsga2Params params;
         params.population_size = 16;
         params.generations = 4;
         params.engine = h;
         return accounting_of(moga::run_nsga2(p, params));
       }},
      {"spea2",
       [](const moga::Problem& p, EngineHandle h) {
         moga::Spea2Params params;
         params.population_size = 16;
         params.archive_size = 12;
         params.generations = 4;
         params.engine = h;
         return accounting_of(moga::run_spea2(p, params));
       }},
      {"island",
       [](const moga::Problem& p, EngineHandle h) {
         sacga::IslandParams params;
         params.islands = 2;
         params.island_population = 8;
         params.generations = 4;
         params.migration_interval = 2;
         params.engine = h;
         return accounting_of(sacga::run_island_ga(p, params));
       }},
      {"local_only",
       [](const moga::Problem& p, EngineHandle h) {
         sacga::LocalOnlyParams params;
         params.population_size = 16;
         params.partitions = 4;
         params.axis_objective = 0;
         params.axis_hi = 4.0;
         params.generations = 4;
         params.engine = h;
         return accounting_of(sacga::run_local_only(p, params));
       }},
      {"sacga",
       [](const moga::Problem& p, EngineHandle h) {
         sacga::SacgaParams params;
         params.population_size = 16;
         params.partitions = 4;
         params.axis_objective = 0;
         params.axis_hi = 4.0;
         params.phase1_max_generations = 2;
         params.span = 6;
         params.span_is_total_budget = true;
         params.engine = h;
         return accounting_of(sacga::run_sacga(p, params));
       }},
      {"mesacga",
       [](const moga::Problem& p, EngineHandle h) {
         sacga::MesacgaParams params;
         params.population_size = 16;
         params.partition_schedule = {4, 2, 1};
         params.axis_objective = 0;
         params.axis_hi = 4.0;
         params.phase1_max_generations = 2;
         params.span = 2;
         params.engine = h;
         return accounting_of(sacga::run_mesacga(p, params));
       }},
      {"weighted_sum",
       [](const moga::Problem& p, EngineHandle h) {
         moga::WeightedSumParams params;
         params.weight_count = 3;
         params.population_size = 8;
         params.generations_per_weight = 3;
         params.engine = h;
         return accounting_of(moga::run_weighted_sum(p, params));
       }},
  };
}

TEST(BorrowedEngine, EvolverWithoutAHandleEvaluatesOnAPrivateSerialEngine) {
  for (const auto& [name, run] : evolvers()) {
    const ThreadRecordingProblem problem;
    const Accounting run_stats = run(problem, EngineHandle{});
    EXPECT_EQ(problem.threads(), std::set<std::thread::id>{std::this_thread::get_id()})
        << name;
    // Serial and uncached: every requested evaluation reached the problem.
    EXPECT_EQ(problem.evaluations(), run_stats.evaluations) << name;
    EXPECT_EQ(run_stats.stats.requested, run_stats.evaluations) << name;
    EXPECT_EQ(run_stats.stats.evaluated, run_stats.evaluations) << name;
  }
}

TEST(BorrowedEngine, EvolverWithAHandleSendsEveryBatchThroughIt) {
  for (const auto& [name, run] : evolvers()) {
    SCOPED_TRACE(name);
    const ThreadRecordingProblem problem;
    EvalEngine engine(problem, 2, nullptr, 32);
    const Accounting run_stats = run(problem, EngineHandle{&engine, 0});
    EXPECT_GT(run_stats.evaluations, 0u);
    EXPECT_EQ(engine.stats().requested, run_stats.evaluations);
    expect_same_stats(run_stats.stats, engine.stats());
    EXPECT_EQ(problem.evaluations(), engine.stats().evaluated);
  }
}

}  // namespace
}  // namespace anadex::engine
