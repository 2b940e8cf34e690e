// Sharded-vs-solo byte-identity matrix (docs/sharding.md): the same island
// run executed across 1, 2 and 4 shards — at 1 and 8 evaluation threads —
// must reproduce the solo run's final front, evaluation totals and final
// checkpoint file bit for bit. The matrix repeats under injected evaluator
// faults with one shard crash-killed mid-epoch (the supervisor relaunches
// it), and a checkpoint written by a 2-shard run must resume at 4 shards
// and still land on the solo bytes. Forked worker processes, which get
// the run as command-line flags, land on them too.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "expt/runner.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"
#include "robust/chaos.hpp"
#include "shard/coordinator.hpp"

namespace anadex::shard {
namespace {

namespace fs = std::filesystem;

/// "s<shards>t<threads>", built by appending: GCC 12 reports a false
/// -Wrestrict on `"s" + std::to_string(...)` at -O2.
std::string shard_tag(std::size_t shards, std::size_t threads) {
  std::string tag = "s";
  tag += std::to_string(shards);
  tag += 't';
  tag += std::to_string(threads);
  return tag;
}

constexpr std::size_t kGenerations = 24;
constexpr std::size_t kMigrationInterval = 6;
constexpr std::size_t kCheckpointEvery = 8;  // divides kGenerations: the solo
                                             // final slot is the gen-24 state

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

expt::RunSettings island_settings(std::size_t threads) {
  expt::RunSettings s;
  s.algo = expt::Algo::Island;
  s.spec = problems::spec_suite().front();
  s.population = 32;
  s.generations = kGenerations;
  s.islands = 4;
  s.migration_interval = kMigrationInterval;
  s.seed = 9;
  s.threads = threads;
  s.checkpoint_every = kCheckpointEvery;
  s.checkpoint_keep = 2;
  return s;
}

struct Reference {
  std::vector<expt::FrontSample> front;
  std::size_t evaluations = 0;
  std::size_t total_faults = 0;
  std::string checkpoint_bytes;
};

Reference solo_reference(const problems::IntegratorProblem& problem,
                         const expt::RunSettings& base, const fs::path& dir) {
  expt::RunSettings s = base;
  s.checkpoint_path = (dir / "solo.cp").string();
  const expt::RunOutcome outcome = expt::run(problem, s);
  Reference ref;
  ref.front = outcome.front;
  ref.evaluations = outcome.evaluations;
  ref.total_faults = outcome.faults.total_faults();
  ref.checkpoint_bytes = slurp(s.checkpoint_path);
  return ref;
}

void expect_matches(const Reference& ref, const expt::RunOutcome& outcome,
                    const std::string& checkpoint_path, const std::string& label) {
  EXPECT_EQ(outcome.evaluations, ref.evaluations) << label;
  EXPECT_EQ(outcome.faults.total_faults(), ref.total_faults) << label;
  ASSERT_EQ(outcome.front.size(), ref.front.size()) << label;
  for (std::size_t i = 0; i < ref.front.size(); ++i) {
    EXPECT_EQ(outcome.front[i].power_w, ref.front[i].power_w) << label << " #" << i;
    EXPECT_EQ(outcome.front[i].cload_f, ref.front[i].cload_f) << label << " #" << i;
  }
  EXPECT_EQ(slurp(checkpoint_path), ref.checkpoint_bytes) << label;
}

struct TestDir {
  fs::path dir;
  explicit TestDir(const char* name) : dir(name) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~TestDir() { fs::remove_all(dir); }
};

TEST(ShardedDeterminism, MatrixMatchesSoloBytes) {
  const TestDir scope("sharded_matrix_test.dir");
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const Reference ref = solo_reference(problem, island_settings(threads), scope.dir);
    for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const std::string label =
          "shards=" + std::to_string(shards) + " threads=" + std::to_string(threads);
      expt::RunSettings s = island_settings(threads);
      s.shards = shards;
      const std::string tag = shard_tag(shards, threads);
      s.shard_dir = (scope.dir / ("spool_" + tag)).string();
      s.checkpoint_path = (scope.dir / (tag + ".cp")).string();
      ShardOptions options;  // thread mode: in-process, full settings allowed
      const expt::RunOutcome outcome = run_sharded(problem, s, options);
      EXPECT_FALSE(outcome.interrupted) << label;
      EXPECT_EQ(outcome.generations, kGenerations) << label;
      expect_matches(ref, outcome, s.checkpoint_path, label);
    }
  }
}

TEST(ShardedDeterminism, KilledShardRecoversToSoloBytes) {
  // Chaos drill: evaluator faults active AND shard 1 crash-killed right
  // after publishing its epoch-2 migrants (mid-exchange, before it
  // integrates). The supervisor relaunches it; the replay republishes
  // byte-identical migrant files and the merged result must still equal the
  // solo run under the same faults.
  const TestDir scope("sharded_chaos_test.dir");
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  const robust::ChaosPlan plan =
      robust::ChaosPlan::from_seed(2027, kGenerations, /*with_write_crash=*/false);
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    expt::RunSettings base = island_settings(threads);
    base.fault_injection = plan.faults;
    const Reference ref = solo_reference(problem, base, scope.dir);
    EXPECT_GT(ref.total_faults, 0u) << "chaos plan injected nothing";
    for (std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      const std::string label = "chaos shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);
      expt::RunSettings s = base;
      s.shards = shards;
      const std::string tag = shard_tag(shards, threads);
      s.shard_dir = (scope.dir / ("chaos_spool_" + tag)).string();
      s.checkpoint_path = (scope.dir / ("chaos_" + tag + ".cp")).string();
      ShardOptions options;
      options.chaos = WorkerChaos{/*shard=*/1, /*epoch=*/2};
      const expt::RunOutcome outcome = run_sharded(problem, s, options);
      expect_matches(ref, outcome, s.checkpoint_path, label);
    }
  }
}

TEST(ShardedDeterminism, CheckpointWrittenAtTwoShardsResumesAtFour) {
  // Leg 1 runs 2 shards and stops at epoch 2 (generation 12) with a
  // canonical checkpoint. Leg 2 resumes THAT checkpoint at 4 shards — the
  // coordinator re-slices it for the new topology — and must finish on the
  // solo run's exact bytes.
  const TestDir scope("sharded_resume_test.dir");
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  const Reference ref = solo_reference(problem, island_settings(1), scope.dir);

  expt::RunSettings first = island_settings(1);
  first.shards = 2;
  first.shard_dir = (scope.dir / "spool").string();
  first.checkpoint_path = (scope.dir / "handoff.cp").string();
  ShardOptions stop_options;
  stop_options.stop_after_epoch = 2;
  const expt::RunOutcome paused = run_sharded(problem, first, stop_options);
  EXPECT_TRUE(paused.interrupted);
  EXPECT_EQ(paused.generations, 2 * kMigrationInterval);

  expt::RunSettings second = island_settings(1);
  second.shards = 4;
  second.shard_dir = first.shard_dir;  // same spool, stale 2-shard partials
  second.checkpoint_path = first.checkpoint_path;
  second.resume = expt::ResumeMode::Auto;
  ShardOptions finish_options;
  const expt::RunOutcome outcome = run_sharded(problem, second, finish_options);
  EXPECT_FALSE(outcome.interrupted);
  EXPECT_EQ(outcome.resumed_from_generation, 2 * kMigrationInterval);
  expect_matches(ref, outcome, second.checkpoint_path, "cross-shard-count resume");
}

TEST(ShardedDeterminism, ProcessShardsWithADeadlineMatchSoloBytes) {
  // Process workers receive the run as `anadex shard-worker` flags: the
  // seed in decimal, the deadline as textio::exact's hex float. Each must
  // read both back exactly. The deadline is far beyond any batch, so it
  // never fires; the seed lies past 2^63.
  const TestDir scope("sharded_process_test.dir");
  const problems::IntegratorProblem problem(problems::spec_suite().front());
  expt::RunSettings base = island_settings(1);
  base.seed = std::numeric_limits<std::uint64_t>::max() - 6;
  base.eval_deadline_s = 60.0;
  const Reference ref = solo_reference(problem, base, scope.dir);
  expt::RunSettings s = base;
  s.shards = 2;
  s.shard_dir = (scope.dir / "spool").string();
  s.checkpoint_path = (scope.dir / "process.cp").string();
  ShardOptions options;
  options.mode = LaunchMode::Processes;
  options.worker_binary = ANADEX_CLI_BINARY;
  options.spec_arg = "1";
  const expt::RunOutcome outcome = run_sharded(problem, s, options);
  EXPECT_FALSE(outcome.interrupted);
  expect_matches(ref, outcome, s.checkpoint_path, "process shards=2 with a deadline");
}

}  // namespace
}  // namespace anadex::shard
