#include "expt/runner.hpp"

#include <gtest/gtest.h>

#include "common/cancel.hpp"
#include "common/check.hpp"
#include "expt/figures.hpp"
#include "problems/spec_suite.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace anadex::expt {
namespace {

/// A relaxed spec keeps short smoke runs cheap and feasible.
scint::Spec easy_spec() { return problems::spec_suite().front(); }

RunSettings smoke_settings(Algo algo) {
  RunSettings s;
  s.algo = algo;
  s.spec = easy_spec();
  s.population = 32;
  s.generations = 30;
  s.partitions = 4;
  s.mesacga_schedule = {4, 2, 1};
  s.phase1_cap = 10;
  s.seed = 9;
  return s;
}

TEST(AlgoName, AllNamed) {
  EXPECT_EQ(algo_name(Algo::TPG), "TPG(NSGA-II)");
  EXPECT_EQ(algo_name(Algo::LocalOnly), "LocalOnly");
  EXPECT_EQ(algo_name(Algo::SACGA), "SACGA");
  EXPECT_EQ(algo_name(Algo::MESACGA), "MESACGA");
}

TEST(FrontArea, OfSyntheticFront) {
  // Single design at (0.4 mW, 5 pF): staircase covers everything at 0.4 mW.
  const std::vector<FrontSample> front{{0.4e-3, 5e-12}};
  EXPECT_NEAR(front_area_of(front), 20.0, 1e-9);
}

TEST(Hypervolume, OfSyntheticFront) {
  // Point (0.2 mW, 5 pF) -> internal (0.2e-3, 0): dominated box
  // (1.2-0.2)mW x (5.1-0)pF over the 1.2 x 5.1 reference box.
  const std::vector<FrontSample> front{{0.2e-3, 5e-12}};
  EXPECT_NEAR(hypervolume_of(front), (1.0 * 5.1) / (1.2 * 5.1), 1e-9);
}

TEST(ToFrontSamples, MapsObjectivesToPhysicalUnits) {
  moga::Population pop(1);
  pop[0].eval.objectives = {0.5e-3, 2e-12};  // power, kLoadMax - cload
  const auto samples = to_front_samples(pop);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].power_w, 0.5e-3);
  EXPECT_DOUBLE_EQ(samples[0].cload_f, 3e-12);
}

TEST(Runner, SmokeRunsAllAlgorithms) {
  const problems::IntegratorProblem problem(easy_spec());
  for (Algo algo : {Algo::TPG, Algo::LocalOnly, Algo::SACGA, Algo::MESACGA}) {
    const auto outcome = run(problem, smoke_settings(algo));
    EXPECT_GT(outcome.evaluations, 0u) << algo_name(algo);
    EXPECT_GT(outcome.generations, 0u) << algo_name(algo);
    EXPECT_GT(outcome.seconds, 0.0) << algo_name(algo);
    EXPECT_GE(outcome.front_area, 0.0) << algo_name(algo);
    EXPECT_LE(outcome.front_area, 55.0 + 1e-9) << algo_name(algo);
    EXPECT_GE(outcome.hypervolume_norm, 0.0) << algo_name(algo);
    EXPECT_LE(outcome.hypervolume_norm, 1.0) << algo_name(algo);
  }
}

TEST(Runner, FrontSortedByLoad) {
  const problems::IntegratorProblem problem(easy_spec());
  const auto outcome = run(problem, smoke_settings(Algo::SACGA));
  for (std::size_t i = 1; i < outcome.front.size(); ++i) {
    EXPECT_LE(outcome.front[i - 1].cload_f, outcome.front[i].cload_f);
  }
}

TEST(Runner, DeterministicOutcome) {
  const problems::IntegratorProblem problem(easy_spec());
  const auto a = run(problem, smoke_settings(Algo::SACGA));
  const auto b = run(problem, smoke_settings(Algo::SACGA));
  EXPECT_EQ(a.front.size(), b.front.size());
  EXPECT_EQ(a.front_area, b.front_area);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Runner, BatchEvalModesProduceIdenticalFronts) {
  // batch_eval is a pure execution setting: every algorithm must emit the
  // exact same front (bit-level doubles) whether batches run per genome
  // (Scalar, the reference) or as lane groups across genomes (Auto).
  const problems::IntegratorProblem problem(easy_spec());
  for (Algo algo : {Algo::TPG, Algo::SACGA, Algo::MESACGA, Algo::WeightedSum}) {
    RunSettings scalar = smoke_settings(algo);
    scalar.batch_eval = engine::BatchEval::Scalar;
    const auto reference = run(problem, scalar);
    RunSettings s = smoke_settings(algo);
    s.batch_eval = engine::BatchEval::Auto;
    const auto outcome = run(problem, s);
    EXPECT_EQ(outcome.evaluations, reference.evaluations) << algo_name(algo);
    ASSERT_EQ(outcome.front.size(), reference.front.size()) << algo_name(algo);
    for (std::size_t i = 0; i < reference.front.size(); ++i) {
      EXPECT_EQ(outcome.front[i].power_w, reference.front[i].power_w)
          << algo_name(algo) << " item " << i;
      EXPECT_EQ(outcome.front[i].cload_f, reference.front[i].cload_f)
          << algo_name(algo) << " item " << i;
    }
  }
}

TEST(Runner, CheckpointBytesIdenticalAcrossBatchEvalModes) {
  // The setting is excluded from the config digest, so a checkpoint written
  // under one mode must be byte-identical to one written under the other —
  // the property that lets a run checkpoint in one mode and resume in the
  // other.
  const problems::IntegratorProblem problem(easy_spec());
  const auto checkpoint_bytes = [&](engine::BatchEval mode, const std::string& tag) {
    RunSettings s = smoke_settings(Algo::SACGA);
    s.batch_eval = mode;
    s.checkpoint_path = testing::TempDir() + "anadex_mode_" + tag + ".cp";
    s.checkpoint_every = 16;
    (void)run(problem, s);
    std::ifstream in(s.checkpoint_path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::remove(s.checkpoint_path.c_str());
    return buffer.str();
  };
  const std::string scalar = checkpoint_bytes(engine::BatchEval::Scalar, "scalar");
  const std::string lanes = checkpoint_bytes(engine::BatchEval::Auto, "auto");
  ASSERT_FALSE(scalar.empty());
  EXPECT_EQ(scalar, lanes);
}

TEST(Runner, CrossModeCheckpointResumeMatchesUninterruptedRun) {
  // Interrupt a scalar-mode run mid-flight, resume it in Auto mode: the
  // finished front must equal an uninterrupted run of either mode.
  const problems::IntegratorProblem problem(easy_spec());
  const auto full = run(problem, smoke_settings(Algo::SACGA));

  CancelToken stop;
  RunSettings interrupted = smoke_settings(Algo::SACGA);
  interrupted.batch_eval = engine::BatchEval::Scalar;
  interrupted.checkpoint_path = testing::TempDir() + "anadex_xmode.cp";
  interrupted.checkpoint_every = 8;
  interrupted.checkpoint_keep = 2;
  interrupted.stop = &stop;
  interrupted.on_generation = [&stop](std::size_t gen, const moga::Population&) {
    if (gen + 1 == 13) stop.request();
  };
  const auto partial = run(problem, interrupted);
  EXPECT_TRUE(partial.interrupted);

  RunSettings resuming = smoke_settings(Algo::SACGA);
  resuming.batch_eval = engine::BatchEval::Auto;
  resuming.checkpoint_path = interrupted.checkpoint_path;
  resuming.checkpoint_every = 8;
  resuming.resume = ResumeMode::Auto;
  const auto resumed = run(problem, resuming);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.evaluations, full.evaluations);
  ASSERT_EQ(resumed.front.size(), full.front.size());
  for (std::size_t i = 0; i < full.front.size(); ++i) {
    EXPECT_EQ(resumed.front[i].power_w, full.front[i].power_w) << "item " << i;
    EXPECT_EQ(resumed.front[i].cload_f, full.front[i].cload_f) << "item " << i;
  }
  for (const char* suffix : {"", ".1"}) {
    std::remove((interrupted.checkpoint_path + suffix).c_str());
  }
}

TEST(Runner, HistoryRecordedAtStride) {
  const problems::IntegratorProblem problem(easy_spec());
  RunSettings s = smoke_settings(Algo::TPG);
  s.record_history = true;
  s.history_stride = 10;
  const auto outcome = run(problem, s);
  ASSERT_EQ(outcome.history.size(), 3u);  // generations 10, 20, 30
  EXPECT_EQ(outcome.history[0].generation, 10u);
  EXPECT_EQ(outcome.history[2].generation, 30u);
}

TEST(Runner, MesacgaReportsPhaseMetrics) {
  const problems::IntegratorProblem problem(easy_spec());
  const auto outcome = run(problem, smoke_settings(Algo::MESACGA));
  ASSERT_EQ(outcome.phases.size(), 3u);
  EXPECT_EQ(outcome.phases.front().partitions, 4u);
  EXPECT_EQ(outcome.phases.back().partitions, 1u);
}

TEST(Runner, ClusteringMetricWithinUnitRange) {
  const problems::IntegratorProblem problem(easy_spec());
  const auto outcome = run(problem, smoke_settings(Algo::TPG));
  EXPECT_GE(outcome.clustering_4to5, 0.0);
  EXPECT_LE(outcome.clustering_4to5, 1.0);
}

TEST(Runner, ValidatesSettingsUpFront) {
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.population = 7;  // odd
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.population = 2;  // too small
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::SACGA);
    s.partitions = 0;
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.generations = 0;
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.record_history = true;
    s.history_stride = 0;
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.record_history = false;
    s.history_stride = 0;  // irrelevant when no history is recorded
    EXPECT_NO_THROW(validate_run_settings(s));
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.threads = 257;  // above the sanity cap
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.threads = 0;  // 0 = auto is valid
    EXPECT_NO_THROW(validate_run_settings(s));
  }
  {
    RunSettings s = smoke_settings(Algo::MESACGA);
    s.mesacga_schedule = {};
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::MESACGA);
    s.mesacga_schedule = {4, 4, 1};  // not strictly decreasing
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::MESACGA);
    s.mesacga_schedule = {4, 2};  // does not end in 1
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::Island);
    s.islands = 1;
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.checkpoint_path = "cp.txt";
    s.checkpoint_every = 0;
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::WeightedSum);
    s.checkpoint_path = "cp.txt";  // unsupported algorithm
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.resume = ResumeMode::Strict;  // no checkpoint path
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  EXPECT_NO_THROW(validate_run_settings(smoke_settings(Algo::MESACGA)));
}

TEST(Runner, ValidationRejectsDegenerateGuardAndWatchdogSettings) {
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.guard.max_retries = 1001;  // runaway retry ladder
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.guard.penalty_objective = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.guard.penalty_violation = std::numeric_limits<double>::infinity();
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.guard.perturbation = 0.0;  // retries would re-evaluate identical genes
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
    s.guard.perturbation = -1e-6;
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
    s.guard.perturbation = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.guard.backoff_spin_base = std::size_t{1} << 40;  // years of spinning
    EXPECT_THROW(validate_run_settings(s), PreconditionError);
  }
  for (double deadline : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    RunSettings s = smoke_settings(Algo::TPG);
    s.eval_deadline_s = deadline;
    EXPECT_THROW(validate_run_settings(s), PreconditionError) << deadline;
  }
  for (std::size_t keep : {std::size_t{0}, std::size_t{101}}) {
    RunSettings s = smoke_settings(Algo::TPG);
    s.checkpoint_keep = keep;
    EXPECT_THROW(validate_run_settings(s), PreconditionError) << keep;
  }
  {
    RunSettings s = smoke_settings(Algo::TPG);
    s.eval_deadline_s = 30.0;
    s.checkpoint_keep = 5;
    EXPECT_NO_THROW(validate_run_settings(s));
  }
}

TEST(Runner, StopTokenInterruptsAtTheBarrierAndResumeAutoFinishes) {
  const problems::IntegratorProblem problem(easy_spec());
  for (Algo algo : {Algo::TPG, Algo::SPEA2, Algo::LocalOnly, Algo::Island}) {
    const auto full = run(problem, smoke_settings(algo));

    CancelToken stop;
    RunSettings interrupted = smoke_settings(algo);
    interrupted.checkpoint_path =
        testing::TempDir() + "anadex_stop_" + algo_name(algo) + ".cp";
    interrupted.checkpoint_every = 16;
    interrupted.checkpoint_keep = 2;
    interrupted.stop = &stop;
    interrupted.on_generation = [&stop](std::size_t gen, const moga::Population&) {
      if (gen + 1 == 11) stop.request();  // off the snapshot cadence
    };
    const auto partial = run(problem, interrupted);
    EXPECT_TRUE(partial.interrupted) << algo_name(algo);
    EXPECT_LT(partial.generations, full.generations) << algo_name(algo);

    RunSettings resuming = smoke_settings(algo);
    resuming.checkpoint_path = interrupted.checkpoint_path;
    resuming.checkpoint_every = 16;
    resuming.resume = ResumeMode::Auto;
    const auto resumed = run(problem, resuming);
    EXPECT_FALSE(resumed.interrupted) << algo_name(algo);
    EXPECT_FALSE(resumed.resumed_from_path.empty()) << algo_name(algo);
    EXPECT_EQ(resumed.evaluations, full.evaluations) << algo_name(algo);
    ASSERT_EQ(resumed.front.size(), full.front.size()) << algo_name(algo);
    for (std::size_t i = 0; i < full.front.size(); ++i) {
      EXPECT_EQ(resumed.front[i].power_w, full.front[i].power_w) << algo_name(algo);
      EXPECT_EQ(resumed.front[i].cload_f, full.front[i].cload_f) << algo_name(algo);
    }
    for (const char* suffix : {"", ".1"}) {
      std::remove((interrupted.checkpoint_path + suffix).c_str());
    }
  }
}

TEST(Runner, ResumeAutoStartsFreshWithoutACheckpoint) {
  const problems::IntegratorProblem problem(easy_spec());
  RunSettings s = smoke_settings(Algo::TPG);
  s.checkpoint_path = testing::TempDir() + "anadex_auto_fresh.cp";
  s.checkpoint_every = 16;
  s.resume = ResumeMode::Auto;
  std::remove(s.checkpoint_path.c_str());
  const auto outcome = run(problem, s);  // Strict would throw here
  EXPECT_EQ(outcome.resumed_from_generation, 0u);
  EXPECT_TRUE(outcome.resumed_from_path.empty());
  EXPECT_EQ(outcome.generations, smoke_settings(Algo::TPG).generations);
  std::remove(s.checkpoint_path.c_str());
}

TEST(Runner, CheckpointResumeReproducesUninterruptedRun) {
  const problems::IntegratorProblem problem(easy_spec());
  for (Algo algo : {Algo::TPG, Algo::SACGA, Algo::MESACGA}) {
    const auto full = run(problem, smoke_settings(algo));

    // 30 generations with a 16-generation cadence: the run finishes with
    // the checkpoint still parked at generation 16, simulating a kill
    // between snapshot and completion.
    RunSettings interrupted = smoke_settings(algo);
    interrupted.checkpoint_path =
        testing::TempDir() + "anadex_runner_" + algo_name(algo) + ".cp";
    interrupted.checkpoint_every = 16;
    (void)run(problem, interrupted);

    RunSettings resuming = interrupted;
    resuming.resume = ResumeMode::Strict;
    const auto resumed = run(problem, resuming);

    EXPECT_EQ(resumed.resumed_from_generation, 16u) << algo_name(algo);
    EXPECT_EQ(resumed.evaluations, full.evaluations) << algo_name(algo);
    EXPECT_EQ(resumed.generations, full.generations) << algo_name(algo);
    ASSERT_EQ(resumed.front.size(), full.front.size()) << algo_name(algo);
    for (std::size_t i = 0; i < full.front.size(); ++i) {
      EXPECT_EQ(resumed.front[i].power_w, full.front[i].power_w) << algo_name(algo);
      EXPECT_EQ(resumed.front[i].cload_f, full.front[i].cload_f) << algo_name(algo);
    }
    EXPECT_EQ(resumed.front_area, full.front_area) << algo_name(algo);
    std::remove(interrupted.checkpoint_path.c_str());
  }
}

TEST(Runner, HistorySurvivesCheckpointResume) {
  const problems::IntegratorProblem problem(easy_spec());
  RunSettings base = smoke_settings(Algo::TPG);
  base.record_history = true;
  base.history_stride = 10;
  const auto full = run(problem, base);
  ASSERT_EQ(full.history.size(), 3u);

  RunSettings interrupted = base;
  interrupted.checkpoint_path = testing::TempDir() + "anadex_runner_history.cp";
  interrupted.checkpoint_every = 16;  // checkpoint carries the gen-10 sample
  (void)run(problem, interrupted);

  RunSettings resuming = interrupted;
  resuming.resume = ResumeMode::Strict;
  const auto resumed = run(problem, resuming);

  ASSERT_EQ(resumed.history.size(), full.history.size());
  for (std::size_t i = 0; i < full.history.size(); ++i) {
    EXPECT_EQ(resumed.history[i].generation, full.history[i].generation);
    EXPECT_EQ(resumed.history[i].front_area, full.history[i].front_area);
    EXPECT_EQ(resumed.history[i].front_size, full.history[i].front_size);
  }
  std::remove(interrupted.checkpoint_path.c_str());
}

TEST(Runner, ResumeRejectsMismatchedConfiguration) {
  const problems::IntegratorProblem problem(easy_spec());
  RunSettings s = smoke_settings(Algo::TPG);
  s.checkpoint_path = testing::TempDir() + "anadex_runner_mismatch.cp";
  s.checkpoint_every = 16;
  (void)run(problem, s);

  RunSettings other = s;
  other.resume = ResumeMode::Strict;
  other.seed = s.seed + 1;  // different run identity
  EXPECT_THROW(run(problem, other), PreconditionError);

  RunSettings wrong_algo = s;
  wrong_algo.resume = ResumeMode::Strict;
  wrong_algo.algo = Algo::SACGA;  // meta.algo differs
  EXPECT_THROW(run(problem, wrong_algo), PreconditionError);

  std::remove(s.checkpoint_path.c_str());
}

TEST(Runner, FaultReportEmptyOnCleanProblem) {
  const problems::IntegratorProblem problem(easy_spec());
  const auto outcome = run(problem, smoke_settings(Algo::TPG));
  EXPECT_EQ(outcome.faults.total_faults(), 0u);
  EXPECT_EQ(outcome.resumed_from_generation, 0u);
}

TEST(Figures, FrontSeriesSortedWithPhysicalColumns) {
  const std::vector<FrontSample> front{{0.5e-3, 4e-12}, {0.2e-3, 1e-12}};
  const Series series = front_series("t", front);
  EXPECT_EQ(series.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(series.at(0, 0), 1.0);   // pF
  EXPECT_DOUBLE_EQ(series.at(0, 1), 0.2);   // mW
  EXPECT_DOUBLE_EQ(series.at(1, 0), 4.0);
}

TEST(Figures, PrintersEmitExpectedMarkers) {
  std::ostringstream os;
  print_banner(os, "Figure 5", "Pareto fronts");
  EXPECT_NE(os.str().find("Figure 5"), std::string::npos);

  std::ostringstream os2;
  print_paper_vs_measured(os2, "ordering", "A>B", "A>B");
  EXPECT_NE(os2.str().find("[paper-vs-measured]"), std::string::npos);

  std::ostringstream os3;
  const std::vector<FrontSample> front{{0.5e-3, 4e-12}};
  print_fronts(os3, {{"demo", front}});
  EXPECT_NE(os3.str().find("Load Capacitance"), std::string::npos);
  EXPECT_NE(os3.str().find("demo"), std::string::npos);

  std::ostringstream os4;
  RunOutcome outcome;
  outcome.front = front;
  outcome.front_area = front_area_of(front);
  print_outcome_summary(os4, "demo", outcome);
  EXPECT_NE(os4.str().find("front_area"), std::string::npos);
}

}  // namespace
}  // namespace anadex::expt
