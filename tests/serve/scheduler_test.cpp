// JobScheduler determinism matrix — the serve acceptance criterion:
// interleaved jobs sharing one hub engine and one dedup cache produce
// per-job fronts, evaluation counts and final checkpoints byte-identical
// to solo runs of the same settings, at thread counts {1, 8}, for
// {solo, 2-job, 4-job} interleavings — including a mid-slice stop drill
// that snapshots every job and resumes them all in a fresh scheduler. A
// preempted job stays live in memory, so its gen-level trace and its
// checkpoint writes are the solo run's too.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/check.hpp"
#include "engine/eval_engine.hpp"
#include "obs/event_sink.hpp"
#include "problems/spec_suite.hpp"
#include "robust/checkpoint.hpp"

namespace anadex::serve {
namespace {

scint::Spec easy_spec() { return problems::spec_suite().front(); }

/// The four acceptance jobs: distinct algorithms and seeds, one shared
/// spec, generation counts small enough to keep the matrix fast.
std::vector<expt::RunSettings> matrix_jobs() {
  std::vector<expt::RunSettings> jobs(4);
  for (auto& s : jobs) {
    s.spec = easy_spec();
    s.population = 16;
    s.generations = 36;
    s.partitions = 4;
    s.mesacga_schedule = {4, 2, 1};
    s.phase1_cap = 12;
    s.checkpoint_every = 12;
  }
  jobs[0].algo = expt::Algo::TPG;
  jobs[0].seed = 3;
  jobs[1].algo = expt::Algo::SACGA;
  jobs[1].seed = 5;
  jobs[2].algo = expt::Algo::SPEA2;
  jobs[2].seed = 7;
  jobs[3].algo = expt::Algo::TPG;
  jobs[3].seed = 9;
  return jobs;
}

bool same_front(const std::vector<expt::FrontSample>& a,
                const std::vector<expt::FrontSample>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(expt::FrontSample)) == 0;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string unique_path(const std::string& tag) {
  const std::string path = testing::TempDir() + "anadex_sched_" + tag + ".cp";
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  return path;
}

/// Solo baseline: each job run to completion on a PRIVATE engine.
struct Baseline {
  expt::RunOutcome outcome;
  std::string checkpoint;  ///< final checkpoint file bytes
};

std::vector<Baseline> solo_baselines(std::size_t threads) {
  std::vector<Baseline> baselines;
  const auto jobs = matrix_jobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expt::RunSettings settings = jobs[i];
    settings.threads = threads;
    settings.checkpoint_path =
        unique_path("solo_t" + std::to_string(threads) + "_" + std::to_string(i));
    expt::Job job = expt::Job::from_settings(settings);
    Baseline b;
    b.outcome = job.run();
    b.checkpoint = file_bytes(settings.checkpoint_path);
    baselines.push_back(std::move(b));
  }
  return baselines;
}

void expect_matches_baseline(const expt::Job& job, const Baseline& baseline,
                             const std::string& checkpoint_path,
                             const std::string& label) {
  EXPECT_EQ(job.state(), expt::JobState::Done) << label;
  EXPECT_TRUE(same_front(job.outcome().front, baseline.outcome.front)) << label;
  EXPECT_EQ(job.outcome().evaluations, baseline.outcome.evaluations) << label;
  EXPECT_EQ(job.outcome().front_area, baseline.outcome.front_area) << label;
  EXPECT_EQ(file_bytes(checkpoint_path), baseline.checkpoint)
      << label << ": final checkpoints differ";
}

TEST(JobScheduler, MatrixFrontsAndCheckpointsMatchSolo) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const auto baselines = solo_baselines(threads);
    const auto jobs = matrix_jobs();
    for (const std::size_t fleet : {std::size_t{2}, std::size_t{4}}) {
      engine::EvalEngine hub(threads, nullptr, /*cache_capacity=*/512);
      SchedulerConfig config;
      config.slice_generations = 10;  // off-cycle vs checkpoint_every = 12
      config.hub = &hub;
      JobScheduler scheduler(config);
      std::vector<std::string> paths;
      for (std::size_t i = 0; i < fleet; ++i) {
        expt::RunSettings settings = jobs[i];
        settings.checkpoint_path = unique_path(
            "fleet" + std::to_string(fleet) + "_t" + std::to_string(threads) +
            "_" + std::to_string(i));
        paths.push_back(settings.checkpoint_path);
        scheduler.admit("job" + std::to_string(i), std::move(settings));
      }
      EXPECT_TRUE(scheduler.run_all());
      EXPECT_EQ(scheduler.stats().done, fleet);
      EXPECT_EQ(scheduler.stats().failed, 0u);
      for (std::size_t i = 0; i < fleet; ++i) {
        const std::string label = "threads=" + std::to_string(threads) +
                                  " fleet=" + std::to_string(fleet) +
                                  " job=" + std::to_string(i);
        expect_matches_baseline(scheduler.job(i), baselines[i], paths[i], label);
        // One engine lease per job for its whole life: every evaluation of
        // every slice is accounted as dispatched or served by the cache.
        const expt::RunOutcome& outcome = scheduler.job(i).outcome();
        EXPECT_EQ(outcome.distinct_evaluations + outcome.cache_hits, outcome.evaluations)
            << label;
      }
      // The shared cache actually served cross-batch hits; sharing is real,
      // not a disabled code path.
      EXPECT_GT(hub.stats().requested, 0u);
      EXPECT_GT(hub.busy_batches(), 0u);
    }
  }
}

TEST(JobScheduler, MidSliceStopDrillResumesAllJobs) {
  // The SIGINT drill: raise the service stop token from inside a running
  // generation, let every job snapshot, then resume the whole fleet in a
  // FRESH scheduler (new hub, ResumeMode::Auto) — as a restarted daemon
  // would — and require the solo-identical results anyway.
  const std::size_t threads = 8;
  const auto baselines = solo_baselines(threads);
  const auto jobs = matrix_jobs();
  CancelToken stop;
  std::vector<std::string> paths;
  std::vector<std::size_t> reached;  ///< generations each job ran before the stop

  {
    engine::EvalEngine hub(threads, nullptr, 512);
    SchedulerConfig config;
    config.slice_generations = 10;
    config.hub = &hub;
    config.stop = &stop;
    JobScheduler scheduler(config);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      expt::RunSettings settings = jobs[i];
      settings.checkpoint_path = unique_path("drill_" + std::to_string(i));
      paths.push_back(settings.checkpoint_path);
      settings.stop = &stop;  // the daemon wires every job to the token
      if (i == 1) {
        // "SIGINT" lands mid-slice, between this job's budget boundaries.
        settings.on_generation = [&stop](std::size_t gen, const moga::Population&) {
          if (gen == 14) stop.request();
        };
      }
      scheduler.admit("drill" + std::to_string(i), std::move(settings));
    }
    EXPECT_FALSE(scheduler.run_all());  // interrupted, not all terminal
    EXPECT_FALSE(scheduler.all_terminal());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      reached.push_back(scheduler.job(i).generations_done());
      EXPECT_GT(reached.back(), 0u) << "drill job=" << i;
    }
  }

  // Restart: new hub, new scheduler, same ids and checkpoint chains.
  stop.reset();
  engine::EvalEngine hub(threads, nullptr, 512);
  SchedulerConfig config;
  config.slice_generations = 10;
  config.hub = &hub;
  JobScheduler scheduler(config);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expt::RunSettings settings = jobs[i];
    settings.checkpoint_path = paths[i];
    settings.resume = expt::ResumeMode::Auto;  // pick up the snapshot
    scheduler.admit("drill" + std::to_string(i), std::move(settings));
  }
  EXPECT_TRUE(scheduler.run_all());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_matches_baseline(scheduler.job(i), baselines[i], paths[i],
                            "drill job=" + std::to_string(i));
    // Shutdown wrote every preempted job's state, so none lost generations.
    EXPECT_EQ(scheduler.job(i).outcome().resumed_from_generation, reached[i])
        << "drill job=" << i;
  }
}

/// A matrix job run solo with a gen-level trace, counting the checkpoint
/// writes that land (AfterRename).
struct TracedRun {
  expt::RunOutcome outcome;
  std::string trace;
  std::string checkpoint;
  std::size_t writes = 0;
};

expt::RunSettings traced(expt::RunSettings settings, const std::string& tag,
                         std::size_t* writes) {
  settings.checkpoint_path = unique_path(tag);
  settings.trace_path = testing::TempDir() + "anadex_sched_" + tag + ".trace.jsonl";
  settings.trace_level = obs::TraceLevel::Gen;
  settings.checkpoint_write_hook = [writes](robust::CheckpointWritePhase phase,
                                            const std::string&) {
    if (phase == robust::CheckpointWritePhase::AfterRename) ++*writes;
  };
  return settings;
}

/// `tag` keeps the files of tests that ctest runs in parallel apart.
std::vector<TracedRun> traced_solo_runs(const std::string& tag) {
  std::vector<TracedRun> runs(matrix_jobs().size());
  const auto jobs = matrix_jobs();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const expt::RunSettings settings =
        traced(jobs[i], tag + "_solo_" + std::to_string(i), &runs[i].writes);
    runs[i].outcome = expt::Job::from_settings(settings).run();
    runs[i].trace = file_bytes(settings.trace_path);
    runs[i].checkpoint = file_bytes(settings.checkpoint_path);
  }
  return runs;
}

TEST(JobScheduler, SlicedJobsWriteTheSoloTraceAndCheckpoints) {
  // Slices of 10 against checkpoint_every = 12: a preempted job stays in
  // memory, so it writes only the solo run's cadence checkpoints and one
  // gen-level trace with the solo run's bytes.
  const auto solo = traced_solo_runs("traced");
  const auto jobs = matrix_jobs();
  engine::EvalEngine hub(1, nullptr, 512);
  SchedulerConfig config;
  config.slice_generations = 10;
  config.hub = &hub;
  JobScheduler scheduler(config);
  std::vector<std::size_t> writes(jobs.size(), 0);
  std::vector<expt::RunSettings> admitted;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    admitted.push_back(traced(jobs[i], "traced_served_" + std::to_string(i), &writes[i]));
    scheduler.admit("traced" + std::to_string(i), admitted.back());
  }
  EXPECT_TRUE(scheduler.run_all());
  EXPECT_GT(scheduler.stats().preemptions, 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string label = "job=" + std::to_string(i);
    EXPECT_EQ(scheduler.job(i).state(), expt::JobState::Done) << label;
    EXPECT_TRUE(same_front(scheduler.job(i).outcome().front, solo[i].outcome.front)) << label;
    EXPECT_EQ(file_bytes(admitted[i].trace_path), solo[i].trace)
        << label << ": gen-level traces differ";
    EXPECT_EQ(file_bytes(admitted[i].checkpoint_path), solo[i].checkpoint) << label;
    EXPECT_GT(solo[i].writes, 0u) << label;
    EXPECT_EQ(writes[i], solo[i].writes) << label << ": checkpoint write counts differ";
  }
}

TEST(JobScheduler, JobAdmittedAfterPreemptionMatchesSolo) {
  // Admitting between slices grows the scheduler's job vector while job 0
  // is preempted with its run live in memory; the move must not disturb
  // that run.
  const auto solo = traced_solo_runs("late");
  const auto jobs = matrix_jobs();
  engine::EvalEngine hub(8, nullptr, 512);
  SchedulerConfig config;
  config.slice_generations = 10;
  config.hub = &hub;
  JobScheduler scheduler(config);
  std::vector<std::size_t> writes(jobs.size(), 0);
  std::vector<expt::RunSettings> admitted;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    admitted.push_back(traced(jobs[i], "late_" + std::to_string(i), &writes[i]));
    scheduler.admit("late" + std::to_string(i), admitted.back());
    ASSERT_TRUE(scheduler.step());
    EXPECT_EQ(scheduler.job(0).state(), expt::JobState::Snapshotted) << "after admit " << i;
  }
  EXPECT_TRUE(scheduler.run_all());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string label = "job=" + std::to_string(i);
    const expt::RunOutcome& outcome = scheduler.job(i).outcome();
    EXPECT_EQ(scheduler.job(i).state(), expt::JobState::Done) << label;
    EXPECT_TRUE(same_front(outcome.front, solo[i].outcome.front)) << label;
    EXPECT_EQ(outcome.evaluations, solo[i].outcome.evaluations) << label;
    EXPECT_EQ(outcome.distinct_evaluations + outcome.cache_hits, outcome.evaluations) << label;
    EXPECT_EQ(file_bytes(admitted[i].checkpoint_path), solo[i].checkpoint) << label;
    EXPECT_EQ(file_bytes(admitted[i].trace_path), solo[i].trace) << label;
    EXPECT_EQ(writes[i], solo[i].writes) << label;
  }
}

TEST(JobScheduler, AdmissionRejectsInvalidSettingsWithoutEnqueueing) {
  engine::EvalEngine hub(1, nullptr, 64);
  SchedulerConfig config;
  config.hub = &hub;
  JobScheduler scheduler(config);
  expt::RunSettings bad;
  bad.spec = easy_spec();
  bad.population = 3;  // must be even and >= 4
  EXPECT_THROW(scheduler.admit("bad", std::move(bad)), PreconditionError);
  scheduler.note_rejected();
  EXPECT_EQ(scheduler.size(), 0u);
  EXPECT_EQ(scheduler.stats().admitted, 0u);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  EXPECT_TRUE(scheduler.run_all());  // vacuously: nothing admitted
}

TEST(JobScheduler, SharedDeadlineIsRejectedAtAdmission) {
  // The watchdog belongs to the hub; per-job deadlines are a settings
  // error under a shared handle, reported at admission like any other.
  engine::EvalEngine hub(1, nullptr, 64);
  SchedulerConfig config;
  config.hub = &hub;
  JobScheduler scheduler(config);
  expt::RunSettings settings;
  settings.spec = easy_spec();
  settings.population = 16;
  settings.generations = 8;
  settings.eval_deadline_s = 1.0;
  EXPECT_THROW(scheduler.admit("deadline", std::move(settings)), PreconditionError);
}

TEST(JobScheduler, ContextsFollowAdmissionOrder) {
  engine::EvalEngine hub(1, nullptr, 64);
  SchedulerConfig config;
  config.hub = &hub;
  JobScheduler scheduler(config);
  for (std::size_t i = 0; i < 3; ++i) {
    expt::RunSettings settings;
    settings.spec = easy_spec();
    settings.population = 16;
    settings.generations = 8;
    settings.seed = i + 1;
    scheduler.admit("ctx" + std::to_string(i), std::move(settings));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(scheduler.job(i).settings().engine.engine, &hub);
    EXPECT_EQ(scheduler.job(i).settings().engine.context, i + 1);
    EXPECT_EQ(scheduler.id(i), "ctx" + std::to_string(i));
  }
}

}  // namespace
}  // namespace anadex::serve
