// expt::Job lifecycle: slicing, resume chaining, cancellation, failure —
// and the core contract that a job cut into slices reproduces a solo run
// byte-for-byte.
#include "expt/job.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "common/cancel.hpp"
#include "common/check.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::expt {
namespace {

scint::Spec easy_spec() { return problems::spec_suite().front(); }

RunSettings small_settings() {
  RunSettings s;
  s.algo = Algo::TPG;
  s.spec = easy_spec();
  s.population = 16;
  s.generations = 24;
  s.seed = 11;
  return s;
}

bool same_front(const std::vector<FrontSample>& a, const std::vector<FrontSample>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(FrontSample)) == 0;
}

TEST(JobState, AllNamed) {
  EXPECT_EQ(job_state_name(JobState::Pending), "pending");
  EXPECT_EQ(job_state_name(JobState::Running), "running");
  EXPECT_EQ(job_state_name(JobState::Snapshotted), "snapshotted");
  EXPECT_EQ(job_state_name(JobState::Done), "done");
  EXPECT_EQ(job_state_name(JobState::Failed), "failed");
  EXPECT_EQ(job_state_name(JobState::Cancelled), "cancelled");
}

TEST(Job, RunMatchesFreeFunction) {
  const RunSettings settings = small_settings();
  const RunOutcome direct = run(settings);

  Job job = Job::from_settings(settings);
  EXPECT_EQ(job.state(), JobState::Pending);
  EXPECT_TRUE(job.runnable());
  const RunOutcome via_job = job.run();
  EXPECT_EQ(job.state(), JobState::Done);
  EXPECT_EQ(job.slices_run(), 1u);
  EXPECT_FALSE(job.runnable());

  EXPECT_TRUE(same_front(direct.front, via_job.front));
  EXPECT_EQ(direct.evaluations, via_job.evaluations);
  EXPECT_EQ(direct.generations, via_job.generations);
}

TEST(Job, AdmissionRejectsInvalidSettings) {
  RunSettings settings = small_settings();
  settings.population = 3;  // must be even and >= 4
  EXPECT_THROW(Job::from_settings(settings), PreconditionError);

  const problems::IntegratorProblem problem(easy_spec());
  EXPECT_THROW(Job(problem, settings), PreconditionError);
}

TEST(Job, SlicedRunIsByteIdenticalToSoloRun) {
  const std::string dir = testing::TempDir();
  RunSettings solo = small_settings();
  solo.checkpoint_path = dir + "anadex_job_solo.cp";
  solo.checkpoint_every = 8;
  std::filesystem::remove(solo.checkpoint_path);
  const RunOutcome whole = run(solo);

  RunSettings sliced = solo;
  sliced.checkpoint_path = dir + "anadex_job_sliced.cp";
  std::filesystem::remove(sliced.checkpoint_path);
  Job job = Job::from_settings(sliced);
  ASSERT_TRUE(job.preemptible());
  // 24 generations in 5-generation slices: 4 preemptions, then completion.
  std::size_t slices = 0;
  while (job.state() != JobState::Done) {
    const JobState state = job.run_slice(5);
    ASSERT_TRUE(state == JobState::Snapshotted || state == JobState::Done);
    ++slices;
    ASSERT_LE(slices, 10u) << "job did not converge to Done";
  }
  EXPECT_EQ(slices, 5u);
  EXPECT_EQ(job.slices_run(), 5u);
  EXPECT_EQ(job.generations_done(), solo.generations);

  EXPECT_TRUE(same_front(whole.front, job.outcome().front));
  EXPECT_EQ(whole.evaluations, job.outcome().evaluations);
  EXPECT_EQ(whole.front_area, job.outcome().front_area);
}

TEST(Job, JobWithoutCheckpointHonoursBudget) {
  // No checkpoint path: a budget pauses the run in memory all the same,
  // and the slices add up to the solo run's bytes.
  const RunOutcome whole = run(small_settings());
  Job job = Job::from_settings(small_settings());
  EXPECT_TRUE(job.preemptible());
  EXPECT_EQ(job.run_slice(5), JobState::Snapshotted);
  EXPECT_EQ(job.generations_done(), 5u);
  EXPECT_TRUE(job.outcome().interrupted);
  EXPECT_TRUE(job.runnable());
  std::size_t slices = 1;
  while (job.run_slice(5) == JobState::Snapshotted) {
    ++slices;
    ASSERT_LE(slices, 10u) << "job did not converge to Done";
  }
  EXPECT_EQ(job.state(), JobState::Done);
  EXPECT_EQ(job.slices_run(), 5u);
  EXPECT_EQ(job.generations_done(), small_settings().generations);
  EXPECT_TRUE(same_front(whole.front, job.outcome().front));
  EXPECT_EQ(whole.evaluations, job.outcome().evaluations);
  EXPECT_EQ(whole.front_area, job.outcome().front_area);
}

TEST(Job, CancelBeforeFirstSliceIsImmediate) {
  Job job = Job::from_settings(small_settings());
  job.cancel();
  EXPECT_EQ(job.state(), JobState::Cancelled);
  EXPECT_THROW(job.run_slice(5), PreconditionError);
  job.cancel();  // terminal: no-op
  EXPECT_EQ(job.state(), JobState::Cancelled);
}

TEST(Job, CancelWhileSnapshottedIsImmediate) {
  RunSettings settings = small_settings();
  settings.checkpoint_path = testing::TempDir() + "anadex_job_cancel.cp";
  settings.checkpoint_every = 8;
  std::filesystem::remove(settings.checkpoint_path);
  Job job = Job::from_settings(settings);
  ASSERT_EQ(job.run_slice(5), JobState::Snapshotted);
  EXPECT_TRUE(job.runnable());
  job.cancel();
  EXPECT_EQ(job.state(), JobState::Cancelled);
  EXPECT_FALSE(job.runnable());
}

TEST(Job, CancelDuringRunEndsCancelled) {
  const problems::IntegratorProblem problem(easy_spec());
  RunSettings settings = small_settings();
  settings.checkpoint_path = testing::TempDir() + "anadex_job_runcancel.cp";
  settings.checkpoint_every = 8;
  std::filesystem::remove(settings.checkpoint_path);
  Job* handle = nullptr;
  settings.on_generation = [&handle](std::size_t gen, const moga::Population&) {
    if (gen == 4 && handle != nullptr) handle->cancel();
  };
  Job job(problem, settings);
  handle = &job;
  EXPECT_EQ(job.run_slice(0), JobState::Cancelled);
  EXPECT_LT(job.generations_done(), settings.generations);
}

TEST(Job, StopWithoutCheckpointContinuesInMemory) {
  // A stop without a checkpoint path saves nothing, but the run stays live
  // in memory: once the token is lowered, the next slice finishes it with
  // the solo run's bytes.
  const RunOutcome whole = run(small_settings());
  CancelToken stop;
  RunSettings settings = small_settings();
  settings.stop = &stop;
  settings.on_generation = [&stop](std::size_t gen, const moga::Population&) {
    if (gen == 4) stop.request();
  };
  Job job = Job::from_settings(settings);
  EXPECT_EQ(job.run_slice(0), JobState::Snapshotted);
  EXPECT_EQ(job.generations_done(), 5u);
  EXPECT_TRUE(job.outcome().interrupted);
  EXPECT_TRUE(job.runnable());
  stop.reset();
  EXPECT_EQ(job.run_slice(0), JobState::Done);
  EXPECT_EQ(job.generations_done(), settings.generations);
  EXPECT_TRUE(same_front(whole.front, job.outcome().front));
  EXPECT_EQ(whole.evaluations, job.outcome().evaluations);
  EXPECT_EQ(whole.front_area, job.outcome().front_area);
}

TEST(Job, FailedSliceStoresErrorAndRunRethrows) {
  RunSettings settings = small_settings();
  settings.checkpoint_path =
      testing::TempDir() + "anadex_job_missing_does_not_exist.cp";
  std::filesystem::remove(settings.checkpoint_path);
  settings.resume = ResumeMode::Strict;  // missing file -> run_impl throws
  Job job = Job::from_settings(settings);
  EXPECT_EQ(job.run_slice(5), JobState::Failed);
  EXPECT_FALSE(job.error().empty());
  EXPECT_FALSE(job.runnable());

  Job again = Job::from_settings(settings);
  EXPECT_THROW(again.run(), std::exception);
}

}  // namespace
}  // namespace anadex::expt
