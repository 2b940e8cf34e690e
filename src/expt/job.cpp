#include "expt/job.hpp"

#include <utility>

#include "common/check.hpp"

namespace anadex::expt {

std::string job_state_name(JobState state) {
  switch (state) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Snapshotted: return "snapshotted";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  ANADEX_ASSERT(false, "unknown job state");
  return {};
}

Job::Job(const problems::IntegratorProblem& problem, RunSettings settings)
    : problem_(std::shared_ptr<void>(), &problem), settings_(std::move(settings)) {
  validate_run_settings(settings_);
  // A Job is one process's run; the multi-process path has its own
  // coordinator. Reject at admission so `--shards` can never be silently
  // ignored by a code path that only knows how to run solo.
  ANADEX_REQUIRE(settings_.shards <= 1,
                 "Job: sharded runs (shards > 1) are executed by "
                 "shard::run_sharded (anadex explore --shards), not by an "
                 "in-process Job");
}

Job::~Job() = default;
Job::Job(Job&&) noexcept = default;
Job& Job::operator=(Job&&) noexcept = default;

Job Job::from_settings(RunSettings settings) {
  // Validate BEFORE building the problem: admission must reject bad
  // settings without doing any work on their behalf.
  validate_run_settings(settings);
  auto problem = std::make_shared<const problems::IntegratorProblem>(settings.spec);
  Job job(*problem, std::move(settings));
  job.problem_ = std::move(problem);  // transfer ownership into the job
  return job;
}

void Job::cancel() {
  switch (state_) {
    case JobState::Pending:
    case JobState::Snapshotted:
      state_ = JobState::Cancelled;
      live_.reset();
      [[fallthrough]];
    case JobState::Running:
      cancel_requested_ = true;
      if (live_ != nullptr) live_->halt();
      return;
    case JobState::Done:
    case JobState::Failed:
    case JobState::Cancelled:
      return;  // terminal; nothing to cancel
  }
}

JobState Job::run_slice(std::size_t budget) {
  ANADEX_REQUIRE(runnable(), "Job::run_slice: job is " + job_state_name(state_) +
                                 ", not runnable");
  state_ = JobState::Running;
  ++slices_run_;
  try {
    if (live_ == nullptr) live_ = detail::start_run(problem_, settings_);
    outcome_ = live_->advance(budget);
  } catch (...) {
    error_ptr_ = std::current_exception();
    try {
      std::rethrow_exception(error_ptr_);
    } catch (const std::exception& e) {
      error_ = e.what();
    } catch (...) {
      error_ = "unknown error";
    }
    state_ = JobState::Failed;
    live_.reset();
    return state_;
  }

  if (!outcome_.interrupted) {
    state_ = JobState::Done;
  } else if (cancel_requested_) {
    state_ = JobState::Cancelled;
  } else {
    state_ = JobState::Snapshotted;
    return state_;
  }
  live_.reset();
  return state_;
}

void Job::snapshot() {
  if (state_ == JobState::Snapshotted && live_ != nullptr) live_->snapshot();
}

RunOutcome Job::run() {
  run_slice(0);
  if (state_ == JobState::Failed) std::rethrow_exception(error_ptr_);
  return outcome_;
}

}  // namespace anadex::expt
