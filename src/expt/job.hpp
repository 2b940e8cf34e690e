// expt::Job — one exploration run as a first-class, preemptible unit of
// work.
//
// A Job binds validated RunSettings to a problem and executes them in
// SLICES: run_slice(budget) runs at most `budget` generations and pauses the
// run at the generation barrier, keeping it live in memory
// (detail::LiveRun) so the next slice continues it without writing or
// reloading anything. A job cut into any number of slices therefore
// produces the front, evaluation count, checkpoint writes and gen-level
// trace of one uninterrupted run of the same settings (the scheduler
// matrix test proves it). The first slice builds the live run.
//
// Lifecycle:
//
//   Pending ──run_slice──> Running ──budget/stop──> Snapshotted ─┐
//      │                      │                          ^       │
//      │                      ├── completes ──> Done     └─run_slice
//      │                      └── throws ─────> Failed
//      └──cancel──> Cancelled  (also from Snapshotted; a Running job
//                               cancels at its next generation barrier)
//
// Admission is where validation happens: the constructors run
// validate_run_settings and throw PreconditionError on bad settings, so an
// invalid request can never occupy a scheduler slot — the serve daemon
// reports the rejection in the job's result file instead of aborting.
//
// Jobs are movable (the scheduler keeps them in a vector) but not
// copyable: a job owns its live run, which sits on the heap and refers to
// nothing inside the Job, and its identity on disk (the checkpoint chain
// and trace file named in its settings).
#pragma once

#include <cstddef>
#include <exception>
#include <memory>
#include <string>

#include "expt/runner.hpp"
#include "problems/integrator_problem.hpp"

namespace anadex::expt {

/// Where a Job is in its lifecycle. Stored values are stable (serialized
/// into serve result files), so new states must be appended.
enum class JobState {
  Pending,      ///< admitted, no slice run yet
  Running,      ///< a slice is executing right now
  Snapshotted,  ///< paused or stopped at a barrier; the run stays live in memory
  Done,         ///< ran its full generation budget; outcome() is final
  Failed,       ///< a slice threw; error() / rethrow via run()
  Cancelled,    ///< cancel() observed; the job will not run again
};

std::string job_state_name(JobState state);

/// A preemptible exploration run: validated settings + problem + lifecycle.
class Job {
 public:
  /// Admits a job over a caller-owned problem (kept by reference; must
  /// outlive the job). Throws PreconditionError on invalid settings.
  Job(const problems::IntegratorProblem& problem, RunSettings settings);

  /// Admits a job that owns its problem, built from settings.spec — the
  /// form the serve daemon and the run(settings) shim use. Throws
  /// PreconditionError on invalid settings.
  static Job from_settings(RunSettings settings);

  ~Job();
  Job(Job&&) noexcept;
  Job& operator=(Job&&) noexcept;
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  JobState state() const { return state_; }
  const RunSettings& settings() const { return settings_; }

  const problems::IntegratorProblem& problem() const { return *problem_; }

  /// True when a slice budget can pause the job mid-run. Every algorithm
  /// but WeightedSum, which runs whole in its first slice.
  bool preemptible() const { return settings_.algo != Algo::WeightedSum; }

  /// True when run_slice may be called: Pending or Snapshotted.
  bool runnable() const {
    return state_ == JobState::Pending || state_ == JobState::Snapshotted;
  }

  /// Runs at most `budget` generations (0 = unlimited) and returns the
  /// resulting state. The first slice builds the live run; a budget pause
  /// leaves it in memory (state Snapshotted) and the next slice continues
  /// it. A raised settings.stop token ends the slice at the next barrier
  /// with an off-cycle checkpoint, as in a solo run; a pending cancel()
  /// ends it there too. Callable only in Pending or Snapshotted.
  JobState run_slice(std::size_t budget);

  /// Runs the job to completion (one unlimited slice) and returns the
  /// final outcome; rethrows the original exception if the slice failed.
  /// This is exactly the historical expt::run behaviour, including the
  /// `interrupted` outcome when settings.stop ends the run early.
  RunOutcome run();

  /// Requests cancellation: Pending/Snapshotted jobs flip to Cancelled
  /// immediately (and permanently); a Running job observes the request at
  /// its next generation barrier. Terminal states are unaffected.
  void cancel();

  /// Writes a Snapshotted job's state to its checkpoint chain unless the
  /// chain already holds that generation, so a later process resumes it
  /// there (ResumeMode::Auto). No-op without a checkpoint path or a live
  /// run. The scheduler calls it for every job at shutdown.
  void snapshot();

  /// Outcome of the most recent slice. For Done jobs this is the final
  /// result; for Snapshotted jobs it describes the pausing point (front,
  /// metrics, cumulative generations/evaluations, `interrupted` set).
  /// Meaningless before the first slice.
  const RunOutcome& outcome() const { return outcome_; }

  /// Generations completed across all slices (cumulative through resume).
  std::size_t generations_done() const { return outcome_.generations; }

  /// Slices executed so far (including a failed one).
  std::size_t slices_run() const { return slices_run_; }

  /// Failed jobs: what() of the slice's exception. Empty otherwise.
  const std::string& error() const { return error_; }

 private:
  // Owned in shared_ptr form so Job stays movable and the non-owning
  // constructor can alias the caller's problem (empty deleter idiom). The
  // live run holds its own copy of this pointer.
  std::shared_ptr<const problems::IntegratorProblem> problem_;
  RunSettings settings_;
  JobState state_ = JobState::Pending;
  /// The run between slices: built by the first slice, released when the
  /// job reaches a terminal state.
  std::unique_ptr<detail::LiveRun> live_;
  RunOutcome outcome_;
  std::size_t slices_run_ = 0;
  bool cancel_requested_ = false;
  std::string error_;
  std::exception_ptr error_ptr_;
};

}  // namespace anadex::expt
