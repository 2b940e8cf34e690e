// serve::JobScheduler — fair round-robin time-slicing of many expt::Jobs
// over one shared EvalEngine.
//
// The scheduler owns an ordered list of admitted jobs and advances them one
// SLICE at a time: a slice is `slice_generations` generations of one job,
// enforced at the generation barrier through Job::run_slice — never wall
// clock, so for a fixed admission order the whole interleaving is a pure
// function of the settings and is reproducible run-to-run. A preempted job
// keeps its run live in memory and the next slice continues it, so each
// job's front, evaluation count, checkpoints and gen-level trace are
// byte-identical to a solo run of the same settings
// (tests/serve/scheduler_test.cpp runs the {solo, 2-job, 4-job} x threads
// {1, 8} matrix).
//
// Sharing: when SchedulerConfig.hub is set, admit() stamps each job's
// settings with EngineHandle{hub, ordinal + 1} so every evaluation flows
// through the hub's worker pool and its context-partitioned dedup cache
// (contexts keep jobs from ever seeing each other's results — sharing is
// capacity, not data). With no hub each job builds private engines, which
// is how the solo path has always run.
//
// Threading: the scheduler itself is single-threaded — admit and run from
// one thread; parallelism lives inside the engine. Service shutdown is the
// `stop` token: run_all() returns between slices when it is raised, after
// shutdown() has written every preempted job's state once, so the next
// daemon start resumes each job at the generation it reached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "engine/eval_engine.hpp"
#include "expt/job.hpp"
#include "obs/event_sink.hpp"

namespace anadex::serve {

struct SchedulerConfig {
  /// Generations each job runs per slice (the fairness quantum). Must be
  /// >= 1. WeightedSum jobs ignore it and run whole in their first slice.
  std::size_t slice_generations = 25;
  /// Shared evaluation hub (engine::EvalEngine in hub mode), or nullptr for
  /// private per-job engines. Non-owning; must outlive the scheduler.
  engine::EvalEngine* hub = nullptr;
  /// Service shutdown token (non-owning). Checked between slices by
  /// run_all(); a raised token stops scheduling after the current slice,
  /// which itself stops at its next generation barrier when the job's
  /// settings.stop is the same token (as the serve daemon sets it).
  const CancelToken* stop = nullptr;
  /// Service-level telemetry (job_admitted / job_slice events); may be null.
  obs::EventSink* sink = nullptr;
};

/// Service-level counters, exported into the daemon's stats snapshot.
struct ServiceStats {
  std::uint64_t admitted = 0;    ///< jobs that passed admission
  std::uint64_t rejected = 0;    ///< requests refused at admission/parse
  std::uint64_t slices = 0;      ///< run_slice calls issued
  std::uint64_t preemptions = 0; ///< slices that ended Snapshotted
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
};

class JobScheduler {
 public:
  explicit JobScheduler(SchedulerConfig config);

  /// Admits a job: stamps the settings with the shared-engine handle
  /// (context = admission ordinal + 1) and validates them through
  /// Job::from_settings. Throws PreconditionError on invalid settings —
  /// the caller reports the rejection (and calls note_rejected()); nothing
  /// is enqueued. Returns the job's slot index. Admission order defines
  /// both cache-context assignment and round-robin order, so a fixed
  /// request sequence yields a fully deterministic schedule.
  std::size_t admit(std::string id, expt::RunSettings settings);

  /// Records a request that failed parse/admission (stats only).
  void note_rejected() { ++stats_.rejected; }

  /// Runs one slice of the next runnable job in round-robin order.
  /// Returns false when no job is runnable (all terminal, stuck, or none
  /// admitted) — it does NOT consult the stop token; run_all() owns that.
  bool step();

  /// Round-robins slices until no job is runnable or the stop token is
  /// raised (then calls shutdown()). Returns true when every admitted job
  /// reached a terminal state (Done / Failed / Cancelled).
  bool run_all();

  /// Writes every preempted job's state to its checkpoint chain, unless the
  /// chain already holds that generation (Job::snapshot): what a restarted
  /// daemon resumes from.
  void shutdown();

  std::size_t size() const { return slots_.size(); }
  const std::string& id(std::size_t slot) const { return slots_[slot].id; }
  expt::Job& job(std::size_t slot) { return slots_[slot].job; }
  const expt::Job& job(std::size_t slot) const { return slots_[slot].job; }

  bool all_terminal() const;
  const ServiceStats& stats() const { return stats_; }

 private:
  void run_one(std::size_t slot);

  struct Slot {
    std::string id;
    expt::Job job;
  };

  SchedulerConfig config_;
  std::vector<Slot> slots_;
  std::size_t cursor_ = 0;  ///< next slot considered by step()
  ServiceStats stats_;
};

}  // namespace anadex::serve
