// Experiment harness: uniform configuration, execution and measurement of
// the paper's algorithms (TPG / LocalOnly / SACGA / MESACGA plus the
// Island / WeightedSum / SPEA2 baselines) on the integrator problem, with
// physical-unit fronts and all the paper's quality metrics.
//
// The unit of execution is an expt::Job (expt/job.hpp): validated
// RunSettings + problem with a preemptible lifecycle
// (Pending -> Running -> Snapshotted -> Done/Failed/Cancelled). A job keeps
// its run live in memory between slices (detail::LiveRun below), so
// preempting one writes nothing and a later slice continues exactly where
// the last one paused. The free run() functions below are thin wrappers
// (construct a Job, run it to completion) kept for the existing call
// sites; new code — and the serve scheduler, which time-slices many Jobs
// over one shared EvalEngine — should hold a Job.
//
// This header owns the settings/outcome vocabulary: RunSettings (one
// struct for every algorithm; validate_run_settings rejects nonsense
// before a run starts) and RunOutcome (front + paper metrics + execution
// accounting). How evaluation executes stops here: a run builds its
// evaluation stack once (detail::EvalStack: chaos seam, fault guard,
// watchdog, engine) and the algorithms only borrow its engine through
// their params' EngineHandle. Determinism contract: for fixed settings the
// front, evaluation counts, checkpoints and gen-level traces are
// byte-identical across thread counts, cache capacities, lane modes,
// shared-engine handles and slice boundaries (docs/serve.md,
// docs/engine.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "engine/engine_handle.hpp"
#include "engine/eval_engine.hpp"
#include "moga/metrics.hpp"
#include "moga/nsga2.hpp"
#include "obs/event_sink.hpp"
#include "problems/integrator_problem.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injection.hpp"
#include "robust/guarded_problem.hpp"
#include "sacga/island.hpp"
#include "scint/spec.hpp"

namespace anadex::expt {

/// Which optimizer to run. TPG/SACGA/MESACGA are the paper's three
/// contestants; LocalOnly is §4.3's intermediate; Island and WeightedSum
/// are the alternatives the paper cites in §4.1 / §1, included as extra
/// baselines.
enum class Algo { TPG, LocalOnly, SACGA, MESACGA, Island, WeightedSum, SPEA2 };

std::string algo_name(Algo algo);

/// How a run treats an existing checkpoint chain at `checkpoint_path`.
enum class ResumeMode {
  Off,     ///< ignore any checkpoint; start fresh
  Strict,  ///< resume from checkpoint_path exactly; fail if missing/corrupt
  /// Scan the rotated chain (path, path.1, ...) newest-first, resume from
  /// the first slot that checksum-verifies, and start FRESH when no slot
  /// exists or validates — the crash-recovery default (`--resume auto`).
  Auto,
};

/// Uniform run configuration. Semantics of `generations`:
///   TPG / LocalOnly: total generations;
///   SACGA:           total budget = gen_t (<= phase1_cap) + phase-II span;
///   MESACGA:         phase-I runs up to phase1_cap, then each of the
///                    partition_schedule phases runs `span` generations; if
///                    span == 0 it is derived as
///                    (generations - phase1_cap) / #phases.
/// Every field is classified (META / DIGEST / KNOB / SEAM) in the
/// settings registry — src/expt/settings_registry.hpp is the one table
/// that the config-digest serializer, the CLI wiring, the digest audit
/// (`anadex-lint --digest-audit`) and the perturbation property test all
/// consume. ADD NEW FIELDS THERE TOO, or the build's static check and the
/// lint gate will fail.
struct RunSettings {
  Algo algo = Algo::TPG;
  scint::Spec spec;
  std::size_t population = 100;
  std::size_t generations = 800;
  std::size_t partitions = 8;                 ///< SACGA / LocalOnly
  std::size_t islands = 4;                    ///< Island GA
  std::size_t migration_interval = 25;        ///< Island GA
  std::size_t weight_count = 16;              ///< WeightedSum sweep
  std::vector<std::size_t> mesacga_schedule{20, 13, 8, 5, 3, 2, 1};
  std::size_t phase1_cap = 200;
  std::size_t span = 0;                        ///< MESACGA per-phase span (0 = derive)
  std::uint64_t seed = 1;
  bool record_history = false;
  std::size_t history_stride = 25;             ///< generations between history samples

  // How the run's engine executes (detail::EvalStack builds it). Pure
  // execution knobs: fronts, evaluation counts, traces and checkpoints are
  // byte-identical for every value (docs/engine.md, docs/performance.md).
  /// Evaluation worker threads: 1 = serial on the calling thread, 0 = one
  /// per hardware thread, N = exactly N workers.
  std::size_t threads = 1;
  /// Evaluation memoization: 0 = off, N = dedup duplicate genomes within
  /// each batch and keep the last N distinct evaluations in an LRU. No CLI
  /// flag (`anadex serve --eval-cache` sizes the hub's shared cache).
  std::size_t eval_cache = 0;
  /// Shared-engine lease (anadex serve): empty = the run builds its own
  /// engine; a hub handle makes it evaluate through the hub's worker pool
  /// and cache, and `threads` / `eval_cache` / `batch_eval` are ignored.
  engine::EngineHandle engine;
  /// Batch-to-lane mapping (engine::EvalEngine::set_batch_eval): Auto runs
  /// each batch as lane groups across genomes, Scalar per genome. No CLI
  /// flag; library callers pick Scalar for the reference path.
  engine::BatchEval batch_eval = engine::BatchEval::Auto;

  /// Multi-process sharding (docs/sharding.md): how many worker shards the
  /// island ring is split across. 1 (default) = ordinary in-process run.
  /// Values > 1 are only meaningful for Algo::Island and are executed by
  /// shard::run_sharded (`anadex explore --shards N`); expt::Job rejects
  /// them at admission. Like `threads`, a pure execution knob excluded from
  /// the config digest: fronts, evaluation counts and the final canonical
  /// checkpoint are byte-identical for every shard count.
  std::size_t shards = 1;
  /// Spool directory for the shard exchange (migrant files plus per-shard
  /// checkpoint chains). Empty = derived as "<checkpoint_path>.spool".
  /// Excluded from the config digest (a location, not a result input).
  std::string shard_dir;

  /// Fault-tolerance policy applied to every evaluation (see
  /// robust::GuardedProblem); the defaults retry twice then penalize.
  robust::GuardPolicy guard;

  /// Chaos-harness seam (tests and drills only): when set, the problem is
  /// wrapped in a robust::FaultInjectingProblem with these rates before the
  /// fault guard, so the whole run executes under deterministic evaluator
  /// faults. Unlike the execution knobs this DOES change results, so it
  /// participates in the checkpoint config digest.
  std::optional<robust::FaultInjectionConfig> fault_injection;

  // Checkpoint/resume (docs/robustness.md). Supported for TPG, SPEA2,
  // LocalOnly, SACGA, MESACGA and Island; WeightedSum rejects a checkpoint
  // path.
  std::string checkpoint_path;         ///< empty = no checkpointing
  std::size_t checkpoint_every = 50;   ///< generations between snapshots
  ResumeMode resume = ResumeMode::Off;
  /// Rotated checkpoint slots kept on disk (1 = just checkpoint_path,
  /// N > 1 additionally keeps .1 .. .(N-1)). A pure durability knob —
  /// excluded from the config digest, never changes results.
  std::size_t checkpoint_keep = 1;
  /// Test seam forwarded to robust::write_checkpoint_file (the chaos
  /// harness injects mid-write crashes through it). Empty in production.
  robust::CheckpointWriteHook checkpoint_write_hook;

  // Robustness under faulty or stuck evaluators (docs/robustness.md).
  /// Graceful-stop token (non-owning; e.g. &robust::shutdown_token()).
  /// Polled at every generation barrier: when raised, the run snapshots,
  /// marks the outcome `interrupted` and returns normally.
  const CancelToken* stop = nullptr;
  /// Per-batch evaluation deadline in seconds. Unset = no watchdog. A pure
  /// execution knob (excluded from the config digest); see
  /// engine::EvalWatchdog for the determinism caveat when it fires.
  std::optional<double> eval_deadline_s;

  /// Extra per-generation observer, invoked after the internal history
  /// recorder with the same (generation, population) arguments. Tests use
  /// it to raise `stop` at an exact generation.
  moga::GenerationCallback on_generation;

  // Telemetry (docs/observability.md). When trace_path is non-empty the run
  // streams one JSON object per event to that file. Tracing is pure
  // observation: fronts, evaluation counts and checkpoint bytes are
  // identical with tracing on or off, and gen-level traces are bit-identical
  // across thread counts.
  std::string trace_path;                            ///< empty = no tracing
  obs::TraceLevel trace_level = obs::TraceLevel::Gen;
};

/// Validates `settings` with ANADEX_REQUIRE (population even and >= 4,
/// partition/island counts sane, MESACGA schedule non-empty + strictly
/// decreasing + ending in 1, thread count within [0, 256], history stride
/// positive when history is recorded, checkpoint flags consistent, guard
/// policy fields finite and in range, watchdog deadline positive when set,
/// watchdog absent when a shared engine handle is set). Job admission runs
/// this FIRST — an invalid request is rejected before it can occupy a
/// scheduler slot or start a run; exposed so CLIs and the serve daemon can
/// fail fast and report the rejection instead of aborting.
void validate_run_settings(const RunSettings& settings);

/// One front design in physical units.
struct FrontSample {
  double power_w = 0.0;
  double cload_f = 0.0;
};

/// Metric trajectory sample.
struct HistoryPoint {
  std::size_t generation = 0;
  double front_area = 0.0;   ///< paper metric, 0.1 mW·pF units (lower better)
  std::size_t front_size = 0;
};

/// Per-MESACGA-phase metric (paper Fig 10).
struct PhaseMetric {
  std::size_t phase = 0;
  std::size_t partitions = 0;
  double front_area = 0.0;
};

struct RunOutcome {
  std::vector<FrontSample> front;  ///< final global Pareto front, physical units
  double front_area = 0.0;         ///< paper metric (0.1 mW·pF), lower better
  double hypervolume_norm = 0.0;   ///< standard HV / reference box, higher better
  double clustering_4to5 = 0.0;    ///< fraction of front with C_load in [4, 5] pF
  double load_span_pf = 0.0;       ///< covered C_load extent, pF
  std::size_t evaluations = 0;
  std::size_t distinct_evaluations = 0;  ///< evaluations actually dispatched to the problem
  std::size_t cache_hits = 0;            ///< requests served by the dedup cache (batch + LRU)
  std::size_t generations = 0;
  double seconds = 0.0;            ///< wall-clock of the optimization
  std::vector<HistoryPoint> history;
  std::vector<PhaseMetric> phases;  ///< MESACGA only
  robust::FaultReport faults;      ///< evaluation faults absorbed by the guard
  std::size_t resumed_from_generation = 0;  ///< 0 unless resumed mid-run
  std::string resumed_from_path;   ///< checkpoint slot actually loaded (if any)
  /// True when the stop token ended the run at a generation barrier before
  /// the configured generation count. The front/metrics describe the
  /// stopping point and a checkpoint of it was written (when checkpointing
  /// is on), so the run can be finished later with ResumeMode::Auto.
  bool interrupted = false;
};

/// Paper metric with the reproduction's standard parameters.
double front_area_of(const std::vector<FrontSample>& front);

/// Normalized reference-point hypervolume (higher better) of a front.
double hypervolume_of(const std::vector<FrontSample>& front);

/// Converts a population (internal objectives) to physical front samples.
std::vector<FrontSample> to_front_samples(const moga::Population& front);

/// One-line digest of every result-bearing setting, stored in checkpoint
/// meta so a resume refuses a mismatched configuration. Generated from the
/// DIGEST rows of the settings registry (settings_registry.hpp) in
/// registry order — spec and guard policy included, since resuming under a
/// different spec or fault-handling policy would silently change results.
/// Fields the registry classifies KNOB (threads, eval_cache, batch_eval,
/// engine handle, shards, shard_dir, checkpoint_keep, ...) are
/// deliberately excluded — a run may be checkpointed under one and resumed
/// under another; `anadex-lint --digest-audit` enforces that every field
/// is classified one way or the other. Exposed so the sharded coordinator
/// (src/shard) writes canonical checkpoints with exactly the digest a solo
/// run would.
std::string run_config_digest(const RunSettings& settings);

namespace detail {

/// Island-GA parameters derived from RunSettings — the ONE place the
/// population-to-island split is computed, shared by start_run and the
/// shard worker so both always agree on island sizing.
sacga::IslandParams island_params_from(const RunSettings& settings);

/// One run's evaluation stack, built once from its settings by start_run
/// and by the shard worker: the chaos injector (when fault_injection is
/// set), the fault guard over it, the watchdog token both poll, and the
/// engine they run on — the run's own EvalEngine from threads /
/// eval_cache / batch_eval / eval_deadline_s, or the engine
/// settings.engine names (anadex serve's hub). The evolver borrows the
/// engine through handle().
class EvalStack {
 public:
  /// `sink` receives the run's own engine's batch and totals records.
  EvalStack(std::shared_ptr<const moga::Problem> problem, const RunSettings& settings,
            obs::EventSink* sink);
  EvalStack(const EvalStack&) = delete;  // the engine holds the guard's address
  EvalStack& operator=(const EvalStack&) = delete;

  /// The guard every evaluation goes through; its FaultReport is the run's.
  robust::GuardedProblem& guarded() { return guarded_; }
  /// The engine the run evaluates on: its own, or the hub.
  const engine::EvalEngine& engine() const { return *handle_.engine; }
  /// What the evolver's params.engine is set to.
  const engine::EngineHandle& handle() const { return handle_; }

 private:
  CancelToken cancel_;  ///< raised by the engine's watchdog
  robust::GuardedProblem guarded_;
  std::optional<engine::EvalEngine> owned_;  ///< engaged unless settings.engine is set
  engine::EngineHandle handle_;
};

/// One run in progress, built by start_run and advanced by expt::Job: the
/// evaluation stack, the trace writer, the checkpoint chain's identity and
/// history, and the evolver under its generation driver
/// (moga/generation_driver.hpp). It refers to nothing inside the Job, so a
/// Job can move while its run is live.
class LiveRun {
 public:
  LiveRun() = default;
  LiveRun(const LiveRun&) = delete;  // callbacks inside hold its address
  LiveRun& operator=(const LiveRun&) = delete;
  virtual ~LiveRun() = default;

  /// Runs at most `budget` generations (0 = to the end; WeightedSum always
  /// runs whole) and returns the outcome there, `interrupted` unless the
  /// run finished. Finishing closes the trace with `run_end`, the stop
  /// token with `shutdown` + `run_end`, as in a solo run; a budget pause
  /// writes nothing.
  virtual RunOutcome advance(std::size_t budget) = 0;

  /// Ends the current advance() at the next generation barrier, as an
  /// exhausted budget does. Callable from the on_generation observer.
  virtual void halt() = 0;

  /// Writes the run's state to its checkpoint chain unless the chain
  /// already holds this generation. No-op without a checkpoint path.
  virtual void snapshot() = 0;
};

/// Builds the live run of validated `settings` over `problem`: opens the
/// trace, restores the checkpoint chain per settings.resume and builds the
/// algorithm's step object (evaluating a fresh run's initial population).
std::unique_ptr<LiveRun> start_run(std::shared_ptr<const problems::IntegratorProblem> problem,
                                   const RunSettings& settings);

}  // namespace detail

/// Compatibility shim for pre-Job call sites: validates `settings` into a
/// Job over the caller's problem and runs it to completion (rethrowing the
/// job's failure, returning an `interrupted` outcome when a stop token
/// ended it early — exactly the historical behaviour). Deterministic for
/// fixed settings. New code should construct an expt::Job directly; the
/// scheduler-grade lifecycle (preemption, resume, cancellation) is only
/// reachable there.
RunOutcome run(const problems::IntegratorProblem& problem, const RunSettings& settings);

/// Convenience form of the shim above: builds the problem from
/// settings.spec (Job::from_settings) and runs the Job to completion.
RunOutcome run(const RunSettings& settings);

}  // namespace anadex::expt
