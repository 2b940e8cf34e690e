// EvalEngine — the batch evaluation seam between the evolvers and a
// Problem, with an optional fixed-size worker pool behind it.
//
// Every algorithm in the library evaluates offspring through one of these
// per run: it collects a generation's genomes into a single
// evaluate_batch() call instead of looping Problem::evaluate(), which is
// the API future scaling work (sharding, async islands, remote evaluators,
// surrogate caching) plugs into.
//
// Determinism contract: results are written by ITEM INDEX, never by
// completion order, and a Problem must be deterministic per genome, so a
// batch produces bit-identical Evaluations for every thread count —
// threads = 1 (the calling thread alone), threads = N, and threads = 0
// (one per hardware thread) all agree. If items throw, the
// exception of the lowest-index faulting item is rethrown once the batch
// has been fully attempted, again independent of scheduling. See
// docs/engine.md.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "engine/eval_cache.hpp"
#include "engine/simd/lane_evaluator.hpp"
#include "moga/individual.hpp"
#include "moga/problem.hpp"
#include "obs/event_sink.hpp"

namespace anadex::engine {

/// One candidate genome, as submitted for evaluation.
using Genome = std::vector<double>;

/// Most evaluation threads one engine runs, the calling thread included
/// (`threads` = 0, one per hardware thread, is resolved without this cap).
inline constexpr std::size_t kMaxThreads = 256;

/// Stuck-evaluation watchdog configuration for an EvalEngine. When enabled,
/// the engine arms a wall-clock deadline on `token` around every batch, so
/// the token reads as requested once the batch outlives it; no thread is
/// involved. Cooperative evaluators (and GuardedProblem, which
/// fail-fast-penalizes once the token is up) then drain the rest of the
/// batch in microseconds, returning control to the generation barrier
/// where the run can snapshot.
///
/// This is a pure EXECUTION knob, like `threads` and `eval_cache`: it is
/// excluded from the checkpoint config digest, and when the deadline never
/// fires, results are bit-identical with the watchdog on or off. When it
/// DOES fire, which items get penalized depends on wall-clock scheduling —
/// a fired watchdog trades determinism for liveness, and the run's fault
/// report says so (`timeouts` counter, `fault` trace event).
struct EvalWatchdog {
  /// Armed (non-owning) around every batch and reset by the engine once
  /// that batch has drained. Must outlive the engine.
  CancelToken* token = nullptr;
  /// Per-batch wall-clock budget. A null `token` disables the watchdog;
  /// with a token set, the engine requires this to be finite and positive.
  double deadline_s = 0.0;

  bool enabled() const { return token != nullptr && deadline_s > 0.0; }
};

/// Batch evaluator over a moga::Problem: the submitting thread works each
/// batch beside an owned fixed-size pool of threads - 1 workers. The
/// problem must be safe to evaluate from several threads concurrently (the
/// library's problems are stateless; GuardedProblem synchronizes its fault
/// accounting internally).
///
/// An engine is either BOUND (constructed over one problem — the classic
/// per-run shape) or a HUB (constructed without a problem): a hub serves
/// many clients through evaluate_members_as(), each naming its own problem
/// and a cache `context` word per batch, so `anadex serve` can multiplex
/// every job over one worker pool and one dedup cache. Batches are
/// serialized by the submitting caller either way — the engine supports
/// one in-flight batch at a time.
class EvalEngine final {
 public:
  /// `threads`: N = the calling thread plus N - 1 pool workers (1 = the
  /// calling thread alone, no pool), 0 = one per hardware thread; at most
  /// kMaxThreads, checked before any thread starts.
  /// `sink` (non-owning, may be nullptr): when enabled at TraceLevel::Eval,
  /// every batch records a timed "batch" event — size, submit-to-done wall
  /// time, queue wait, per-item latency min/mean/max and worker utilization
  /// — and destruction records an "eval_engine" totals event. Tracing never
  /// changes results; with no sink the hot path pays one pointer test.
  /// `cache_capacity`: 0 (default) disables memoization entirely — the
  /// exact pre-cache code path. N > 0 enables duplicate elimination: each
  /// distinct genome in a batch is dispatched once and the result fanned
  /// out to its clones by item index, plus a cross-batch LRU retaining the
  /// last N distinct evaluations. Because a Problem is a pure function of
  /// the genome, every result is bit-identical with the cache on or off
  /// (see docs/performance.md).
  /// `watchdog`: stuck-evaluation deadline; disabled by default (batches
  /// then pay nothing).
  explicit EvalEngine(const moga::Problem& problem, std::size_t threads = 1,
                      obs::EventSink* sink = nullptr, std::size_t cache_capacity = 0,
                      EvalWatchdog watchdog = {});

  /// Hub form: no bound problem. Every batch must arrive through
  /// evaluate_members_as(), which names the problem to evaluate and the
  /// cache context that keeps different clients' designs from aliasing.
  /// The problem-bound entry points (evaluate_batch / evaluate /
  /// problem()) are precondition violations on a hub.
  explicit EvalEngine(std::size_t threads, obs::EventSink* sink = nullptr,
                      std::size_t cache_capacity = 0, EvalWatchdog watchdog = {});

  ~EvalEngine();

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  /// True when constructed without a bound problem (the shared-hub form).
  bool is_hub() const { return problem_ == nullptr; }

  const moga::Problem& problem() const;

  /// Effective thread count, the calling thread included (after resolving
  /// 0 to the hardware).
  std::size_t threads() const { return threads_; }

  /// LRU entry capacity the engine was built with (0 = memoization off).
  std::size_t cache_capacity() const { return cache_ ? cache_->capacity() : 0; }

  /// The watchdog configuration the engine was built with.
  const EvalWatchdog& watchdog() const { return watchdog_; }

  /// Selects how batches are mapped onto a LaneEvaluator-capable problem.
  /// A pure EXECUTION setting like `threads` and the cache: excluded from
  /// the checkpoint config digest, and results are bit-identical in both
  /// modes (the lane path is the scalar model transliterated, see
  /// docs/performance.md). Auto (default) runs every batch of two or more
  /// items as lane groups whenever the problem supports them, narrowing the
  /// groups so each pool worker gets one; Scalar, the reference path, never
  /// uses lanes. Problems without lane support run per item in both modes.
  /// Call between batches only (not concurrently with an in-flight batch).
  void set_batch_eval(BatchEval mode) { batch_eval_ = mode; }
  BatchEval batch_eval() const { return batch_eval_; }

  /// Lane-path accounting across the engine's lifetime: groups dispatched
  /// through LaneEvaluator::evaluate_lanes, items inside those groups, and
  /// groups that threw and were re-run item-by-item on the scalar path.
  std::uint64_t lane_groups() const { return lane_groups_.load(std::memory_order_relaxed); }
  std::uint64_t lane_items() const { return lane_items_.load(std::memory_order_relaxed); }
  std::uint64_t lane_fallbacks() const {
    return lane_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Number of batches whose deadline expired (watchdog enabled only).
  std::size_t watchdog_fires() const { return watchdog_fires_; }

  /// Cumulative requested/distinct/cache-hit accounting across the
  /// engine's lifetime. `requested` always counts submitted items, so the
  /// paper's evaluation-budget figures stay honest whether or not the
  /// cache absorbed any of them. On a hub this aggregates every client.
  const EvalStats& stats() const { return stats_; }

  /// Batches dispatched over the engine's lifetime.
  std::uint64_t busy_batches() const { return busy_batches_; }

  /// Wall-clock seconds the engine spent inside batch dispatch, summed
  /// over its lifetime. With the service's elapsed time this yields the
  /// engine-utilization figure in the serve stats snapshot; it is
  /// measurement only and never feeds back into results.
  double busy_seconds() const { return busy_seconds_; }

  /// Fills out[i] with the evaluation of genomes[i] under the bound
  /// problem. The spans must be the same size.
  void evaluate_batch(std::span<const Genome> genomes,
                      std::span<moga::Evaluation> out) const;

  /// Batch-evaluates `members[i].genes` into `members[i].eval` under
  /// `problem`, filing cache entries under `context` so two clients with
  /// different problems can never alias identical genes. When `client` is
  /// non-null the batch's requested/evaluated/hit deltas are accumulated
  /// into it as well as the engine totals. Works on bound engines too
  /// (EngineLease routes both forms through here).
  void evaluate_members_as(const moga::Problem& problem, std::uint64_t context,
                           std::span<moga::Individual> members,
                           EvalStats* client = nullptr) const;

  /// The single-item path: a checked evaluation of one genome, identical
  /// to Problem::evaluated(). One-off call sites (CLIs, archives, tests)
  /// route through here so the engine is the only evaluation entry point.
  moga::Evaluation evaluate(std::span<const double> genes) const;

  /// Maps the user-facing `threads` knob to a worker count:
  /// 0 -> hardware_concurrency (at least 1), otherwise unchanged.
  static std::size_t resolve_threads(std::size_t requested);

 private:
  /// One unit of batch work: a genome to evaluate and where the result goes.
  struct Item {
    const Genome* genes = nullptr;
    moga::Evaluation* out = nullptr;
  };

  /// The cache layer: dedups `items`, dispatches the distinct misses
  /// through run_batch under `problem` and fans results out by item index.
  /// With the cache disabled this forwards straight to run_batch. Cache
  /// keys are salted with `context`; `client` (optional) receives the
  /// batch's stats deltas alongside the engine totals.
  void submit(const moga::Problem& problem, std::uint64_t context,
              std::span<const Item> items, EvalStats* client) const;
  /// Evaluates `items` on the calling thread and the pool, then rethrows
  /// the lowest-index item's exception, if any.
  void run_batch(std::span<const Item> items) const;
  /// Evaluates items_[index], recording the lowest-index exception.
  void process_item(std::size_t index) const;
  /// Evaluates the `count` items starting at items_[start]: through the
  /// batch's LaneEvaluator when one is active (falling back to per-item
  /// scalar evaluation if the group throws), item-by-item otherwise.
  void process_group(std::size_t start, std::size_t count) const;
  /// Claims lane groups of the current batch until none is left; the
  /// submitting thread and every pool worker run this same loop.
  void claim_groups() const;
  void worker_loop();
  /// Folds the per-item clocks of the finished batch into one timed
  /// "batch" event (eval level only).
  void emit_batch_event(std::size_t size, double wall_seconds) const;

  const moga::Problem* problem_ = nullptr;  ///< null on a hub engine
  std::size_t threads_ = 1;
  obs::EventSink* sink_ = nullptr;

  // Memoization (null when cache_capacity == 0). The cache and the stats
  // are only touched from the batch-submitting thread — dedup happens
  // before dispatch and fan-out after the batch barrier — so the counters
  // need no atomics. busy_* follow the same discipline (written only in
  // run_batch on the submitting thread).
  mutable std::unique_ptr<EvalCache> cache_;
  mutable EvalStats stats_;
  mutable std::uint64_t busy_batches_ = 0;
  mutable double busy_seconds_ = 0.0;

  // Batch hand-off state. The caller publishes a batch under `mu_`, claims
  // groups itself, then waits on `batch_done_` for the workers still
  // inside; everyone claims items via the atomic cursor and writes results
  // by index. Workers join only while `batch_open_`, and the caller closes
  // the batch under `mu_` once active_ == 0, so `item_count_`/`items_`
  // only change while every worker is idle and workers may read them
  // lock-free during a batch.
  mutable std::mutex mu_;
  mutable std::condition_variable work_ready_;
  mutable std::condition_variable batch_done_;
  /// The problem the CURRENT batch evaluates against. Published under the
  /// same discipline as `items_` (written before release, stable while any
  /// worker is active); equals `problem_` on a bound engine and the
  /// caller-supplied problem on a hub.
  mutable const moga::Problem* batch_problem_ = nullptr;
  /// Lane evaluator of the CURRENT batch (null = scalar), and the group
  /// width workers claim by (the preferred width, narrowed so each worker
  /// gets a group). Published with `items_` under the same discipline;
  /// re-discovered per batch (hubs switch problems per batch).
  mutable const LaneEvaluator* lanes_ = nullptr;
  mutable std::size_t lane_width_ = 1;
  mutable const Item* items_ = nullptr;
  mutable std::size_t item_count_ = 0;
  mutable std::atomic<std::size_t> next_item_{0};
  mutable std::atomic<std::size_t> completed_{0};
  mutable std::size_t active_ = 0;        ///< pool workers inside the current batch
  mutable std::uint64_t batch_seq_ = 0;   ///< bumped per published batch
  mutable bool batch_open_ = false;       ///< workers may still join the batch
  mutable std::exception_ptr first_error_;
  mutable std::size_t first_error_index_ = 0;
  BatchEval batch_eval_ = BatchEval::Auto;
  mutable std::atomic<std::uint64_t> lane_groups_{0};
  mutable std::atomic<std::uint64_t> lane_items_{0};
  mutable std::atomic<std::uint64_t> lane_fallbacks_{0};
  bool stopping_ = false;
  std::vector<std::thread> workers_;  ///< threads_ - 1 pool workers

  // The watchdog is its token: run_batch arms the deadline on it and, once
  // the batch has drained, counts a passed deadline and resets it. The
  // fire count is touched only by the submitting thread.
  EvalWatchdog watchdog_;
  mutable std::size_t watchdog_fires_ = 0;

  // Batch timing (populated only when sink_ is enabled at eval level).
  // `trace_timing_` and the per-item clock arrays follow the same
  // publication discipline as `items_`: written under `mu_` before a batch
  // is released, each slot then written by exactly one claimant (by item
  // index), read by the caller only after the batch barrier.
  mutable bool trace_timing_ = false;
  mutable std::chrono::steady_clock::time_point trace_submit_;
  mutable std::vector<double> trace_start_s_;  ///< per-item start, s after submit
  mutable std::vector<double> trace_dur_s_;    ///< per-item evaluate duration, s
  mutable std::uint64_t trace_batches_ = 0;
  mutable std::uint64_t trace_items_ = 0;
  mutable std::uint64_t trace_requested_ = 0;   ///< items submitted this batch
  mutable std::uint64_t trace_cache_hits_ = 0;  ///< LRU hits this batch
};

}  // namespace anadex::engine
