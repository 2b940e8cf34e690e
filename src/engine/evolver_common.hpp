// Knobs shared by every evolver's parameter struct.
//
// Each algorithm's *Params embeds these by inheritance
// (`struct Nsga2Params : engine::EvolverCommon<Nsga2State>`), so call sites
// keep writing `params.seed = ...` while generic code — expt::run's
// checkpoint wiring, the determinism test matrix — can operate on any
// algorithm through one `EvolverCommon<State>&`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/cancel.hpp"
#include "engine/eval_knobs.hpp"
#include "moga/individual.hpp"
#include "obs/event_sink.hpp"

namespace anadex::engine {

/// Computes the hypervolume of a (front) population for the per-generation
/// trace record. Problem-specific (needs a reference box), so the expt
/// layer supplies it; evolvers only forward.
using TraceHypervolume = std::function<double(const moga::Population&)>;

/// Observability wiring shared by every evolver, including WeightedSum
/// (which has no resumable state and therefore no EvolverCommon base).
/// Tracing is pure observation: it draws nothing from the RNG and mutates
/// no algorithm state, so fronts, evaluation counts and checkpoints are
/// byte-identical whether a sink is attached or not.
struct ObsConfig {
  /// Non-owning event destination; nullptr (the default) disables all
  /// telemetry at the cost of one pointer test per instrumentation site.
  obs::EventSink* sink = nullptr;

  /// Optional hypervolume metric added to each per-generation record.
  TraceHypervolume trace_hypervolume;
};

/// Configuration common to every evolver: the RNG seed, the pure execution
/// knobs (the engine::EvalKnobs base: threads / eval_cache / engine /
/// batch_eval), the checkpoint/resume hooks and the telemetry sink.
/// `State` is the algorithm's resumable-state type (e.g. moga::Nsga2State).
template <class State>
struct EvolverCommon : ObsConfig, EvalKnobs {
  std::uint64_t seed = 1;

  // Checkpoint/resume (see robust/checkpoint.hpp for the file format).
  /// Call on_snapshot every this many generations (0 disables).
  std::size_t snapshot_every = 0;
  std::function<void(const State&)> on_snapshot;
  /// When set, skip initialization and continue from this state. The state
  /// must come from a run with identical params; seed is ignored in favour
  /// of the stored RNG state. Read once, when the evolver is built.
  const State* resume = nullptr;

  // Graceful shutdown + stuck-eval watchdog (see docs/robustness.md).
  /// Non-owning stop-request token (e.g. robust::shutdown_token()). Checked
  /// once per generation at the barrier (moga/generation_driver.hpp): when
  /// raised, the run snapshots (if on_snapshot is set), marks its result
  /// `interrupted` and returns. Stopping never consumes randomness, so a
  /// resumed run replays the remaining generations bit-identically.
  const CancelToken* stop = nullptr;

  /// Per-batch evaluation deadline in seconds (0 = no watchdog). Requires
  /// `eval_cancel`. A pure execution knob — excluded from config digests —
  /// but NOTE: a deadline that actually fires penalizes whichever items were
  /// still pending, which depends on wall-clock scheduling.
  double eval_deadline_s = 0.0;
  /// Token the watchdog raises and cooperative evaluators poll. Must also
  /// be handed to the GuardedProblem wrapping the evaluator (non-owning).
  CancelToken* eval_cancel = nullptr;
};

}  // namespace anadex::engine
