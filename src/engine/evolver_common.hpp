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
#include "engine/engine_handle.hpp"
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

/// Configuration common to every evolver: the RNG seed, the engine it
/// borrows, the checkpoint/resume hooks and the telemetry sink. `State` is
/// the algorithm's resumable-state type (e.g. moga::Nsga2State).
template <class State>
struct EvolverCommon : ObsConfig {
  std::uint64_t seed = 1;

  /// The engine every batch goes through (engine/engine_lease.hpp). Empty
  /// (the default) = a private serial EvalEngine; expt::start_run points it
  /// at the run's own engine or at the serve hub, which carry the run's
  /// threads, cache, lane mode and watchdog. Which engine evaluates never
  /// changes results (docs/engine.md).
  EngineHandle engine;

  // Checkpoint/resume (see robust/checkpoint.hpp for the file format).
  /// Call on_snapshot every this many generations (0 disables).
  std::size_t snapshot_every = 0;
  std::function<void(const State&)> on_snapshot;
  /// When set, skip initialization and continue from this state. The state
  /// must come from a run with identical params; seed is ignored in favour
  /// of the stored RNG state. Read once, when the evolver is built.
  const State* resume = nullptr;

  // Graceful shutdown (see docs/robustness.md).
  /// Non-owning stop-request token (e.g. robust::shutdown_token()). Checked
  /// once per generation at the barrier (moga/generation_driver.hpp): when
  /// raised, the run snapshots (if on_snapshot is set), marks its result
  /// `interrupted` and returns. Stopping never consumes randomness, so a
  /// resumed run replays the remaining generations bit-identically.
  const CancelToken* stop = nullptr;
};

}  // namespace anadex::engine
