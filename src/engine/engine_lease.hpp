// EngineLease — the evolvers' evaluation front over a borrowed engine.
//
// Each algorithm constructs one lease per run from (problem, EngineHandle,
// sink). The handle names the engine the run evaluates on: expt::start_run
// hands every run its own engine (built from the run's settings) or the
// serve hub, so the run's threads, cache, lane mode and watchdog never
// reach the algorithm. An empty handle — a direct library call — makes the
// lease own a serial EvalEngine reporting to `sink`. Either way every batch
// goes through EvalEngine::evaluate_members_as under the handle's cache
// context, and the lease accumulates this run's EvalStats, so per-run
// requested/distinct/hit accounting stays exact even when a hub aggregates
// every job. Batches are serialized by the caller; the serve scheduler runs
// one job slice at a time, so a hub only ever sees one in-flight batch.
#pragma once

#include <optional>
#include <span>

#include "engine/engine_handle.hpp"
#include "engine/eval_engine.hpp"
#include "moga/individual.hpp"
#include "moga/problem.hpp"
#include "obs/event_sink.hpp"

namespace anadex::engine {

/// One run's evaluation seam over a borrowed (or, unborrowed, private
/// serial) engine.
class EngineLease {
 public:
  /// `handle` empty: owns an EvalEngine(problem, 1, sink). Otherwise
  /// borrows `handle.engine`, which must outlive the lease; `sink` is then
  /// unused (the engine reports to its own).
  EngineLease(const moga::Problem& problem, const EngineHandle& handle,
              obs::EventSink* sink);

  EngineLease(const EngineLease&) = delete;
  EngineLease& operator=(const EngineLease&) = delete;

  /// Batch-evaluates `members[i].genes` into `members[i].eval`.
  void evaluate_members(std::span<moga::Individual> members) const;

  /// THIS run's requested/distinct/cache-hit accounting.
  const EvalStats& stats() const { return stats_; }

 private:
  const moga::Problem& problem_;
  std::optional<EvalEngine> owned_;  ///< engaged iff the handle was empty
  EngineHandle handle_;              ///< points at owned_ when engaged
  mutable EvalStats stats_;
};

}  // namespace anadex::engine
