// EngineHandle — an optional reference to the EvalEngine a run borrows.
//
// Every evolver-facing parameter struct (engine::EvolverCommon,
// sacga::EvolverParams, moga::WeightedSumParams) carries one of these, and
// it is the only evaluation setting they carry. expt::start_run points it
// at the run's own engine (built once from the run's threads / eval_cache /
// batch_eval / watchdog settings) or, under anadex serve, at the hub, whose
// worker pool and dedup cache the run then shares, filing cache entries
// under `context` so jobs with different problems can never alias
// identical genes. Default-constructed it is EMPTY and the evolver's
// engine::EngineLease evaluates on a private serial engine.
//
// Which engine evaluates is a pure EXECUTION choice: the handle is excluded
// from the checkpoint config digest and can never change results — a
// shared run's populations are byte-identical to a solo run of the same
// settings.
#pragma once

#include <cstdint>

namespace anadex::engine {

class EvalEngine;

/// Non-owning pointer to an EvalEngine plus the cache-context word that
/// partitions a hub's shared EvalCache between clients. The engine must
/// outlive every run that holds a handle to it.
struct EngineHandle {
  EvalEngine* engine = nullptr;
  /// Cache partition key (serve: the job's admission ordinal + 1, so it
  /// never collides with the 0 used by private engines and direct hub
  /// clients).
  std::uint64_t context = 0;

  /// True when the handle names an engine to borrow (a run's own, or a
  /// hub) instead of leaving the lease to build a private serial one.
  bool shared() const { return engine != nullptr; }
};

}  // namespace anadex::engine
