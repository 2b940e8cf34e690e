// The generation barrier shared by every checkpointing evolver.
//
// NSGA-II, SPEA2, the island GA, LocalOnly, SACGA and MESACGA are step
// objects over the *State struct each one checkpoints. Built fresh or from
// params.resume, each offers step(on_generation) (one generation, reported
// to the observer and the trace), finished(), generation(), state(),
// params() (an engine::EvolverCommon<State>) and result(). What happens
// BETWEEN two generations is the same for all six and lives here: the
// snapshot cadence, the stop token with its off-cycle snapshot, and a
// generation budget that pauses the run in memory (expt::Job preempts runs
// this way). Stopping never draws randomness, so a run stopped at any
// barrier and resumed replays the remaining generations bit-identically.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "engine/engine_lease.hpp"
#include "moga/individual.hpp"
#include "moga/problem.hpp"

namespace anadex::moga {

/// Per-generation observer; receives the generation index (0-based, after
/// survivor selection) and the current population.
using GenerationCallback = std::function<void(std::size_t, const Population&)>;

/// What every evolver's result reports.
struct EvolverResult {
  Population front;              ///< feasible non-dominated members at the end
  std::size_t evaluations = 0;   ///< total problem evaluations requested
  std::size_t generations_run = 0;
  engine::EvalStats eval_stats;  ///< requested/distinct/cache-hit accounting
  /// True when the stop token ended the run early; the stopping point was
  /// snapshotted (when on_snapshot is set), so the run can be resumed.
  bool interrupted = false;
};

/// Why GenerationDriver::run returned.
enum class Barrier {
  Finished,  ///< the run completed its configured generations
  Paused,    ///< the budget ran out or halt() was called; nothing written
  Stopped,   ///< the stop token was raised; the stopping point is snapshotted
};

/// What NSGA-II, SPEA2 and the island GA share: their params, the
/// problem's bounds, the engine lease, and the generation and evaluation
/// counters, restored from params.resume (whose state carries
/// next_generation and evaluations) when set.
template <class Params>
class EvolverCore {
 public:
  bool finished() const { return generation_ >= params_.generations; }
  std::size_t generation() const { return generation_; }
  const Params& params() const { return params_; }

 protected:
  EvolverCore(const Problem& problem, const Params& params)
      : params_(params),
        bounds_(problem.bounds()),
        eval_(problem, params.engine, params.sink) {
    if (params.resume == nullptr) return;
    ANADEX_REQUIRE(params.resume->next_generation <= params.generations,
                   "resume state is beyond the configured generation count");
    generation_ = params.resume->next_generation;
    evaluations_ = params.resume->evaluations;
  }

  Params params_;
  std::vector<VariableBound> bounds_;
  engine::EngineLease eval_;
  std::size_t generation_ = 0;
  std::size_t evaluations_ = 0;
};

template <class Evolver>
class GenerationDriver {
 public:
  /// `evolver` is borrowed and must outlive the driver.
  GenerationDriver(Evolver& evolver, GenerationCallback on_generation)
      : evolver_(evolver),
        on_generation_(std::move(on_generation)),
        written_(evolver.generation()) {}

  /// Runs generations until the run finishes, the stop token is raised,
  /// `budget` generations have run (0 = no limit) or halt() was called.
  /// After each generation: the snapshot_every cadence, then the stop token.
  Barrier run(std::size_t budget = 0) {
    const auto& common = evolver_.params();
    halted_ = false;
    for (std::size_t ran = 0; !evolver_.finished();) {
      evolver_.step(on_generation_);
      if (common.snapshot_every > 0 && evolver_.generation() % common.snapshot_every == 0) {
        snapshot();
      }
      if (evolver_.finished()) break;
      if (common.stop != nullptr && common.stop->requested()) {
        snapshot();
        return Barrier::Stopped;
      }
      if (++ran == budget || halted_) return Barrier::Paused;
    }
    return Barrier::Finished;
  }

  /// Ends the current run() at the next barrier, as an exhausted budget
  /// does. Callable from the on_generation observer.
  void halt() { halted_ = true; }

  /// Hands the current state to on_snapshot, unless it already holds this
  /// generation: the last snapshot's, or the one the run resumed from (a
  /// fresh run at generation 0 restarts from its seed instead).
  void snapshot() {
    const auto& common = evolver_.params();
    if (!common.on_snapshot || written_ == evolver_.generation()) return;
    common.on_snapshot(evolver_.state());
    written_ = evolver_.generation();
  }

 private:
  Evolver& evolver_;
  GenerationCallback on_generation_;
  std::size_t written_;  ///< generation of the newest snapshot handed over
  bool halted_ = false;
};

/// Runs `evolver` until it finishes or the stop token ends it and returns
/// its result, moved out of it: the body of every run_<algorithm> entry
/// point.
template <class Evolver>
auto run_to_end(Evolver& evolver, const GenerationCallback& on_generation) {
  const Barrier barrier = GenerationDriver<Evolver>(evolver, on_generation).run();
  auto result = std::move(evolver).result();
  result.interrupted = barrier == Barrier::Stopped;
  return result;
}

}  // namespace anadex::moga
