// SACGA — Simulated-Annealing-driven Competition GA (paper §4.4).
//
// Phase I: pure local competition until every partition holds a
// constraint-satisfying solution, capped at `phase1_max_generations`; on
// timeout, partitions still lacking a feasible member are discarded.
//
// Phase II: for `span` generations the annealing schedule (eqns 2–4)
// probabilistically admits locally-superior solutions to global
// competition, transitioning from pure local to (almost) pure global
// pressure. A final global competition over the whole population yields the
// reported Pareto front.
#pragma once

#include <cstdint>
#include <optional>

#include "engine/evolver_common.hpp"
#include "moga/nsga2.hpp"
#include "moga/problem.hpp"
#include "sacga/partitioned_evolver.hpp"
#include "sacga/schedule.hpp"

namespace anadex::sacga {

/// Resumable state of a SACGA run: the engine snapshot plus where the
/// two-phase schedule stands. While phase I is still running,
/// `phase1_generations` is meaningless; once `phase1_done` is set it holds
/// the paper's gen_t, which fixes the phase-II span and annealing schedule.
struct SacgaState {
  EvolverSnapshot evolver;
  bool phase1_done = false;
  std::size_t phase1_generations = 0;
};

/// Configuration of a SACGA run. Seed, evaluation threads and the
/// checkpoint/resume hooks live in the EvolverCommon base.
struct SacgaParams : engine::EvolverCommon<SacgaState> {
  std::size_t population_size = 100;
  std::size_t partitions = 8;
  std::size_t axis_objective = 1;  ///< objective whose range is partitioned
  double axis_lo = 0.0;
  double axis_hi = 1.0;
  std::size_t phase1_max_generations = 200;  ///< paper: "a couple of hundred"
  std::size_t span = 600;                    ///< phase-II generations
  /// When true, `span` is the TOTAL generation budget and phase II runs for
  /// span - gen_t generations (the paper reports runs by total iteration
  /// count, e.g. "800 iterations of an 8-partition SACGA").
  bool span_is_total_budget = false;
  std::size_t n_desired = 5;                 ///< eqn 2's n
  double alpha = 1.0;                        ///< eqn 3's alpha
  double t_init = 100.0;                     ///< eqn 4's T_init
  ScheduleShape shape;                       ///< shaping targets for k1/k2/k3
  moga::VariationParams variation;
};

struct SacgaResult : moga::EvolverResult {
  moga::Population population;
  std::size_t phase1_generations = 0;  ///< the paper's gen_t
  std::size_t discarded_partitions = 0;
};

/// SACGA as a step object (moga/generation_driver.hpp): built fresh or
/// from params.resume, step() runs one generation of whichever phase the
/// run is in. `generations_run` ends at gen_t + span.
class Sacga {
 public:
  using State = SacgaState;

  Sacga(const moga::Problem& problem, const SacgaParams& params);

  void step(const moga::GenerationCallback& on_generation);
  bool finished() const {
    return schedule_.has_value() && generation() >= gen_t_ + schedule_->params().span;
  }
  std::size_t generation() const { return evolver_.generation(); }
  State state() const;
  const SacgaParams& params() const { return params_; }
  SacgaResult result() const;

 private:
  /// Fixes gen_t and builds the phase-II annealing schedule.
  void begin_phase2(std::size_t gen_t);

  SacgaParams params_;
  PartitionedEvolver evolver_;
  std::size_t gen_t_ = 0;  ///< phase-I generations, once phase I is over
  std::optional<AnnealingSchedule> schedule_;  ///< engaged once phase I is over
};

/// Runs SACGA. `on_generation` (if given) sees every generation of both
/// phases with a single global generation index. Deterministic per seed.
SacgaResult run_sacga(const moga::Problem& problem, const SacgaParams& params,
                      const moga::GenerationCallback& on_generation = {});

/// One phase-I generation (pure local competition, reported as phase 0),
/// shared by SACGA and MESACGA. Once phase I is over (every active
/// partition feasible, or `max_generations` spent) it instead discards the
/// still-infeasible partitions and returns false. A run stopped before
/// that resumes in the pre-discard state.
bool phase1_step(PartitionedEvolver& evolver, std::size_t max_generations,
                 const moga::GenerationCallback& on_generation, const engine::ObsConfig& obs);

}  // namespace anadex::sacga
