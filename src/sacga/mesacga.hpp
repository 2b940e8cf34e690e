// MESACGA — Multi-phase Expanding-partitions SACGA (paper §4.5).
//
// Runs SACGA's phase-II machinery repeatedly with a shrinking partition
// count (default 20, 13, 8, 5, 3, 2, 1), each phase `span` generations with
// its own freshly-started annealing schedule. Local Pareto fronts "grow"
// and merge until the final single-partition phase is pure global
// competition. A pure-local phase I (with the first phase's partitions)
// precedes everything, as in SACGA.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "engine/evolver_common.hpp"
#include "moga/nsga2.hpp"
#include "moga/problem.hpp"
#include "sacga/sacga.hpp"

namespace anadex::sacga {

struct PhaseSnapshot;

/// Resumable state of a MESACGA run. The engine snapshot pins the active
/// phase's partitioner (EvolverSnapshot::partitions); the current phase and
/// the offset within it are derived from the generation counter, gen_t and
/// the (deterministic) per-phase span, so they are not stored. Completed
/// phase snapshots ride along so the final result still reports every
/// phase.
struct MesacgaState {
  EvolverSnapshot evolver;
  bool phase1_done = false;
  std::size_t phase1_generations = 0;
  std::vector<PhaseSnapshot> phases;
};

/// Configuration of a MESACGA run. Seed, evaluation threads and the
/// checkpoint/resume hooks live in the EvolverCommon base.
struct MesacgaParams : engine::EvolverCommon<MesacgaState> {
  std::size_t population_size = 100;
  /// Partition count per phase; must be non-increasing and end with >= 1.
  std::vector<std::size_t> partition_schedule{20, 13, 8, 5, 3, 2, 1};
  std::size_t axis_objective = 1;
  double axis_lo = 0.0;
  double axis_hi = 1.0;
  std::size_t phase1_max_generations = 200;
  std::size_t span = 100;  ///< generations per phase (paper Fig 10: 50/100/150)
  /// When non-zero, the TOTAL generation budget: after phase I uses gen_t
  /// generations, each phase runs (total_budget - gen_t) / #phases
  /// generations (at least 1) instead of `span`.
  std::size_t total_budget = 0;
  /// Annealing-temperature handling across phases. The paper describes
  /// MESACGA as "a SACGA running in multiple phases where the number of
  /// partitions is reduced ... at the end of each phase", which we read as
  /// ONE annealing schedule cooling over the whole multi-phase run while
  /// the partitioning coarsens (continuous_annealing = true, the default).
  /// Setting false restarts the temperature at T_init in every phase — the
  /// alternative reading, kept for the schedule ablation bench.
  bool continuous_annealing = true;
  std::size_t n_desired = 5;
  double alpha = 1.0;
  double t_init = 100.0;
  ScheduleShape shape;
  moga::VariationParams variation;
};

/// Snapshot taken at the end of each MESACGA phase (used for paper Fig 10).
struct PhaseSnapshot {
  std::size_t phase = 0;       ///< 1-based phase index
  std::size_t partitions = 0;
  std::size_t generation = 0;  ///< cumulative generations at snapshot time
  moga::Population front;      ///< global front of the population at phase end
};

struct MesacgaResult : moga::EvolverResult {
  moga::Population population;
  std::vector<PhaseSnapshot> phases;
  std::size_t phase1_generations = 0;
};

/// MESACGA as a step object (moga/generation_driver.hpp): built fresh or
/// from params.resume, step() runs one generation of whichever phase the
/// run is in, expanding the partitions when a phase begins.
class Mesacga {
 public:
  using State = MesacgaState;

  Mesacga(const moga::Problem& problem, const MesacgaParams& params);

  void step(const moga::GenerationCallback& on_generation);
  bool finished() const {
    return schedule_.has_value() &&
           generation() >= gen_t_ + span_ * params_.partition_schedule.size();
  }
  std::size_t generation() const { return evolver_.generation(); }
  State state() const;
  const MesacgaParams& params() const { return params_; }
  MesacgaResult result() const&;
  /// The same for a run that is over: moves the phase snapshots out
  /// instead of copying them.
  MesacgaResult result() &&;

 private:
  /// Fixes gen_t, the per-phase span and the annealing schedule.
  void begin_phase2(std::size_t gen_t);
  Partitioner partitioner(std::size_t partitions) const;

  MesacgaParams params_;
  PartitionedEvolver evolver_;
  std::vector<PhaseSnapshot> phases_;  ///< one per completed phase
  std::size_t gen_t_ = 0;  ///< phase-I generations, once phase I is over
  std::size_t span_ = 0;   ///< generations per phase, once phase I is over
  std::optional<AnnealingSchedule> schedule_;  ///< engaged once phase I is over
};

/// Runs MESACGA. Deterministic for a fixed seed.
MesacgaResult run_mesacga(const moga::Problem& problem, const MesacgaParams& params,
                          const moga::GenerationCallback& on_generation = {});

}  // namespace anadex::sacga
