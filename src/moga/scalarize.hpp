// Weighted-sum scalarization baseline (paper §1): "One method of solving a
// multi-objective circuit optimization problem is to transform it into a
// set of scalarized single objective optimization problems by the weighted
// sum approach". A sweep of weight vectors, each solved by a single-
// objective GA with constraint-domination, yields a front approximation.
// Known weaknesses the paper alludes to: cannot populate non-convex front
// regions and distributes points unevenly — both visible against SACGA in
// the ablation bench.
#pragma once

#include <cstdint>

#include "engine/eval_cache.hpp"
#include "engine/evolver_common.hpp"
#include "moga/individual.hpp"
#include "moga/operators.hpp"
#include "moga/problem.hpp"

namespace anadex::moga {

/// WeightedSum has no resumable state, so it embeds only the telemetry
/// wiring (engine::ObsConfig) and the engine it borrows instead of the full
/// EvolverCommon base.
struct WeightedSumParams : engine::ObsConfig {
  /// The engine batches go through (engine::EvolverCommon semantics; empty
  /// = a private serial engine).
  engine::EngineHandle engine;
  std::size_t weight_count = 16;       ///< number of weight vectors swept (>= 2)
  std::size_t population_size = 40;    ///< per scalar run (even, >= 4)
  std::size_t generations_per_weight = 50;
  VariationParams variation;
  std::uint64_t seed = 1;
};

struct WeightedSumResult {
  Population front;            ///< non-dominated union of the per-weight winners
  Population all_winners;      ///< best individual of every weight vector
  std::size_t evaluations = 0;
  engine::EvalStats eval_stats;  ///< requested/distinct/cache-hit accounting
};

/// Sweeps weights (w, 1-w) over [0, 1] for a TWO-objective problem; each
/// scalar subproblem is solved by an elitist single-objective GA in which
/// feasibility dominates (Deb's rule specialized to one objective).
/// Objectives are normalized per run by the population's running ranges so
/// neither objective swamps the sum. Deterministic per seed.
WeightedSumResult run_weighted_sum(const Problem& problem, const WeightedSumParams& params);

}  // namespace anadex::moga
