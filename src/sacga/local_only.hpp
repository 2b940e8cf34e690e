// Pure local-competition GA (paper §4.3): partitioned non-dominated ranking
// with a global mating pool, but NO global competition until a single final
// extraction of the global Pareto front. Diverse but slow to converge — the
// motivation for SACGA's annealed mixing.
#pragma once

#include <cstdint>

#include "engine/evolver_common.hpp"
#include "moga/nsga2.hpp"
#include "moga/problem.hpp"
#include "sacga/partitioned_evolver.hpp"

namespace anadex::sacga {

/// Resumable state of a LocalOnly run: the engine snapshot is everything
/// (the loop itself is stateless beyond the generation counter).
struct LocalOnlyState {
  EvolverSnapshot evolver;
};

/// Configuration of a LocalOnly run. Seed, evaluation threads and the
/// checkpoint/resume hooks live in the EvolverCommon base.
struct LocalOnlyParams : engine::EvolverCommon<LocalOnlyState> {
  std::size_t population_size = 100;
  std::size_t partitions = 8;
  std::size_t axis_objective = 1;
  double axis_lo = 0.0;
  double axis_hi = 1.0;
  std::size_t generations = 800;
  moga::VariationParams variation;
};

struct LocalOnlyResult : moga::EvolverResult {
  moga::Population population;  ///< final population
};

/// The pure local-competition GA as a step object
/// (moga/generation_driver.hpp): built fresh or from params.resume, step()
/// runs one generation.
class LocalOnly {
 public:
  using State = LocalOnlyState;

  LocalOnly(const moga::Problem& problem, const LocalOnlyParams& params);

  void step(const moga::GenerationCallback& on_generation);
  bool finished() const { return evolver_.generation() >= params_.generations; }
  std::size_t generation() const { return evolver_.generation(); }
  State state() const { return LocalOnlyState{evolver_.snapshot()}; }
  const LocalOnlyParams& params() const { return params_; }
  LocalOnlyResult result() const { return evolver_.result<LocalOnlyResult>(); }

 private:
  LocalOnlyParams params_;
  PartitionedEvolver evolver_;
};

/// Runs the pure local-competition GA. Deterministic for a fixed seed.
LocalOnlyResult run_local_only(const moga::Problem& problem, const LocalOnlyParams& params,
                               const moga::GenerationCallback& on_generation = {});

}  // namespace anadex::sacga
