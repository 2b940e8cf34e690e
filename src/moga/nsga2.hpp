// Elitist non-dominated sorting GA (NSGA-II, Deb et al. 2002) with Deb's
// constraint-domination. This is the paper's baseline: "Traditional Purely
// Global competition based GA" (TPG).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "engine/evolver_common.hpp"
#include "moga/generation_driver.hpp"
#include "moga/individual.hpp"
#include "moga/nds.hpp"
#include "moga/operators.hpp"
#include "moga/problem.hpp"

namespace anadex::moga {

/// Everything needed to resume an NSGA-II run bit-identically: the ranked
/// parent population (rank + crowding drive the next tournament), the full
/// RNG state, and the cumulative counters.
struct Nsga2State {
  Population parents;          ///< ranked survivors of the last generation
  RngState rng;
  std::size_t next_generation = 0;  ///< first generation index still to run
  std::size_t evaluations = 0;      ///< cumulative evaluation count
};

/// Configuration of one NSGA-II run. Seed, evaluation threads and the
/// checkpoint/resume hooks live in the EvolverCommon base.
struct Nsga2Params : engine::EvolverCommon<Nsga2State> {
  std::size_t population_size = 100;  ///< must be even and >= 4
  std::size_t generations = 800;
  VariationParams variation;
};

/// Result of an NSGA-II run.
struct Nsga2Result : EvolverResult {
  Population population;  ///< final parent population, ranked
};

/// NSGA-II as a step object (moga/generation_driver.hpp): built fresh or
/// from params.resume, step() runs one generation.
class Nsga2 : public EvolverCore<Nsga2Params> {
 public:
  using State = Nsga2State;

  Nsga2(const Problem& problem, const Nsga2Params& params);

  void step(const GenerationCallback& on_generation);
  State state() const;
  Nsga2Result result() const;

 private:
  Rng rng_;
  Population parents_;
  RankingScratch ranking_;  ///< SoA buffers reused across generations
};

/// NSGA-II elitist survivor selection: ranks and crowds `pool` (every
/// member evaluated) and moves its best `n` into `survivors`, whole fronts
/// first, the last front cut by crowding distance.
void select_survivors(Population& survivors, Population&& pool, std::size_t n,
                      RankingScratch& ranking);

/// Runs NSGA-II on `problem`. Deterministic for a fixed seed.
Nsga2Result run_nsga2(const Problem& problem, const Nsga2Params& params,
                      const GenerationCallback& on_generation = {});

/// Extracts the feasible, mutually non-dominated members of `population`
/// (the "global Pareto front" used everywhere in the paper's figures).
Population extract_global_front(const Population& population);

}  // namespace anadex::moga
