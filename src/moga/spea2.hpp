// SPEA2 — Strength Pareto Evolutionary Algorithm 2 (Zitzler, Laumanns,
// Thiele, 2001) with Deb-style constraint handling. A second standard MOEA
// baseline beside NSGA-II: fitness = raw strength-based dominance count +
// k-th-nearest-neighbour density, with an external archive truncated by
// nearest-neighbour distance.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "engine/evolver_common.hpp"
#include "moga/nsga2.hpp"
#include "moga/operators.hpp"
#include "moga/problem.hpp"

namespace anadex::moga {

/// Everything needed to resume a SPEA2 run bit-identically: the current
/// offspring population, the external archive, the full RNG state, and the
/// cumulative counters.
struct Spea2State {
  Population population;  ///< offspring evaluated at the end of the last generation
  Population archive;     ///< external archive after environmental selection
  RngState rng;
  std::size_t next_generation = 0;  ///< first generation index still to run
  std::size_t evaluations = 0;      ///< cumulative evaluation count
};

/// Configuration of one SPEA2 run. Seed, evaluation threads and the
/// checkpoint/resume hooks live in the EvolverCommon base.
struct Spea2Params : engine::EvolverCommon<Spea2State> {
  std::size_t population_size = 100;  ///< even, >= 4
  std::size_t archive_size = 100;     ///< >= 2
  std::size_t generations = 800;
  VariationParams variation;
};

struct Spea2Result : EvolverResult {
  Population archive;  ///< final external archive (the front approximation)
};

/// SPEA2 as a step object (moga/generation_driver.hpp): built fresh or from
/// params.resume, step() runs one generation. Infeasible individuals are
/// handled by adding a large violation-proportional penalty to their
/// fitness so feasible solutions always rank ahead.
class Spea2 : public EvolverCore<Spea2Params> {
 public:
  using State = Spea2State;

  Spea2(const Problem& problem, const Spea2Params& params);

  void step(const GenerationCallback& on_generation);
  State state() const;
  Spea2Result result() const;

 private:
  Rng rng_;
  Population population_;
  Population archive_;
};

/// Runs SPEA2. Deterministic per seed.
Spea2Result run_spea2(const Problem& problem, const Spea2Params& params,
                      const GenerationCallback& on_generation = {});

}  // namespace anadex::moga
