#include "moga/scalarize.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <span>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "engine/engine_lease.hpp"
#include "moga/dominance.hpp"
#include "moga/nsga2.hpp"
#include "moga/obs_trace.hpp"
#include "moga/selection.hpp"

namespace anadex::moga {

namespace {

/// Scalar fitness under Deb's feasibility rule: infeasible individuals
/// compare by violation; feasible ones by the weighted, range-normalized
/// objective sum.
struct ScalarFitness {
  double violation = 0.0;
  double value = 0.0;

  bool better_than(const ScalarFitness& other) const {
    if ((violation == 0.0) != (other.violation == 0.0)) return violation == 0.0;
    if (violation > 0.0) return violation < other.violation;
    return value < other.value;
  }
};

ScalarFitness score(const Individual& ind, double w, const std::array<double, 2>& lo,
                    const std::array<double, 2>& span) {
  ScalarFitness f;
  f.violation = ind.total_violation();
  const double f0 = (ind.eval.objectives[0] - lo[0]) / span[0];
  const double f1 = (ind.eval.objectives[1] - lo[1]) / span[1];
  f.value = w * f0 + (1.0 - w) * f1;
  return f;
}

}  // namespace

WeightedSumResult run_weighted_sum(const Problem& problem, const WeightedSumParams& params) {
  ANADEX_REQUIRE(problem.num_objectives() == 2,
                 "the weighted-sum baseline is implemented for two objectives");
  ANADEX_REQUIRE(params.weight_count >= 2, "need at least two weight vectors");
  ANADEX_REQUIRE(params.population_size >= 4 && params.population_size % 2 == 0,
                 "population size must be even and >= 4");

  const auto bounds = problem.bounds();
  const engine::EngineLease eval(problem, params.engine, params.sink);
  Rng master(params.seed);
  WeightedSumResult result;

  for (std::size_t wi = 0; wi < params.weight_count; ++wi) {
    const double w =
        static_cast<double>(wi) / static_cast<double>(params.weight_count - 1);
    Rng rng = master.split();

    Population pop;
    pop.reserve(params.population_size);
    std::array<double, 2> lo{std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::infinity()};
    std::array<double, 2> hi{-std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
    auto track = [&](const Individual& ind) {
      for (std::size_t k = 0; k < 2; ++k) {
        lo[k] = std::min(lo[k], ind.eval.objectives[k]);
        hi[k] = std::max(hi[k], ind.eval.objectives[k]);
      }
    };

    pop.resize(params.population_size);
    for (auto& ind : pop) ind.genes = random_genome(bounds, rng);
    eval.evaluate_members(pop);
    result.evaluations += pop.size();
    for (const auto& ind : pop) track(ind);

    auto spans = [&] {
      std::array<double, 2> s;
      for (std::size_t k = 0; k < 2; ++k) s[k] = std::max(hi[k] - lo[k], 1e-30);
      return s;
    };

    for (std::size_t gen = 0; gen < params.generations_per_weight; ++gen) {
      const auto span = spans();
      const Preference prefer = [&](const Individual& a, const Individual& b) {
        return score(a, w, lo, span).better_than(score(b, w, lo, span));
      };
      auto offspring =
          make_offspring(pop, bounds, params.variation, prefer, params.population_size, rng);

      Population pool = pop;
      const std::size_t first_child = pool.size();
      for (auto& genes : offspring) {
        Individual child;
        child.genes = std::move(genes);
        pool.push_back(std::move(child));
      }
      // One batch per generation; min/max range tracking commutes, so
      // tracking after the batch matches the old per-evaluation order.
      const auto children = std::span<Individual>(pool).subspan(first_child);
      eval.evaluate_members(children);
      result.evaluations += children.size();
      for (const auto& child : children) track(child);
      const auto span2 = spans();
      std::sort(pool.begin(), pool.end(), [&](const Individual& a, const Individual& b) {
        return score(a, w, lo, span2).better_than(score(b, w, lo, span2));
      });
      pool.resize(params.population_size);
      pop = std::move(pool);
      // A single global generation index across the weight sweep keeps the
      // trace's logical clock monotonic.
      trace_generation(params.sink, wi * params.generations_per_weight + gen,
                       result.evaluations, pop, params.trace_hypervolume);
    }

    // pop is sorted by the final generation's truncation: front() is the
    // scalar winner for this weight.
    const auto span = spans();
    const auto best = std::min_element(
        pop.begin(), pop.end(), [&](const Individual& a, const Individual& b) {
          return score(a, w, lo, span).better_than(score(b, w, lo, span));
        });
    result.all_winners.push_back(*best);
  }

  result.front = extract_global_front(result.all_winners);
  result.eval_stats = eval.stats();
  return result;
}

}  // namespace anadex::moga
