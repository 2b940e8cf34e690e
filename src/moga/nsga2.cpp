#include "moga/nsga2.hpp"

#include <algorithm>
#include <span>

#include "common/check.hpp"
#include "moga/dominance.hpp"
#include "moga/nds.hpp"
#include "moga/obs_trace.hpp"
#include "moga/selection.hpp"

namespace anadex::moga {

Nsga2::Nsga2(const Problem& problem, const Nsga2Params& params)
    : EvolverCore(problem, params), rng_(params.seed) {
  ANADEX_REQUIRE(params.population_size >= 4 && params.population_size % 2 == 0,
                 "population size must be even and >= 4");
  ANADEX_REQUIRE(bounds_.size() == problem.num_variables(),
                 "problem bounds size must equal num_variables");
  if (params.resume != nullptr) {
    ANADEX_REQUIRE(params.resume->parents.size() == params.population_size,
                   "resume state population size does not match params");
    parents_ = params.resume->parents;
    rng_.set_state(params.resume->rng);
    return;
  }
  parents_.resize(params.population_size);
  for (auto& parent : parents_) parent.genes = random_genome(bounds_, rng_);
  eval_.evaluate_members(parents_);
  evaluations_ += params.population_size;

  // Initial ranking so tournament preferences are defined from generation 0.
  const auto fronts = ranking_.sort(parents_);
  for (const auto& front : fronts) ranking_.crowding(parents_, front);
}

void Nsga2::step(const GenerationCallback& on_generation) {
  const std::size_t n = params_.population_size;
  auto offspring = make_offspring(parents_, bounds_, params_.variation, crowded_less, n, rng_);
  Population combined = std::move(parents_);
  combined.reserve(2 * n);
  for (auto& genes : offspring) combined.emplace_back().genes = std::move(genes);
  // One batch per generation: all offspring evaluated together.
  eval_.evaluate_members(std::span<Individual>(combined).subspan(n));
  evaluations_ += n;
  select_survivors(parents_, std::move(combined), n, ranking_);
  ANADEX_ASSERT(parents_.size() == n, "survivor selection must fill the population exactly");

  const std::size_t gen = generation_++;
  if (on_generation) on_generation(gen, parents_);
  trace_generation(params_.sink, gen, evaluations_, parents_, params_.trace_hypervolume);
}

void select_survivors(Population& survivors, Population&& pool, std::size_t n,
                      RankingScratch& ranking) {
  const auto fronts = ranking.sort(pool);
  for (const auto& front : fronts) ranking.crowding(pool, front);

  Population next;
  next.reserve(n);
  for (const auto& front : fronts) {
    if (next.size() + front.size() <= n) {
      for (std::size_t idx : front) next.push_back(std::move(pool[idx]));
    } else {
      std::vector<std::size_t> sorted(front.begin(), front.end());
      std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
        return pool[a].crowding > pool[b].crowding;
      });
      for (std::size_t idx : sorted) {
        if (next.size() == n) break;
        next.push_back(std::move(pool[idx]));
      }
    }
    if (next.size() == n) break;
  }
  survivors = std::move(next);
}

Nsga2State Nsga2::state() const {
  Nsga2State state;
  state.parents = parents_;
  state.rng = rng_.state();
  state.next_generation = generation_;
  state.evaluations = evaluations_;
  return state;
}

Nsga2Result Nsga2::result() const {
  Nsga2Result result;
  result.front = extract_global_front(parents_);
  result.population = parents_;
  result.evaluations = evaluations_;
  result.generations_run = generation_;
  result.eval_stats = eval_.stats();
  return result;
}

Nsga2Result run_nsga2(const Problem& problem, const Nsga2Params& params,
                      const GenerationCallback& on_generation) {
  Nsga2 evolver(problem, params);
  return run_to_end(evolver, on_generation);
}

Population extract_global_front(const Population& population) {
  Population front;
  for (const auto& candidate : population) {
    if (!candidate.feasible()) continue;
    bool is_dominated = false;
    for (const auto& other : population) {
      if (&other == &candidate || !other.feasible()) continue;
      if (dominates(other.eval.objectives, candidate.eval.objectives)) {
        is_dominated = true;
        break;
      }
    }
    if (!is_dominated) front.push_back(candidate);
  }
  return front;
}

}  // namespace anadex::moga
