#include "sacga/island.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "moga/nds.hpp"
#include "moga/obs_trace.hpp"
#include "moga/selection.hpp"

namespace anadex::sacga {

moga::Population island_emigrants(const moga::Population& island, std::size_t migrants) {
  std::vector<std::size_t> order(island.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return moga::crowded_less(island[a], island[b]);
  });
  moga::Population outgoing;
  for (std::size_t m = 0; m < std::min(migrants, island.size()); ++m) {
    outgoing.push_back(island[order[m]]);  // copies travel the ring
  }
  return outgoing;
}

void island_immigrate(moga::Population& destination, moga::Population immigrants) {
  std::vector<std::size_t> order(destination.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return moga::crowded_less(destination[a], destination[b]);
  });
  // Replace from the back (worst) of the destination.
  std::size_t victim = order.size();
  for (auto& migrant : immigrants) {
    if (victim == 0) break;
    --victim;
    destination[order[victim]] = std::move(migrant);
  }
}

namespace {

/// Ring migration: the `migrants` best of island i replace the worst of
/// island (i+1) % count. "Best" = rank 0 with the largest crowding (front
/// spread carriers); "worst" = highest rank, smallest crowding. Every
/// island's emigrants are selected before any island receives.
void migrate(std::vector<moga::Population>& islands, std::size_t migrants) {
  const std::size_t count = islands.size();
  std::vector<moga::Population> outgoing(count);
  for (std::size_t i = 0; i < count; ++i) {
    outgoing[i] = island_emigrants(islands[i], migrants);
  }
  for (std::size_t i = 0; i < count; ++i) {
    island_immigrate(islands[(i + 1) % count], std::move(outgoing[i]));
  }
}

}  // namespace

IslandGa::IslandGa(const moga::Problem& problem, const IslandParams& params)
    : EvolverCore(problem, params), islands_(params.islands) {
  ANADEX_REQUIRE(params.islands >= 2, "island GA needs at least two islands");
  ANADEX_REQUIRE(params.island_population >= 4 && params.island_population % 2 == 0,
                 "island population must be even and >= 4");
  ANADEX_REQUIRE(params.migration_interval >= 1, "migration interval must be >= 1");
  ANADEX_REQUIRE(params.migrants <= params.island_population,
                 "cannot migrate more individuals than an island holds");
  rngs_.reserve(params.islands);
  if (params.resume != nullptr) {
    const IslandState& state = *params.resume;
    ANADEX_REQUIRE(state.islands.size() == params.islands &&
                       state.rngs.size() == params.islands,
                   "resume state island count does not match params");
    islands_ = state.islands;
    for (const auto& rng_state : state.rngs) rngs_.emplace_back(1).set_state(rng_state);
    migrations_ = state.migrations;
    return;
  }
  // Genomes are drawn per island (each from its private RNG, split from the
  // master RNG in island order) first, then evaluated in per-island batches.
  Rng rng(params.seed);
  for (auto& island : islands_) {
    rngs_.push_back(rng.split());
    island.resize(params.island_population);
    for (auto& member : island) member.genes = moga::random_genome(bounds_, rngs_.back());
  }
  for (auto& island : islands_) {
    eval_.evaluate_members(island);
    evaluations_ += island.size();
  }
  for (auto& island : islands_) {
    auto fronts = ranking_.sort(island);
    for (const auto& front : fronts) ranking_.crowding(island, front);
  }
}

void IslandGa::step(const moga::GenerationCallback& on_generation) {
  // Stage 1: every island breeds offspring from its own RNG stream.
  const std::size_t n = params_.island_population;
  moga::Population children;
  children.reserve(islands_.size() * n);
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    auto offspring = moga::make_offspring(islands_[i], bounds_, params_.variation,
                                          moga::crowded_less, n, rngs_[i]);
    for (auto& genes : offspring) children.emplace_back().genes = std::move(genes);
  }

  // Stage 2: one evaluation batch spanning ALL islands' offspring.
  eval_.evaluate_members(children);
  evaluations_ += children.size();

  // Stage 3: per-island elitist survivor selection.
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    moga::Population pool;
    pool.reserve(2 * n);
    for (auto& p : islands_[i]) pool.push_back(std::move(p));
    for (std::size_t k = 0; k < n; ++k) pool.push_back(std::move(children[i * n + k]));
    island_select_survivors(islands_[i], std::move(pool), n, ranking_);
  }
  const std::size_t gen = generation_++;
  const bool migrating = generation_ % params_.migration_interval == 0;
  if (migrating) {
    migrate(islands_, params_.migrants);
    ++migrations_;
  }
  const bool tracing = params_.sink != nullptr && params_.sink->enabled(obs::TraceLevel::Gen);
  if (on_generation || tracing) {
    const moga::Population everyone = combined();
    if (on_generation) on_generation(gen, everyone);
    moga::trace_generation(params_.sink, gen, evaluations_, everyone,
                           params_.trace_hypervolume);
    if (tracing && migrating) {
      const obs::Field fields[] = {obs::u64("gen", gen), obs::u64("migrations", migrations_)};
      params_.sink->record(obs::Event{"migration", obs::TraceLevel::Gen, false, fields});
    }
  }
}

moga::Population IslandGa::combined() const {
  moga::Population everyone;
  for (const auto& island : islands_) everyone.insert(everyone.end(), island.begin(), island.end());
  return everyone;
}

IslandState IslandGa::state() const {
  IslandState state;
  state.islands = islands_;
  state.rngs.reserve(rngs_.size());
  for (const auto& rng : rngs_) state.rngs.push_back(rng.state());
  state.next_generation = generation_;
  state.evaluations = evaluations_;
  state.migrations = migrations_;
  return state;
}

IslandResult IslandGa::result() const {
  IslandResult result;
  result.population = combined();
  result.front = moga::extract_global_front(result.population);
  result.evaluations = evaluations_;
  result.generations_run = generation_;
  result.migrations = migrations_;
  result.eval_stats = eval_.stats();
  return result;
}

IslandResult run_island_ga(const moga::Problem& problem, const IslandParams& params,
                           const moga::GenerationCallback& on_generation) {
  IslandGa evolver(problem, params);
  return moga::run_to_end(evolver, on_generation);
}

}  // namespace anadex::sacga
