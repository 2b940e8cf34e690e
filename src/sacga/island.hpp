// Island-model multi-objective GA — the diversity-preservation alternative
// the paper cites (§4.1): "A known method of diversity preservation is
// parallel population GA with inter-population migration controlled in a
// tribe or island based framework, which can be extended for Multi-
// objective GA." Implemented here as a comparison baseline: several
// independent NSGA-II-style sub-populations with periodic ring migration
// of front members. SACGA's claim is that its single-population local/
// global mixing achieves the same diversity more simply.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "engine/evolver_common.hpp"
#include "moga/nds.hpp"
#include "moga/nsga2.hpp"
#include "moga/operators.hpp"
#include "moga/problem.hpp"

namespace anadex::sacga {

/// Resumable state of an island-GA run: every island's ranked population
/// and private RNG stream, plus the cumulative counters. (The master RNG is
/// only used to seed the islands at initialization, so it is not stored.)
struct IslandState {
  std::vector<moga::Population> islands;
  std::vector<RngState> rngs;  ///< parallel to `islands`
  std::size_t next_generation = 0;
  std::size_t evaluations = 0;
  std::size_t migrations = 0;
};

/// Configuration of an island-GA run. Seed, evaluation threads and the
/// checkpoint/resume hooks live in the EvolverCommon base. Offspring of ALL
/// islands are evaluated as one batch per generation, so the worker pool
/// stays busy even with small per-island populations.
struct IslandParams : engine::EvolverCommon<IslandState> {
  std::size_t islands = 4;             ///< sub-population count (>= 2)
  std::size_t island_population = 25;  ///< members per island (even, >= 4)
  std::size_t generations = 800;
  std::size_t migration_interval = 25; ///< generations between migrations
  std::size_t migrants = 2;            ///< individuals sent to the next island
  moga::VariationParams variation;
};

struct IslandResult : moga::EvolverResult {
  moga::Population population;  ///< union of all islands at the end
  std::size_t migrations = 0;
};

/// The island GA as a step object (moga/generation_driver.hpp): built
/// fresh or from params.resume, step() runs one generation. Each island
/// evolves with NSGA-II ranking; every `migration_interval` generations the
/// best (rank-0, most isolated) `migrants` of each island replace the worst
/// members of the next island in the ring.
class IslandGa : public moga::EvolverCore<IslandParams> {
 public:
  using State = IslandState;

  IslandGa(const moga::Problem& problem, const IslandParams& params);

  void step(const moga::GenerationCallback& on_generation);
  State state() const;
  IslandResult result() const;

 private:
  /// Every island's members, in ring order.
  moga::Population combined() const;

  moga::RankingScratch ranking_;  ///< SoA buffers shared by all islands
  std::vector<moga::Population> islands_;
  std::vector<Rng> rngs_;  ///< parallel to islands_
  std::size_t migrations_ = 0;
};

/// Runs the island GA. Deterministic per seed.
IslandResult run_island_ga(const moga::Problem& problem, const IslandParams& params,
                           const moga::GenerationCallback& on_generation = {});

// --- island primitives, shared with the sharded runner (src/shard) ---
// run_island_ga and the shard worker both build their generation step out of
// these three helpers, so a shard-local island competes, emigrates and
// receives byte-identically to the same island inside a solo run.

/// NSGA-II elitist survivor selection over one island's parent+offspring
/// pool (all members already evaluated). Leaves `island` ranked with
/// crowding distances assigned.
inline void island_select_survivors(moga::Population& island, moga::Population&& pool,
                                    std::size_t n, moga::RankingScratch& ranking) {
  moga::select_survivors(island, std::move(pool), n, ranking);
}

/// The `migrants` ring-travelling copies of `island`, best first ("best" =
/// crowded_less order: rank 0 with the largest crowding). The island itself
/// is untouched — migration sends copies.
moga::Population island_emigrants(const moga::Population& island, std::size_t migrants);

/// Ring-migration arrival: the immigrants (best first, as produced by
/// island_emigrants) replace the worst members of `destination`, worst
/// replaced first. Order-sensitive by contract — callers must integrate a
/// full epoch's emigrant selection before any island receives.
void island_immigrate(moga::Population& destination, moga::Population immigrants);

}  // namespace anadex::sacga
