#include "shard/worker.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "engine/engine_lease.hpp"
#include "moga/nds.hpp"
#include "moga/selection.hpp"
#include "robust/chaos.hpp"
#include "robust/checkpoint.hpp"
#include "sacga/island.hpp"
#include "shard/migrants.hpp"

namespace anadex::shard {

std::string shard_checkpoint_name(std::size_t shard) {
  return "shard" + std::to_string(shard) + ".cp";
}

std::string shard_final_name(std::size_t shard) {
  return "shard" + std::to_string(shard) + ".final.cp";
}

std::string shard_stats_name(std::size_t shard) {
  return "shard" + std::to_string(shard) + ".stats";
}

std::string shard_config_digest(const expt::RunSettings& settings,
                                const Topology& topology, std::size_t shard) {
  return expt::run_config_digest(settings) + " shard=" + std::to_string(shard) +
         "/" + std::to_string(topology.shards);
}

void run_shard_worker(const moga::Problem& problem, const WorkerContext& ctx) {
  const expt::RunSettings& s = ctx.settings;
  const Topology& topo = ctx.topology;
  ANADEX_REQUIRE(ctx.shard < topo.shards, "shard worker: shard index out of range");
  const sacga::IslandParams params = expt::detail::island_params_from(s);
  const std::vector<std::size_t> owned = topo.islands_of(ctx.shard);
  const auto owned_index = [&owned](std::size_t island) {
    const auto it = std::lower_bound(owned.begin(), owned.end(), island);
    ANADEX_ASSERT(it != owned.end() && *it == island,
                  "shard worker: island not owned by this shard");
    return static_cast<std::size_t>(it - owned.begin());
  };

  // The solo run's evaluation stack, so retry behaviour and fault
  // accounting are byte-compatible with it.
  expt::detail::EvalStack stack(
      std::shared_ptr<const moga::Problem>(std::shared_ptr<void>(), &problem), s, nullptr);
  robust::GuardedProblem& guarded = stack.guarded();
  const auto bounds = guarded.bounds();
  const engine::EngineLease eval(guarded, stack.handle(), nullptr);

  robust::CheckpointMeta meta;
  meta.algo = expt::algo_name(s.algo);
  meta.seed = s.seed;
  meta.population = s.population;
  meta.generations = s.generations;
  meta.config = shard_config_digest(s, topo, ctx.shard);

  const std::string cp_path = (ctx.dir / shard_checkpoint_name(ctx.shard)).string();
  const EpochBarrier barrier(ctx.dir, ctx.poll, ctx.fsync);

  std::vector<moga::Population> islands;
  std::vector<Rng> rngs;
  std::size_t next_generation = 0;
  std::size_t evaluations = 0;
  std::size_t migrations = 0;
  moga::RankingScratch ranking;

  // Built-in ResumeMode::Auto over the shard's own chain: a relaunched
  // worker picks up its newest valid slot; with no usable slot it starts
  // fresh. The coordinator seeds these partials when the whole run resumes
  // from a canonical checkpoint (possibly written at a different shard
  // count), so this one code path covers fresh start, crash restart and
  // cross-shard-count resume alike.
  const auto recovered = robust::recover_checkpoint(cp_path);
  if (recovered.has_value()) {
    const robust::Checkpoint& cp = recovered->checkpoint;
    ANADEX_REQUIRE(cp.meta == meta,
                   "shard worker: partial checkpoint '" + recovered->path +
                       "' was written by a different run configuration");
    ANADEX_REQUIRE(cp.island.has_value(),
                   "shard worker: partial checkpoint holds no island state");
    const sacga::IslandState& state = *cp.island;
    ANADEX_REQUIRE(
        state.islands.size() == owned.size() && state.rngs.size() == owned.size(),
        "shard worker: partial checkpoint island count does not match topology");
    islands = state.islands;
    for (const auto& rng_state : state.rngs) {
      rngs.emplace_back(1);
      rngs.back().set_state(rng_state);
    }
    next_generation = state.next_generation;
    evaluations = state.evaluations;
    migrations = state.migrations;
    guarded.set_report(cp.faults);
  } else {
    // Fresh start. Derive EVERY island's private stream exactly as the solo
    // run does — the master RNG is consumed only by the splits, in island
    // order — then draw and evaluate just the owned islands. Each island's
    // genomes come from its own stream, so skipping foreign islands changes
    // nothing the owned islands see.
    Rng master(s.seed);
    std::vector<Rng> all_streams;
    all_streams.reserve(topo.islands);
    for (std::size_t i = 0; i < topo.islands; ++i) {
      all_streams.push_back(master.split());
    }
    islands.resize(owned.size());
    for (std::size_t k = 0; k < owned.size(); ++k) {
      rngs.push_back(all_streams[owned[k]]);
      islands[k].resize(params.island_population);
      for (auto& member : islands[k]) {
        member.genes = moga::random_genome(bounds, rngs[k]);
      }
    }
    for (auto& island : islands) {
      eval.evaluate_members(island);
      evaluations += island.size();
    }
    for (auto& island : islands) {
      auto fronts = ranking.sort(island);
      for (const auto& front : fronts) ranking.crowding(island, front);
    }
  }

  robust::CheckpointWriteOptions cp_options;
  cp_options.keep = s.checkpoint_keep;
  cp_options.fsync = ctx.fsync;
  cp_options.hook = s.checkpoint_write_hook;
  const auto write_partial = [&](std::size_t next_gen_value) {
    robust::Checkpoint cp;
    cp.meta = meta;
    cp.faults = guarded.report();
    sacga::IslandState state;
    state.islands = islands;
    state.rngs.reserve(rngs.size());
    for (const auto& r : rngs) state.rngs.push_back(r.state());
    state.next_generation = next_gen_value;
    state.evaluations = evaluations;
    state.migrations = migrations;
    cp.island = std::move(state);
    robust::write_checkpoint_file(cp_path, cp, cp_options);
    return cp;
  };

  const moga::Preference prefer = [](const moga::Individual& a,
                                     const moga::Individual& b) {
    return moga::crowded_less(a, b);
  };
  const std::size_t n = params.island_population;

  for (std::size_t gen = next_generation; gen < params.generations; ++gen) {
    // Stages 1-3 mirror run_island_ga verbatim, restricted to owned
    // islands: breed from each island's private stream, evaluate ONE batch
    // spanning the shard's offspring, compete survivors per island.
    moga::Population children;
    children.reserve(owned.size() * n);
    for (std::size_t k = 0; k < owned.size(); ++k) {
      auto offspring =
          moga::make_offspring(islands[k], bounds, params.variation, prefer, n, rngs[k]);
      for (auto& genes : offspring) {
        moga::Individual child;
        child.genes = std::move(genes);
        children.push_back(std::move(child));
      }
    }
    eval.evaluate_members(children);
    evaluations += children.size();
    for (std::size_t k = 0; k < owned.size(); ++k) {
      moga::Population pool;
      pool.reserve(2 * n);
      for (auto& p : islands[k]) pool.push_back(std::move(p));
      for (std::size_t j = 0; j < n; ++j) pool.push_back(std::move(children[k * n + j]));
      sacga::island_select_survivors(islands[k], std::move(pool), n, ranking);
    }

    const bool at_epoch = (gen + 1) % params.migration_interval == 0;
    std::size_t epoch = 0;
    if (at_epoch) {
      epoch = (gen + 1) / params.migration_interval;
      // Emigrants for ALL owned islands are selected before ANY island
      // integrates — the order the solo migrate() uses, which matters when
      // a shard owns adjacent ring islands.
      std::vector<moga::Population> outgoing(owned.size());
      for (std::size_t k = 0; k < owned.size(); ++k) {
        outgoing[k] = sacga::island_emigrants(islands[k], params.migrants);
      }
      for (std::size_t k = 0; k < owned.size(); ++k) {
        const std::size_t dest = topo.successor(owned[k]);
        if (topo.shard_of(dest) != ctx.shard) barrier.publish(epoch, owned[k], outgoing[k]);
      }
      if (ctx.chaos.has_value() && ctx.chaos->shard == ctx.shard &&
          ctx.chaos->epoch == epoch) {
        // Mid-exchange: migrants published, nothing integrated — the
        // nastiest instant to die. The relaunched worker replays from its
        // newest partial and republishes byte-identical files.
        throw robust::InjectedCrash("shard chaos: injected crash of shard " +
                                    std::to_string(ctx.shard) + " mid-epoch " +
                                    std::to_string(epoch));
      }
      // Each destination island receives from exactly one ring predecessor,
      // so integration order across destinations is irrelevant; local edges
      // settle in memory, remote ones block on the barrier.
      for (std::size_t k = 0; k < owned.size(); ++k) {
        const std::size_t dest = topo.successor(owned[k]);
        if (topo.shard_of(dest) == ctx.shard) {
          sacga::island_immigrate(islands[owned_index(dest)], std::move(outgoing[k]));
        }
      }
      for (std::size_t k = 0; k < owned.size(); ++k) {
        const std::size_t source = topo.predecessor(owned[k]);
        if (topo.shard_of(source) != ctx.shard) {
          sacga::island_immigrate(islands[k], barrier.collect(epoch, source));
        }
      }
      ++migrations;
    }

    const bool at_cp_barrier =
        s.checkpoint_every > 0 && (gen + 1) % s.checkpoint_every == 0;
    const bool stopping =
        at_epoch && ctx.stop_after_epoch > 0 && epoch >= ctx.stop_after_epoch;
    if (at_cp_barrier || stopping) write_partial(gen + 1);
    if (stopping) return;
  }

  // Completion artifacts, in implication order: the chain's newest slot is
  // the final state (a relaunch of a finished worker becomes a no-op
  // replay), the stats summary lands next, and the final checkpoint's
  // atomic rename is the "this shard completed" signal — whoever sees it
  // can rely on everything written before it.
  const robust::Checkpoint final_cp = write_partial(params.generations);
  const engine::EvalStats stats = eval.stats();
  const std::string stats_path = (ctx.dir / shard_stats_name(ctx.shard)).string();
  const std::string stats_tmp = stats_path + ".tmp";
  {
    std::ofstream os(stats_tmp, std::ios::trunc);
    ANADEX_REQUIRE(os.good(), "shard worker: cannot open '" + stats_tmp + "'");
    os << "anadex-shard-stats v1\n"
       << "stats " << stats.requested << ' ' << stats.evaluated << ' '
       << stats.cache_hits() << '\n';
    os.flush();
    ANADEX_REQUIRE(os.good(), "shard worker: failed writing '" + stats_tmp + "'");
  }
  ANADEX_REQUIRE(std::rename(stats_tmp.c_str(), stats_path.c_str()) == 0,
                 "shard worker: failed renaming '" + stats_path + "' into place");
  robust::CheckpointWriteOptions final_options;
  final_options.keep = 1;
  final_options.fsync = ctx.fsync;
  robust::write_checkpoint_file((ctx.dir / shard_final_name(ctx.shard)).string(),
                                final_cp, final_options);
}

}  // namespace anadex::shard
