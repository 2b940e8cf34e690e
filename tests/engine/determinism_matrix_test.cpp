// The determinism matrix (docs/engine.md): every evolver must produce a
// bit-identical final population, front and evaluation count on every
// engine it borrows — any thread count AND any eval-cache capacity — and a
// checkpoint taken on one engine must resume bit-identically on another:
// the engine's `threads` and `eval_cache` are execution knobs, never part
// of the result. Each cell builds its own EvalEngine and hands the evolver
// a handle to it, as expt::start_run does.
#include <cstddef>
#include <sstream>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "engine/eval_engine.hpp"
#include "moga/nsga2.hpp"
#include "moga/scalarize.hpp"
#include "moga/serialize.hpp"
#include "moga/spea2.hpp"
#include "problems/analytic.hpp"
#include "sacga/island.hpp"
#include "sacga/local_only.hpp"
#include "sacga/mesacga.hpp"
#include "sacga/sacga.hpp"

namespace anadex::engine {
namespace {

const std::size_t kThreadMatrix[] = {2, 8};

/// What an evolver's params.engine holds to borrow `engine`: the private
/// cache context 0, as expt::start_run hands out a run's own engine.
EngineHandle borrow(EvalEngine& engine) { return EngineHandle{&engine, 0}; }

std::string exact_bytes(const moga::Population& population) {
  std::ostringstream os;
  moga::save_population_exact(os, population);
  return os.str();
}

// ---- threads in {1, 2, 8} produce identical results -----------------------

TEST(DeterminismMatrix, Nsga2IsThreadCountInvariant) {
  const auto problem = problems::make_kur();
  moga::Nsga2Params params;
  params.population_size = 16;
  params.generations = 10;
  params.seed = 5;
  const auto serial = moga::run_nsga2(*problem, params);  // private serial engine
  for (const std::size_t threads : kThreadMatrix) {
    EvalEngine engine(*problem, threads);
    params.engine = borrow(engine);
    const auto parallel = moga::run_nsga2(*problem, params);
    EXPECT_EQ(exact_bytes(parallel.population), exact_bytes(serial.population))
        << "threads = " << threads;
    EXPECT_EQ(exact_bytes(parallel.front), exact_bytes(serial.front));
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
  }
}

TEST(DeterminismMatrix, Spea2IsThreadCountInvariant) {
  const auto problem = problems::make_kur();
  moga::Spea2Params params;
  params.population_size = 16;
  params.archive_size = 12;
  params.generations = 10;
  params.seed = 5;
  const auto serial = moga::run_spea2(*problem, params);
  for (const std::size_t threads : kThreadMatrix) {
    EvalEngine engine(*problem, threads);
    params.engine = borrow(engine);
    const auto parallel = moga::run_spea2(*problem, params);
    EXPECT_EQ(exact_bytes(parallel.archive), exact_bytes(serial.archive))
        << "threads = " << threads;
    EXPECT_EQ(exact_bytes(parallel.front), exact_bytes(serial.front));
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
  }
}

TEST(DeterminismMatrix, LocalOnlyIsThreadCountInvariant) {
  const auto problem = problems::make_sch();
  sacga::LocalOnlyParams params;
  params.population_size = 16;
  params.partitions = 4;
  params.axis_objective = 0;
  params.axis_lo = 0.0;
  params.axis_hi = 4.0;
  params.generations = 10;
  params.seed = 7;
  const auto serial = sacga::run_local_only(*problem, params);
  for (const std::size_t threads : kThreadMatrix) {
    EvalEngine engine(*problem, threads);
    params.engine = borrow(engine);
    const auto parallel = sacga::run_local_only(*problem, params);
    EXPECT_EQ(exact_bytes(parallel.population), exact_bytes(serial.population))
        << "threads = " << threads;
    EXPECT_EQ(exact_bytes(parallel.front), exact_bytes(serial.front));
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
  }
}

TEST(DeterminismMatrix, SacgaIsThreadCountInvariant) {
  const auto problem = problems::make_sch();
  sacga::SacgaParams params;
  params.population_size = 16;
  params.partitions = 4;
  params.axis_objective = 0;
  params.axis_lo = 0.0;
  params.axis_hi = 4.0;
  params.phase1_max_generations = 6;
  params.span = 16;
  params.span_is_total_budget = true;
  params.seed = 3;
  const auto serial = sacga::run_sacga(*problem, params);
  for (const std::size_t threads : kThreadMatrix) {
    EvalEngine engine(*problem, threads);
    params.engine = borrow(engine);
    const auto parallel = sacga::run_sacga(*problem, params);
    EXPECT_EQ(exact_bytes(parallel.population), exact_bytes(serial.population))
        << "threads = " << threads;
    EXPECT_EQ(exact_bytes(parallel.front), exact_bytes(serial.front));
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
  }
}

TEST(DeterminismMatrix, MesacgaIsThreadCountInvariant) {
  const auto problem = problems::make_sch();
  sacga::MesacgaParams params;
  params.population_size = 16;
  params.partition_schedule = {4, 2, 1};
  params.axis_objective = 0;
  params.axis_lo = 0.0;
  params.axis_hi = 4.0;
  params.phase1_max_generations = 4;
  params.span = 4;
  params.seed = 11;
  const auto serial = sacga::run_mesacga(*problem, params);
  for (const std::size_t threads : kThreadMatrix) {
    EvalEngine engine(*problem, threads);
    params.engine = borrow(engine);
    const auto parallel = sacga::run_mesacga(*problem, params);
    EXPECT_EQ(exact_bytes(parallel.population), exact_bytes(serial.population))
        << "threads = " << threads;
    EXPECT_EQ(exact_bytes(parallel.front), exact_bytes(serial.front));
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
  }
}

TEST(DeterminismMatrix, IslandGaIsThreadCountInvariant) {
  const auto problem = problems::make_kur();
  sacga::IslandParams params;
  params.islands = 3;
  params.island_population = 8;
  params.generations = 9;
  params.migration_interval = 4;
  params.migrants = 1;
  params.seed = 13;
  const auto serial = sacga::run_island_ga(*problem, params);
  for (const std::size_t threads : kThreadMatrix) {
    EvalEngine engine(*problem, threads);
    params.engine = borrow(engine);
    const auto parallel = sacga::run_island_ga(*problem, params);
    EXPECT_EQ(exact_bytes(parallel.population), exact_bytes(serial.population))
        << "threads = " << threads;
    EXPECT_EQ(exact_bytes(parallel.front), exact_bytes(serial.front));
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
    EXPECT_EQ(parallel.migrations, serial.migrations);
  }
}

TEST(DeterminismMatrix, WeightedSumIsThreadCountInvariant) {
  const auto problem = problems::make_sch();
  moga::WeightedSumParams params;
  params.weight_count = 4;
  params.population_size = 12;
  params.generations_per_weight = 8;
  params.seed = 17;
  const auto serial = moga::run_weighted_sum(*problem, params);
  for (const std::size_t threads : kThreadMatrix) {
    EvalEngine engine(*problem, threads);
    params.engine = borrow(engine);
    const auto parallel = moga::run_weighted_sum(*problem, params);
    EXPECT_EQ(exact_bytes(parallel.front), exact_bytes(serial.front))
        << "threads = " << threads;
    EXPECT_EQ(exact_bytes(parallel.all_winners), exact_bytes(serial.all_winners));
    EXPECT_EQ(parallel.evaluations, serial.evaluations);
  }
}

// ---- eval cache on/off x threads {1, 2, 8} produce identical results ------

/// Runs the evolver once without the cache (serial), then on engines with a
/// 64-entry dedup cache and 1, 2 and 8 evaluation threads. Every cell of the
/// matrix must produce the same bytes and the same requested-evaluation
/// count; only the distinct-evaluation accounting may differ.
template <class Params, class Run, class Bytes>
void expect_cache_invariant(const moga::Problem& problem, Params base, Run run,
                            Bytes bytes) {
  const auto baseline = run(problem, base);  // private serial engine, no cache
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    EvalEngine engine(problem, threads, nullptr, 64);
    Params cached = base;
    cached.engine = borrow(engine);
    const auto with_cache = run(problem, cached);
    EXPECT_EQ(bytes(with_cache), bytes(baseline)) << "threads = " << threads;
    EXPECT_EQ(with_cache.evaluations, baseline.evaluations);
    EXPECT_EQ(with_cache.eval_stats.requested, baseline.eval_stats.requested);
    // The cache never invents work: dispatched <= requested.
    EXPECT_LE(with_cache.eval_stats.evaluated, with_cache.eval_stats.requested);
    EXPECT_EQ(with_cache.eval_stats.evaluated + with_cache.eval_stats.cache_hits(),
              with_cache.eval_stats.requested);
  }
}

TEST(DeterminismMatrix, Nsga2IsCacheInvariant) {
  const auto problem = problems::make_kur();
  moga::Nsga2Params params;
  params.population_size = 16;
  params.generations = 10;
  params.seed = 5;
  expect_cache_invariant(*problem, params,
                         [](const moga::Problem& p, const moga::Nsga2Params& q) {
                           return moga::run_nsga2(p, q);
                         },
                         [](const moga::Nsga2Result& r) {
                           return exact_bytes(r.population) + exact_bytes(r.front);
                         });
}

TEST(DeterminismMatrix, Spea2IsCacheInvariant) {
  const auto problem = problems::make_kur();
  moga::Spea2Params params;
  params.population_size = 16;
  params.archive_size = 12;
  params.generations = 10;
  params.seed = 5;
  expect_cache_invariant(*problem, params,
                         [](const moga::Problem& p, const moga::Spea2Params& q) {
                           return moga::run_spea2(p, q);
                         },
                         [](const moga::Spea2Result& r) {
                           return exact_bytes(r.archive) + exact_bytes(r.front);
                         });
}

TEST(DeterminismMatrix, LocalOnlyIsCacheInvariant) {
  const auto problem = problems::make_sch();
  sacga::LocalOnlyParams params;
  params.population_size = 16;
  params.partitions = 4;
  params.axis_objective = 0;
  params.axis_lo = 0.0;
  params.axis_hi = 4.0;
  params.generations = 10;
  params.seed = 7;
  expect_cache_invariant(*problem, params,
                         [](const moga::Problem& p, const sacga::LocalOnlyParams& q) {
                           return sacga::run_local_only(p, q);
                         },
                         [](const sacga::LocalOnlyResult& r) {
                           return exact_bytes(r.population) + exact_bytes(r.front);
                         });
}

TEST(DeterminismMatrix, SacgaIsCacheInvariant) {
  const auto problem = problems::make_sch();
  sacga::SacgaParams params;
  params.population_size = 16;
  params.partitions = 4;
  params.axis_objective = 0;
  params.axis_lo = 0.0;
  params.axis_hi = 4.0;
  params.phase1_max_generations = 6;
  params.span = 16;
  params.span_is_total_budget = true;
  params.seed = 3;
  expect_cache_invariant(*problem, params,
                         [](const moga::Problem& p, const sacga::SacgaParams& q) {
                           return sacga::run_sacga(p, q);
                         },
                         [](const sacga::SacgaResult& r) {
                           return exact_bytes(r.population) + exact_bytes(r.front);
                         });
}

TEST(DeterminismMatrix, MesacgaIsCacheInvariant) {
  const auto problem = problems::make_sch();
  sacga::MesacgaParams params;
  params.population_size = 16;
  params.partition_schedule = {4, 2, 1};
  params.axis_objective = 0;
  params.axis_lo = 0.0;
  params.axis_hi = 4.0;
  params.phase1_max_generations = 4;
  params.span = 4;
  params.seed = 11;
  expect_cache_invariant(*problem, params,
                         [](const moga::Problem& p, const sacga::MesacgaParams& q) {
                           return sacga::run_mesacga(p, q);
                         },
                         [](const sacga::MesacgaResult& r) {
                           return exact_bytes(r.population) + exact_bytes(r.front);
                         });
}

TEST(DeterminismMatrix, IslandGaIsCacheInvariant) {
  const auto problem = problems::make_kur();
  sacga::IslandParams params;
  params.islands = 3;
  params.island_population = 8;
  params.generations = 9;
  params.migration_interval = 4;
  params.migrants = 1;
  params.seed = 13;
  expect_cache_invariant(*problem, params,
                         [](const moga::Problem& p, const sacga::IslandParams& q) {
                           return sacga::run_island_ga(p, q);
                         },
                         [](const sacga::IslandResult& r) {
                           return exact_bytes(r.population) + exact_bytes(r.front);
                         });
}

TEST(DeterminismMatrix, WeightedSumIsCacheInvariant) {
  const auto problem = problems::make_sch();
  moga::WeightedSumParams params;
  params.weight_count = 4;
  params.population_size = 12;
  params.generations_per_weight = 8;
  params.seed = 17;
  expect_cache_invariant(*problem, params,
                         [](const moga::Problem& p, const moga::WeightedSumParams& q) {
                           return moga::run_weighted_sum(p, q);
                         },
                         [](const moga::WeightedSumResult& r) {
                           return exact_bytes(r.front) + exact_bytes(r.all_winners);
                         });
}

// ---- a checkpoint on an 8-thread engine resumes bit-identically serially --

/// Runs the evolver serially end-to-end, then snapshots a run on an
/// 8-thread engine and resumes the FIRST (earliest) snapshot serially.
/// Both paths must land on the same bytes.
template <class Params, class Run>
void expect_cross_thread_resume(const moga::Problem& problem, Params base, Run run) {
  const auto full = run(problem, base);  // private serial engine throughout

  EvalEngine engine(problem, 8);
  Params snapshotting = base;
  snapshotting.engine = borrow(engine);
  snapshotting.snapshot_every = 3;
  std::vector<std::remove_cvref_t<decltype(*base.resume)>> states;
  snapshotting.on_snapshot = [&](const auto& s) { states.push_back(s); };
  (void)run(problem, snapshotting);
  ASSERT_FALSE(states.empty());

  Params resumed_params = base;  // back to a private serial engine
  resumed_params.resume = &states.front();
  const auto resumed = run(problem, resumed_params);
  EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
  EXPECT_EQ(resumed.evaluations, full.evaluations);
}

TEST(DeterminismMatrix, Nsga2CheckpointCrossesThreadCounts) {
  const auto problem = problems::make_sch();
  moga::Nsga2Params base;
  base.population_size = 16;
  base.generations = 10;
  base.seed = 5;
  expect_cross_thread_resume(*problem, base,
                             [](const moga::Problem& p, const moga::Nsga2Params& params) {
                               return moga::run_nsga2(p, params);
                             });
}

TEST(DeterminismMatrix, Spea2CheckpointCrossesThreadCounts) {
  const auto problem = problems::make_sch();
  moga::Spea2Params base;
  base.population_size = 16;
  base.archive_size = 12;
  base.generations = 10;
  base.seed = 5;
  expect_cross_thread_resume(*problem, base,
                             [](const moga::Problem& p, const moga::Spea2Params& params) {
                               return moga::run_spea2(p, params);
                             });
}

TEST(DeterminismMatrix, SacgaCheckpointCrossesThreadCounts) {
  const auto problem = problems::make_sch();
  sacga::SacgaParams base;
  base.population_size = 16;
  base.partitions = 4;
  base.axis_objective = 0;
  base.axis_lo = 0.0;
  base.axis_hi = 4.0;
  base.phase1_max_generations = 6;
  base.span = 16;
  base.span_is_total_budget = true;
  base.seed = 3;
  expect_cross_thread_resume(*problem, base,
                             [](const moga::Problem& p, const sacga::SacgaParams& params) {
                               return sacga::run_sacga(p, params);
                             });
}

// ---- a checkpoint under a cache resumes bit-identically without one -------

/// Snapshots a run on a cached 2-thread engine, then resumes its earliest
/// snapshot serially with the cache off. Checkpoint bytes carry no cache
/// state, so both paths must land on the same result.
template <class Params, class Run>
void expect_cross_cache_resume(const moga::Problem& problem, Params base, Run run) {
  const auto full = run(problem, base);  // private serial engine, no cache

  EvalEngine engine(problem, 2, nullptr, 64);
  Params snapshotting = base;
  snapshotting.engine = borrow(engine);
  snapshotting.snapshot_every = 3;
  std::vector<std::remove_cvref_t<decltype(*base.resume)>> states;
  snapshotting.on_snapshot = [&](const auto& s) { states.push_back(s); };
  (void)run(problem, snapshotting);
  ASSERT_FALSE(states.empty());

  Params resumed_params = base;  // private serial engine, cache off again
  resumed_params.resume = &states.front();
  const auto resumed = run(problem, resumed_params);
  EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
  EXPECT_EQ(resumed.evaluations, full.evaluations);
}

TEST(DeterminismMatrix, Nsga2CheckpointCrossesCacheSettings) {
  const auto problem = problems::make_sch();
  moga::Nsga2Params base;
  base.population_size = 16;
  base.generations = 10;
  base.seed = 5;
  expect_cross_cache_resume(*problem, base,
                            [](const moga::Problem& p, const moga::Nsga2Params& params) {
                              return moga::run_nsga2(p, params);
                            });
}

TEST(DeterminismMatrix, SacgaCheckpointCrossesCacheSettings) {
  const auto problem = problems::make_sch();
  sacga::SacgaParams base;
  base.population_size = 16;
  base.partitions = 4;
  base.axis_objective = 0;
  base.axis_lo = 0.0;
  base.axis_hi = 4.0;
  base.phase1_max_generations = 6;
  base.span = 16;
  base.span_is_total_budget = true;
  base.seed = 3;
  expect_cross_cache_resume(*problem, base,
                            [](const moga::Problem& p, const sacga::SacgaParams& params) {
                              return sacga::run_sacga(p, params);
                            });
}

TEST(DeterminismMatrix, IslandCheckpointCrossesThreadCounts) {
  const auto problem = problems::make_sch();
  sacga::IslandParams base;
  base.islands = 2;
  base.island_population = 8;
  base.generations = 10;
  base.migration_interval = 4;
  base.migrants = 1;
  base.seed = 13;
  expect_cross_thread_resume(*problem, base,
                             [](const moga::Problem& p, const sacga::IslandParams& params) {
                               return sacga::run_island_ga(p, params);
                             });
}

}  // namespace
}  // namespace anadex::engine
