// Checkpoint/resume determinism at the algorithm level: a run interrupted
// at ANY snapshot and resumed from it must finish byte-identical to the
// uninterrupted run — same final population (genes, objectives, rank,
// crowding, all bit-exact via the v2 serialization), same front, same
// cumulative evaluation count.
#include <optional>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.hpp"
#include "moga/nsga2.hpp"
#include "moga/serialize.hpp"
#include "moga/spea2.hpp"
#include "problems/analytic.hpp"
#include "sacga/island.hpp"
#include "sacga/local_only.hpp"
#include "sacga/mesacga.hpp"
#include "sacga/sacga.hpp"

namespace anadex::robust {
namespace {

std::string exact_bytes(const moga::Population& population) {
  std::ostringstream os;
  moga::save_population_exact(os, population);
  return os.str();
}

TEST(Resume, Nsga2ResumesBitIdenticallyFromEverySnapshot) {
  const auto problem = problems::make_sch();
  moga::Nsga2Params base;
  base.population_size = 16;
  base.generations = 12;
  base.seed = 5;
  const auto full = moga::run_nsga2(*problem, base);

  moga::Nsga2Params snapshotting = base;
  snapshotting.snapshot_every = 5;
  std::vector<moga::Nsga2State> states;
  snapshotting.on_snapshot = [&](const moga::Nsga2State& s) { states.push_back(s); };
  (void)moga::run_nsga2(*problem, snapshotting);
  ASSERT_EQ(states.size(), 2u);  // generations 5 and 10

  for (const auto& state : states) {
    moga::Nsga2Params resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = moga::run_nsga2(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
    EXPECT_EQ(resumed.generations_run, full.generations_run);
  }
}

TEST(Resume, Spea2ResumesBitIdenticallyFromEverySnapshot) {
  const auto problem = problems::make_sch();
  moga::Spea2Params base;
  base.population_size = 16;
  base.archive_size = 12;
  base.generations = 12;
  base.seed = 5;
  const auto full = moga::run_spea2(*problem, base);

  moga::Spea2Params snapshotting = base;
  snapshotting.snapshot_every = 5;
  std::vector<moga::Spea2State> states;
  snapshotting.on_snapshot = [&](const moga::Spea2State& s) { states.push_back(s); };
  (void)moga::run_spea2(*problem, snapshotting);
  ASSERT_EQ(states.size(), 2u);  // generations 5 and 10

  for (const auto& state : states) {
    moga::Spea2Params resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = moga::run_spea2(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.archive), exact_bytes(full.archive));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
    EXPECT_EQ(resumed.generations_run, full.generations_run);
  }
}

TEST(Resume, LocalOnlyResumesBitIdenticallyFromEverySnapshot) {
  const auto problem = problems::make_sch();
  sacga::LocalOnlyParams base;
  base.population_size = 16;
  base.partitions = 4;
  base.axis_objective = 0;
  base.axis_lo = 0.0;
  base.axis_hi = 4.0;
  base.generations = 12;
  base.seed = 7;
  const auto full = sacga::run_local_only(*problem, base);

  sacga::LocalOnlyParams snapshotting = base;
  snapshotting.snapshot_every = 5;
  std::vector<sacga::LocalOnlyState> states;
  snapshotting.on_snapshot = [&](const sacga::LocalOnlyState& s) { states.push_back(s); };
  (void)sacga::run_local_only(*problem, snapshotting);
  ASSERT_FALSE(states.empty());

  for (const auto& state : states) {
    sacga::LocalOnlyParams resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = sacga::run_local_only(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
  }
}

TEST(Resume, SacgaResumesBitIdenticallyAcrossBothPhases) {
  const auto problem = problems::make_sch();
  sacga::SacgaParams base;
  base.population_size = 16;
  base.partitions = 4;
  base.axis_objective = 0;
  base.axis_lo = 0.0;
  base.axis_hi = 4.0;
  base.phase1_max_generations = 6;
  base.span = 20;
  base.span_is_total_budget = true;
  base.seed = 3;
  const auto full = sacga::run_sacga(*problem, base);

  sacga::SacgaParams snapshotting = base;
  snapshotting.snapshot_every = 3;  // lands inside phase I and phase II
  std::vector<sacga::SacgaState> states;
  snapshotting.on_snapshot = [&](const sacga::SacgaState& s) { states.push_back(s); };
  (void)sacga::run_sacga(*problem, snapshotting);
  ASSERT_GE(states.size(), 3u);
  EXPECT_FALSE(states.front().phase1_done);  // earliest snapshot is mid-phase-I
  EXPECT_TRUE(states.back().phase1_done);

  for (const auto& state : states) {
    sacga::SacgaParams resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = sacga::run_sacga(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
    EXPECT_EQ(resumed.generations_run, full.generations_run);
    EXPECT_EQ(resumed.phase1_generations, full.phase1_generations);
  }
}

TEST(Resume, MesacgaResumesBitIdenticallyAcrossPhaseBoundaries) {
  const auto problem = problems::make_sch();
  sacga::MesacgaParams base;
  base.population_size = 16;
  base.partition_schedule = {4, 2, 1};
  base.axis_objective = 0;
  base.axis_lo = 0.0;
  base.axis_hi = 4.0;
  base.phase1_max_generations = 4;
  base.span = 6;
  base.seed = 11;
  const auto full = sacga::run_mesacga(*problem, base);

  sacga::MesacgaParams snapshotting = base;
  // With gen_t = 4 and span 6, phase boundaries fall on generations 10, 16
  // and 22; every-2 snapshots hit phase interiors AND exact boundaries.
  snapshotting.snapshot_every = 2;
  std::vector<sacga::MesacgaState> states;
  snapshotting.on_snapshot = [&](const sacga::MesacgaState& s) { states.push_back(s); };
  (void)sacga::run_mesacga(*problem, snapshotting);
  ASSERT_GE(states.size(), 4u);

  for (const auto& state : states) {
    sacga::MesacgaParams resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = sacga::run_mesacga(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
    EXPECT_EQ(resumed.generations_run, full.generations_run);
    ASSERT_EQ(resumed.phases.size(), full.phases.size());
    for (std::size_t p = 0; p < full.phases.size(); ++p) {
      EXPECT_EQ(resumed.phases[p].partitions, full.phases[p].partitions);
      EXPECT_EQ(exact_bytes(resumed.phases[p].front), exact_bytes(full.phases[p].front));
    }
  }
}

/// Raises the stop token after each generation g of the run in turn,
/// resumes from the off-cycle snapshot the stop writes, and expects the
/// uninterrupted run's bytes. Every algorithm stops right after the
/// generation it was asked to, in either SACGA phase — also after the last
/// phase-I generation, before the infeasible-partition discard.
template <class State, class Params, class Run>
void expect_resume_after_stop_at_any_barrier(const Params& base, const Run& run) {
  const auto full = run(base, moga::GenerationCallback{});
  ASSERT_GT(full.generations_run, 2u);
  for (std::size_t g = 0; g + 1 < full.generations_run; ++g) {
    CancelToken stop;
    std::optional<State> saved;
    Params stopping = base;
    stopping.stop = &stop;
    stopping.on_snapshot = [&saved](const State& state) { saved = state; };
    const auto stopped = run(stopping, [&stop, g](std::size_t gen, const moga::Population&) {
      if (gen == g) stop.request();
    });
    ASSERT_TRUE(stopped.interrupted) << "stop after generation " << g;
    ASSERT_TRUE(saved.has_value()) << "stop after generation " << g;
    EXPECT_EQ(stopped.generations_run, g + 1);

    Params resumed_params = base;
    resumed_params.resume = &*saved;
    const auto resumed = run(resumed_params, moga::GenerationCallback{});
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population))
        << "stop after generation " << g;
    EXPECT_EQ(resumed.evaluations, full.evaluations) << "stop after generation " << g;
    EXPECT_EQ(resumed.generations_run, full.generations_run);
  }
}

TEST(Resume, SacgaFamilyResumesAfterStopAtAnyBarrier) {
  const auto problem = problems::make_sch();
  sacga::SacgaParams sacga_params;
  sacga_params.population_size = 16;
  sacga_params.partitions = 4;
  sacga_params.axis_objective = 0;
  sacga_params.axis_hi = 4.0;
  sacga_params.phase1_max_generations = 6;
  sacga_params.span = 20;
  sacga_params.span_is_total_budget = true;
  sacga_params.seed = 3;
  expect_resume_after_stop_at_any_barrier<sacga::SacgaState>(
      sacga_params, [&](const sacga::SacgaParams& p, const moga::GenerationCallback& cb) {
        return sacga::run_sacga(*problem, p, cb);
      });

  sacga::MesacgaParams mesacga_params;
  mesacga_params.population_size = 16;
  mesacga_params.partition_schedule = {4, 2, 1};
  mesacga_params.axis_objective = 0;
  mesacga_params.axis_hi = 4.0;
  mesacga_params.phase1_max_generations = 4;
  mesacga_params.span = 6;
  mesacga_params.seed = 11;
  expect_resume_after_stop_at_any_barrier<sacga::MesacgaState>(
      mesacga_params, [&](const sacga::MesacgaParams& p, const moga::GenerationCallback& cb) {
        return sacga::run_mesacga(*problem, p, cb);
      });
}

TEST(Resume, IslandGaResumesBitIdenticallyAcrossMigrations) {
  const auto problem = problems::make_sch();
  sacga::IslandParams base;
  base.islands = 2;
  base.island_population = 8;
  base.generations = 12;
  base.migration_interval = 4;
  base.migrants = 1;
  base.seed = 13;
  const auto full = sacga::run_island_ga(*problem, base);

  sacga::IslandParams snapshotting = base;
  snapshotting.snapshot_every = 5;  // gen 5 is mid-interval, gen 10 just after migration
  std::vector<sacga::IslandState> states;
  snapshotting.on_snapshot = [&](const sacga::IslandState& s) { states.push_back(s); };
  (void)sacga::run_island_ga(*problem, snapshotting);
  ASSERT_EQ(states.size(), 2u);

  for (const auto& state : states) {
    sacga::IslandParams resumed_params = base;
    resumed_params.resume = &state;
    const auto resumed = sacga::run_island_ga(*problem, resumed_params);
    EXPECT_EQ(exact_bytes(resumed.population), exact_bytes(full.population));
    EXPECT_EQ(exact_bytes(resumed.front), exact_bytes(full.front));
    EXPECT_EQ(resumed.evaluations, full.evaluations);
    EXPECT_EQ(resumed.migrations, full.migrations);
  }
}

}  // namespace
}  // namespace anadex::robust
