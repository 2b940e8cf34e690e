// Golden-equivalence suite for the SoA ranking kernels (docs/performance.md):
// the sweep kernel (m == 2) and the flat crowding must produce exactly the
// same ranks, fronts and crowding distances as the legacy pairwise
// reference on randomized populations covering the awkward cases —
// constraint-violation ties, exact duplicate objective vectors, subset
// (single-partition) selections and all-infeasible groups.
#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "moga/nds.hpp"

namespace anadex::moga {
namespace {

/// Population generator stressing the equivalence proof: objectives drawn
/// from a SMALL integer grid (so exact duplicates and single-objective
/// ties are frequent), a configurable fraction of infeasible members with
/// violations from a small grid (so equal-total-violation ties occur).
Population random_population(std::mt19937& rng, std::size_t n, std::size_t arity,
                             double infeasible_fraction, int grid = 6) {
  std::uniform_int_distribution<int> cell(0, grid - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> vio_cell(1, 3);
  Population pop(n);
  for (auto& ind : pop) {
    ind.eval.objectives.resize(arity);
    for (auto& f : ind.eval.objectives) f = static_cast<double>(cell(rng));
    if (unit(rng) < infeasible_fraction) {
      ind.eval.violations = {static_cast<double>(vio_cell(rng)), 0.0};
    } else {
      ind.eval.violations.clear();
    }
  }
  return pop;
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

std::vector<int> ranks_of(const Population& pop) {
  std::vector<int> ranks;
  ranks.reserve(pop.size());
  for (const auto& ind : pop) ranks.push_back(ind.rank);
  return ranks;
}

/// Runs `kernel` and the legacy reference on copies of `pop` restricted to
/// `indices` and requires identical fronts and identical ranks.
template <class Kernel>
void expect_matches_legacy(const Population& pop, std::span<const std::size_t> indices,
                           Kernel kernel, const char* label) {
  Population for_kernel = pop;
  Population for_legacy = pop;
  NdsArena arena;
  const auto expected = legacy_nondominated_sort(for_legacy, indices, arena);
  const auto actual = kernel(for_kernel, indices);
  ASSERT_EQ(actual, expected) << label;
  EXPECT_EQ(ranks_of(for_kernel), ranks_of(for_legacy)) << label;
}

TEST(NdsKernels, SweepMatchesLegacyOnRandomBiObjectivePopulations) {
  std::mt19937 rng(20260807);
  RankingScratch scratch;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng() % 40;
    const double infeasible = (trial % 4) * 0.25;  // 0, 25, 50, 75 %
    const Population pop = random_population(rng, n, 2, infeasible);
    expect_matches_legacy(
        pop, all_indices(n),
        [&scratch](Population& p, std::span<const std::size_t> idx) {
          return scratch.sweep_sort(p, idx);
        },
        "sweep");
  }
}

TEST(NdsKernels, KernelsMatchLegacyOnPartitionSlices) {
  // SACGA ranks arbitrary subsets (one partition at a time); the kernels
  // must agree with the reference on non-contiguous index selections.
  std::mt19937 rng(1357);
  RankingScratch scratch;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 8 + rng() % 32;
    const Population pop = random_population(rng, n, 2, 0.3);
    std::vector<std::size_t> subset;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng() % 2 == 0) subset.push_back(i);
    }
    if (subset.empty()) subset.push_back(n / 2);
    expect_matches_legacy(
        pop, subset,
        [&scratch](Population& p, std::span<const std::size_t> idx) {
          return scratch.sweep_sort(p, idx);
        },
        "sweep/slice");
  }
}

TEST(NdsKernels, SweepHandlesAllDuplicateVectors) {
  // Every member identical: one front holding everybody, in index order.
  Population pop(7);
  for (auto& ind : pop) ind.eval.objectives = {2.0, 3.0};
  RankingScratch scratch;
  const auto fronts = scratch.sort(pop, all_indices(pop.size()));
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0], all_indices(pop.size()));
  for (const auto& ind : pop) EXPECT_EQ(ind.rank, 0);
}

TEST(NdsKernels, SweepHandlesAllInfeasiblePopulations) {
  // All infeasible with tied violation totals: layers by violation, ties
  // sharing one front.
  Population pop(6);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    pop[i].eval.objectives = {static_cast<double>(i), static_cast<double>(i)};
    pop[i].eval.violations = {static_cast<double>(1 + i / 2)};  // 1, 1, 2, 2, 3, 3
  }
  expect_matches_legacy(
      pop, all_indices(pop.size()),
      [](Population& p, std::span<const std::size_t> idx) {
        RankingScratch scratch;
        return scratch.sweep_sort(p, idx);
      },
      "sweep/all-infeasible");
  RankingScratch scratch;
  const auto fronts = scratch.sort(pop, all_indices(pop.size()));
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{4, 5}));
}

TEST(NdsKernels, DispatcherFallsBackOnNonUniformSelections) {
  // Mixed arity (uniform == false) must route to the legacy kernel, which
  // can rank it as long as no two FEASIBLE members ever meet (dominance
  // between mismatched objective vectors is undefined); infeasible members
  // compare by total violation only.
  Population pop(3);
  pop[0].eval.objectives = {1.0, 1.0};
  pop[1].eval.objectives = {2.0};
  pop[1].eval.violations = {1.0};
  pop[2].eval.objectives = {0.0, 0.0, 0.0};
  pop[2].eval.violations = {2.0};
  expect_matches_legacy(
      pop, all_indices(pop.size()),
      [](Population& p, std::span<const std::size_t> idx) {
        RankingScratch s;
        return s.sort(p, idx);
      },
      "dispatch/non-uniform");
  RankingScratch scratch;
  const auto fronts = scratch.sort(pop, all_indices(pop.size()));
  ASSERT_EQ(fronts.size(), 3u);  // feasible, violation 1, violation 2
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0}));
}

TEST(NdsKernels, DispatcherFallsBackOnNonFiniteObjectives) {
  Population pop(4);
  pop[0].eval.objectives = {1.0, 1.0};
  pop[1].eval.objectives = {std::numeric_limits<double>::quiet_NaN(), 0.0};
  pop[2].eval.objectives = {0.5, 2.0};
  pop[3].eval.objectives = {std::numeric_limits<double>::infinity(), 0.0};
  expect_matches_legacy(
      pop, all_indices(pop.size()),
      [](Population& p, std::span<const std::size_t> idx) {
        RankingScratch s;
        return s.sort(p, idx);
      },
      "dispatch/non-finite");
}

// ---- crowding --------------------------------------------------------------

/// Reference crowding: the verbatim historical per-individual algorithm
/// (zero, boundary = infinity, interior accumulates neighbour gaps, each
/// objective's sort starting from the previous objective's permutation).
void reference_crowding(Population& population, std::span<const std::size_t> front) {
  for (std::size_t idx : front) population[idx].crowding = 0.0;
  if (front.empty()) return;
  if (front.size() <= 2) {
    for (std::size_t idx : front) {
      population[idx].crowding = Individual::kInfiniteCrowding;
    }
    return;
  }
  const std::size_t num_objectives = population[front[0]].eval.objectives.size();
  std::vector<std::size_t> sorted(front.begin(), front.end());
  for (std::size_t m = 0; m < num_objectives; ++m) {
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return population[a].eval.objectives[m] < population[b].eval.objectives[m];
    });
    const double lo = population[sorted.front()].eval.objectives[m];
    const double hi = population[sorted.back()].eval.objectives[m];
    population[sorted.front()].crowding = Individual::kInfiniteCrowding;
    population[sorted.back()].crowding = Individual::kInfiniteCrowding;
    if (hi == lo) continue;
    for (std::size_t i = 1; i + 1 < sorted.size(); ++i) {
      const double below = population[sorted[i - 1]].eval.objectives[m];
      const double above = population[sorted[i + 1]].eval.objectives[m];
      population[sorted[i]].crowding += (above - below) / (hi - lo);
    }
  }
}

TEST(NdsKernels, FlatCrowdingIsBitIdenticalToTheReference) {
  std::mt19937 rng(7531);
  RankingScratch scratch;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng() % 24;
    const std::size_t arity = 2 + rng() % 2;
    Population pop = random_population(rng, n, arity, 0.2);
    Population expected_pop = pop;

    const auto fronts = scratch.sort(pop, all_indices(n));
    {
      NdsArena arena;
      legacy_nondominated_sort(expected_pop, all_indices(n), arena);
    }
    for (const auto& front : fronts) {
      scratch.crowding(pop, front);
      reference_crowding(expected_pop, front);
      for (std::size_t idx : front) {
        // Bit-identical, not approximately equal: the flat path must run
        // the same comparisons and additions in the same order.
        EXPECT_EQ(pop[idx].crowding, expected_pop[idx].crowding)
            << "trial " << trial << " member " << idx;
      }
    }
  }
}

TEST(NdsKernels, FreeFunctionsWrapTheScratch) {
  // The historical entry points keep working (and agree with the scratch).
  std::mt19937 rng(99);
  Population pop = random_population(rng, 20, 2, 0.25);
  Population pop2 = pop;
  RankingScratch scratch;
  const auto via_scratch = scratch.sort(pop);
  const auto via_free = fast_nondominated_sort(pop2);
  EXPECT_EQ(via_free, via_scratch);
  for (const auto& front : via_free) {
    assign_crowding(pop2, front);
    scratch.crowding(pop, front);
    for (std::size_t idx : front) {
      EXPECT_EQ(pop2[idx].crowding, pop[idx].crowding);
    }
  }
}

}  // namespace
}  // namespace anadex::moga
