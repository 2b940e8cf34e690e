// Non-dominated sorting and crowding-distance assignment (Deb et al.,
// NSGA-II) using constraint-domination, with specialized SoA kernels for
// the hot selection path.
//
// Two kernels produce identical fronts (see tests/moga/nds_kernels_test):
//
//   * sweep  — bi-objective populations with finite objectives/violations:
//              a Jensen-style sort + binary-search front assignment,
//              O(n log n) instead of the pairwise O(M n^2).
//   * legacy — the original pairwise peeling over `Individual`s, kept as
//              the reference implementation and the path for every other
//              selection (m > 2, non-uniform or non-finite); it reuses a
//              per-call arena instead of reallocating its adjacency lists.
//
// Front ordering contract: every kernel returns each front sorted in
// ascending population-index order (front 0 first). The legacy
// implementation historically emitted fronts > 0 in peel-discovery order;
// the canonical ascending order makes the result independent of which
// kernel ran.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "moga/flat_objectives.hpp"
#include "moga/individual.hpp"

namespace anadex::moga {

/// Reusable buffers for the legacy reference sort, so repeated calls (one
/// per partition per generation in the SACGA family) stop reallocating the
/// adjacency lists and counters.
struct NdsArena {
  std::vector<std::vector<std::size_t>> dominated;  ///< adjacency, reused rows
  std::vector<std::size_t> domination_count;
  std::vector<std::size_t> current;
  std::vector<std::size_t> next;
};

/// The original O(M N^2) pairwise kernel over `population[indices]`,
/// buffered in `arena`. Writes `rank`, returns fronts in the canonical
/// ascending order. Kept as the reference implementation for the
/// equivalence tests and as the path for selections the sweep kernel does
/// not accept.
std::vector<std::vector<std::size_t>> legacy_nondominated_sort(
    Population& population, std::span<const std::size_t> indices, NdsArena& arena);

/// Reusable scratch for the flat ranking kernels. Evolver loops hold one
/// across generations so the SoA buffers are allocated once; one-off call
/// sites use the free functions below.
class RankingScratch {
 public:
  /// Sorts `population[indices]` into non-domination fronts, dispatching
  /// to the sweep kernel (finite, uniform m == 2) or the legacy one.
  /// Writes `rank`; fronts come back in canonical ascending order.
  std::vector<std::vector<std::size_t>> sort(Population& population,
                                             std::span<const std::size_t> indices);
  std::vector<std::vector<std::size_t>> sort(Population& population);

  /// Crowding distance for one front, computed on the flat buffers.
  /// Identical values to the historical per-individual implementation.
  void crowding(Population& population, std::span<const std::size_t> front);

  // The sweep kernel, exposed for the golden-equivalence tests and the
  // micro benches. Precondition: a uniform, all-finite, arity-2 selection.
  std::vector<std::vector<std::size_t>> sweep_sort(Population& population,
                                                   std::span<const std::size_t> indices);

 private:
  std::vector<std::vector<std::size_t>> sweep_on_flat(Population& population);
  /// Writes ranks and converts front_of_ into canonically ordered fronts.
  std::vector<std::vector<std::size_t>> finish(Population& population,
                                               std::size_t front_count);

  FlatObjectives flat_;
  NdsArena arena_;
  std::vector<std::size_t> front_of_;  ///< local member -> front id
  // Sweep buffers.
  std::vector<std::size_t> order_;
  std::vector<std::pair<double, double>> last_;  ///< per-front last-added point
  // Crowding buffers.
  std::vector<std::size_t> crowd_order_;
  std::vector<double> crowd_;
};

/// Sorts the individuals selected by `indices` into non-domination fronts
/// (front 0 = non-dominated). Writes `rank` into each touched individual
/// and returns the fronts as lists of indices into `population`, each
/// front in ascending index order. Convenience wrapper over a local
/// RankingScratch; generation loops should hold their own scratch to reuse
/// its buffers.
std::vector<std::vector<std::size_t>> fast_nondominated_sort(
    Population& population, std::span<const std::size_t> indices);

/// Convenience overload over the entire population.
std::vector<std::vector<std::size_t>> fast_nondominated_sort(Population& population);

/// Assigns NSGA-II crowding distance to the members of one front (indices
/// into `population`); boundary solutions per objective get infinity.
void assign_crowding(Population& population, std::span<const std::size_t> front);

/// Returns true when individual `a` is preferred over `b` by the crowded
/// comparison operator: lower rank wins; equal rank -> larger crowding wins.
bool crowded_less(const Individual& a, const Individual& b);

}  // namespace anadex::moga
