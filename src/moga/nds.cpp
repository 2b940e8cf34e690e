#include "moga/nds.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "moga/dominance.hpp"
#include "moga/invariants.hpp"

namespace anadex::moga {

namespace {

/// The historical crowding implementation over Individuals, kept verbatim
/// as the fallback for selections the flat path rejects (mixed arity,
/// non-finite values — where sorting raw doubles would be undefined).
void legacy_crowding(Population& population, std::span<const std::size_t> front) {
  const std::size_t m = population[front.front()].eval.objectives.size();
  std::vector<std::size_t> order(front.begin(), front.end());
  for (std::size_t obj = 0; obj < m; ++obj) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return population[a].eval.objectives[obj] < population[b].eval.objectives[obj];
    });
    const double lo = population[order.front()].eval.objectives[obj];
    const double hi = population[order.back()].eval.objectives[obj];
    population[order.front()].crowding = Individual::kInfiniteCrowding;
    population[order.back()].crowding = Individual::kInfiniteCrowding;
    if (hi == lo) continue;  // degenerate objective: no interior contribution
    for (std::size_t i = 1; i + 1 < order.size(); ++i) {
      const double below = population[order[i - 1]].eval.objectives[obj];
      const double above = population[order[i + 1]].eval.objectives[obj];
      population[order[i]].crowding += (above - below) / (hi - lo);
    }
  }
}

}  // namespace

std::vector<std::vector<std::size_t>> legacy_nondominated_sort(
    Population& population, std::span<const std::size_t> indices, NdsArena& arena) {
  const std::size_t n = indices.size();
  std::vector<std::vector<std::size_t>> fronts;
  if (n == 0) return fronts;

  // local position -> list of local positions it dominates / domination
  // count. The adjacency rows keep their capacity across calls.
  if (arena.dominated.size() < n) arena.dominated.resize(n);
  for (std::size_t p = 0; p < n; ++p) arena.dominated[p].clear();
  arena.domination_count.assign(n, 0);

  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = p + 1; q < n; ++q) {
      const Individual& a = population[indices[p]];
      const Individual& b = population[indices[q]];
      if (constrained_dominates(a, b)) {
        arena.dominated[p].push_back(q);
        ++arena.domination_count[q];
      } else if (constrained_dominates(b, a)) {
        arena.dominated[q].push_back(p);
        ++arena.domination_count[p];
      }
    }
  }

  arena.current.clear();
  for (std::size_t p = 0; p < n; ++p) {
    if (arena.domination_count[p] == 0) {
      population[indices[p]].rank = 0;
      arena.current.push_back(p);
    }
  }

  int rank = 0;
  std::size_t assigned = 0;
  while (!arena.current.empty()) {
    std::vector<std::size_t> global_front;
    global_front.reserve(arena.current.size());
    for (std::size_t p : arena.current) global_front.push_back(indices[p]);
    std::sort(global_front.begin(), global_front.end());  // canonical order
    fronts.push_back(std::move(global_front));
    assigned += arena.current.size();

    arena.next.clear();
    for (std::size_t p : arena.current) {
      for (std::size_t q : arena.dominated[p]) {
        if (--arena.domination_count[q] == 0) {
          population[indices[q]].rank = rank + 1;
          arena.next.push_back(q);
        }
      }
    }
    std::swap(arena.current, arena.next);
    ++rank;
  }
  ANADEX_ASSERT(assigned == n, "non-dominated sort must assign every individual");
  if constexpr (kCheckInvariants) require_canonical_fronts(fronts, n);
  return fronts;
}

std::vector<std::vector<std::size_t>> RankingScratch::sort(
    Population& population, std::span<const std::size_t> indices) {
  flat_.build(population, indices);
  if (flat_.uniform() && flat_.all_finite() && flat_.arity() == 2) {
    return sweep_on_flat(population);
  }
  return legacy_nondominated_sort(population, indices, arena_);
}

std::vector<std::vector<std::size_t>> RankingScratch::sort(Population& population) {
  std::vector<std::size_t> all(population.size());
  std::iota(all.begin(), all.end(), 0);
  return sort(population, all);
}

std::vector<std::vector<std::size_t>> RankingScratch::sweep_sort(
    Population& population, std::span<const std::size_t> indices) {
  flat_.build(population, indices);
  ANADEX_REQUIRE(flat_.count() == 0 ||
                     (flat_.uniform() && flat_.all_finite() && flat_.arity() == 2),
                 "sweep_sort needs a finite, uniformly bi-objective selection");
  return sweep_on_flat(population);
}

std::vector<std::vector<std::size_t>> RankingScratch::finish(
    Population& population, std::size_t front_count) {
  const std::size_t n = flat_.count();
  std::vector<std::vector<std::size_t>> fronts(front_count);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t f = front_of_[i];
    population[flat_.global(i)].rank = static_cast<int>(f);
    fronts[f].push_back(flat_.global(i));
  }
  // Canonical contract: each front ascending by population index. (A
  // subset selection need not arrive sorted, so sorting here is not
  // optional even though the kernels emit local positions in order.)
  for (auto& front : fronts) std::sort(front.begin(), front.end());
  if constexpr (kCheckInvariants) require_canonical_fronts(fronts, n);
  return fronts;
}

std::vector<std::vector<std::size_t>> RankingScratch::sweep_on_flat(
    Population& population) {
  const std::size_t n = flat_.count();
  if (n == 0) return {};
  front_of_.assign(n, 0);

  // Partition: feasible members are front-assigned by the sweep; the
  // infeasible compare only by total violation under constraint-domination
  // (and are dominated by every feasible member), so equal-violation
  // groups become consecutive fronts appended after all feasible fronts —
  // exactly what pairwise peeling produces.
  order_.clear();
  std::vector<std::size_t> infeasible;
  for (std::size_t i = 0; i < n; ++i) {
    (flat_.violation(i) == 0.0 ? order_ : infeasible).push_back(i);
  }

  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    const double a1 = flat_.value(a, 0), b1 = flat_.value(b, 0);
    if (a1 != b1) return a1 < b1;
    const double a2 = flat_.value(a, 1), b2 = flat_.value(b, 1);
    if (a2 != b2) return a2 < b2;
    return flat_.global(a) < flat_.global(b);
  });

  // Jensen-style assignment: process points in lex order and binary-search
  // the first front whose last-added point does not dominate the new one.
  // Within a front, each added point lowers (or, only for exact
  // duplicates, ties) the front's f2 minimum, so the last-added point is
  // the front's weakest gatekeeper and "front k rejects p" is monotone in
  // k — front 0's gate is at least as strong as front 1's, and so on.
  last_.clear();
  for (std::size_t i : order_) {
    const double p1 = flat_.value(i, 0);
    const double p2 = flat_.value(i, 1);
    // A gate (g1, g2) has g1 <= p1 by the lex sweep, so it dominates p
    // iff g2 < p2, or g2 == p2 with g1 strictly smaller.
    std::size_t lo = 0;
    std::size_t hi = last_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const auto [g1, g2] = last_[mid];
      if (g2 < p2 || (g2 == p2 && g1 < p1)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == last_.size()) last_.emplace_back();
    last_[lo] = {p1, p2};
    front_of_[i] = lo;
  }
  std::size_t front_count = last_.size();

  if (!infeasible.empty()) {
    std::sort(infeasible.begin(), infeasible.end(), [&](std::size_t a, std::size_t b) {
      if (flat_.violation(a) != flat_.violation(b)) {
        return flat_.violation(a) < flat_.violation(b);
      }
      return flat_.global(a) < flat_.global(b);
    });
    double group_violation = flat_.violation(infeasible.front());
    for (std::size_t i : infeasible) {
      if (flat_.violation(i) != group_violation) {
        group_violation = flat_.violation(i);
        ++front_count;
      }
      front_of_[i] = front_count;
    }
    ++front_count;
  }
  return finish(population, front_count);
}

void RankingScratch::crowding(Population& population,
                              std::span<const std::size_t> front) {
  if (front.empty()) return;
  // Callers hand kernel output straight back in, so a disordered front
  // here means a kernel (or an intermediary) broke the canonical order.
  if constexpr (kCheckInvariants) require_ascending_front(front);
  for (std::size_t idx : front) population[idx].crowding = 0.0;
  const std::size_t n = front.size();
  if (n <= 2) {
    for (std::size_t idx : front) {
      population[idx].crowding = Individual::kInfiniteCrowding;
    }
    return;
  }
  flat_.build(population, front);
  if (!flat_.uniform() || !flat_.all_finite()) {
    legacy_crowding(population, front);
    return;
  }
  const std::size_t m = flat_.arity();
  crowd_.assign(n, 0.0);
  crowd_order_.resize(n);
  std::iota(crowd_order_.begin(), crowd_order_.end(), std::size_t{0});
  // Same initial order and the same comparator decisions as the historical
  // per-individual loop (the flat values are copies of the same doubles,
  // and each objective's sort starts from the previous objective's
  // permutation), so the accumulated distances are bit-identical.
  for (std::size_t obj = 0; obj < m; ++obj) {
    std::sort(crowd_order_.begin(), crowd_order_.end(),
              [&](std::size_t a, std::size_t b) {
                return flat_.value(a, obj) < flat_.value(b, obj);
              });
    const double lo = flat_.value(crowd_order_.front(), obj);
    const double hi = flat_.value(crowd_order_.back(), obj);
    crowd_[crowd_order_.front()] = Individual::kInfiniteCrowding;
    crowd_[crowd_order_.back()] = Individual::kInfiniteCrowding;
    if (hi == lo) continue;  // degenerate objective: no interior contribution
    for (std::size_t i = 1; i + 1 < n; ++i) {
      const double below = flat_.value(crowd_order_[i - 1], obj);
      const double above = flat_.value(crowd_order_[i + 1], obj);
      crowd_[crowd_order_[i]] += (above - below) / (hi - lo);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    population[flat_.global(i)].crowding = crowd_[i];
  }
}

std::vector<std::vector<std::size_t>> fast_nondominated_sort(
    Population& population, std::span<const std::size_t> indices) {
  RankingScratch scratch;
  return scratch.sort(population, indices);
}

std::vector<std::vector<std::size_t>> fast_nondominated_sort(Population& population) {
  RankingScratch scratch;
  return scratch.sort(population);
}

void assign_crowding(Population& population, std::span<const std::size_t> front) {
  RankingScratch scratch;
  scratch.crowding(population, front);
}

bool crowded_less(const Individual& a, const Individual& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.crowding > b.crowding;
}

}  // namespace anadex::moga
