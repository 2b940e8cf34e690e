#include "moga/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "moga/dominance.hpp"

namespace anadex::moga {

namespace {

double euclidean(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

bool finite_point(const std::vector<double>& point) {
  for (double v : point) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double mean_min_distance(FrontPoints from, FrontPoints to) {
  drop_non_finite_points(from);
  drop_non_finite_points(to);
  if (from.empty()) return 0.0;
  ANADEX_REQUIRE(!to.empty(), "distance target front must be non-empty");
  double total = 0.0;
  for (const auto& p : from) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& q : to) best = std::min(best, euclidean(p, q));
    total += best;
  }
  return total / static_cast<double>(from.size());
}

}  // namespace

std::size_t drop_non_finite_points(FrontPoints& points) {
  const std::size_t before = points.size();
  std::erase_if(points, [](const std::vector<double>& p) { return !finite_point(p); });
  return before - points.size();
}

double front_area_metric(std::span<const double> cost, std::span<const double> coverage,
                         const FrontAreaParams& params, std::size_t* skipped_non_finite) {
  ANADEX_REQUIRE(cost.size() == coverage.size(), "cost/coverage sizes must match");
  ANADEX_REQUIRE(params.coverage_max > 0.0 && params.unit > 0.0 && params.cost_cap > 0.0,
                 "front-area metric parameters must be positive");

  // Sort points by coverage descending; sweep from coverage_max down to 0,
  // maintaining the cheapest cost among designs able to cover the current
  // load. The staircase integral accumulates cost * d(coverage).
  std::vector<std::size_t> order;
  order.reserve(cost.size());
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < cost.size(); ++i) {
    if (std::isfinite(cost[i]) && std::isfinite(coverage[i])) {
      order.push_back(i);
    } else {
      ++skipped;
    }
  }
  if (skipped_non_finite != nullptr) *skipped_non_finite = skipped;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return coverage[a] > coverage[b]; });

  double area = 0.0;
  double sweep = params.coverage_max;  // current upper edge of the strip
  double best_cost = std::numeric_limits<double>::infinity();

  for (std::size_t idx : order) {
    const double c = std::min(coverage[idx], params.coverage_max);
    if (c < sweep) {
      const double strip_cost = std::isfinite(best_cost)
                                    ? std::min(best_cost, params.cost_cap)
                                    : params.cost_cap;
      area += strip_cost * (sweep - std::max(c, 0.0));
      sweep = std::max(c, 0.0);
      if (sweep == 0.0) break;
    }
    best_cost = std::min(best_cost, cost[idx]);
  }
  if (sweep > 0.0) {
    const double strip_cost =
        std::isfinite(best_cost) ? std::min(best_cost, params.cost_cap) : params.cost_cap;
    area += strip_cost * sweep;
  }
  return area / params.unit;
}

double spacing(const FrontPoints& front_in) {
  FrontPoints front = front_in;
  drop_non_finite_points(front);
  if (front.size() < 2) return 0.0;
  std::vector<double> nearest(front.size(), std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (i == j) continue;
      nearest[i] = std::min(nearest[i], euclidean(front[i], front[j]));
    }
  }
  const double mean = std::accumulate(nearest.begin(), nearest.end(), 0.0) /
                      static_cast<double>(nearest.size());
  double var = 0.0;
  for (double d : nearest) var += (d - mean) * (d - mean);
  return std::sqrt(var / static_cast<double>(nearest.size()));
}

double coverage(const FrontPoints& a_in, const FrontPoints& b_in) {
  FrontPoints a = a_in;
  FrontPoints b = b_in;
  drop_non_finite_points(a);
  drop_non_finite_points(b);
  if (b.empty()) return 0.0;
  std::size_t covered = 0;
  for (const auto& q : b) {
    for (const auto& p : a) {
      const bool weakly_dominates = dominates(p, q) || p == q;
      if (weakly_dominates) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(b.size());
}

double generational_distance(const FrontPoints& front, const FrontPoints& reference_front) {
  return mean_min_distance(front, reference_front);
}

double inverted_generational_distance(const FrontPoints& front,
                                      const FrontPoints& reference_front) {
  return mean_min_distance(reference_front, front);
}

double clustering_fraction(std::span<const double> values, double lo, double hi) {
  ANADEX_REQUIRE(lo <= hi, "clustering_fraction requires lo <= hi");
  std::size_t inside = 0;
  std::size_t finite = 0;
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    ++finite;
    if (v >= lo && v <= hi) ++inside;
  }
  if (finite == 0) return 0.0;
  return static_cast<double>(inside) / static_cast<double>(finite);
}

FrontPoints objectives_of(const Population& population) {
  FrontPoints points;
  points.reserve(population.size());
  for (const auto& ind : population) points.push_back(ind.eval.objectives);
  return points;
}

}  // namespace anadex::moga
