#include "moga/hypervolume.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace anadex::moga {

namespace {

/// Exact 2-D hypervolume by a sweep over points sorted by the first
/// objective; thin adaptor flattening onto the span-based fast path so
/// there is exactly one sweep implementation.
double hv2d(const FrontPoints& points, std::span<const double> reference) {
  std::vector<double> flat;
  flat.reserve(points.size() * 2);
  for (const auto& p : points) {
    flat.push_back(p[0]);
    flat.push_back(p[1]);
  }
  return hypervolume_2d(flat, reference);
}

/// WFG-style recursion: hv(S) = sum over points of exclusive contribution
/// computed via "limit set" recursion. Exponential worst case but fine for
/// the small fronts and dimensionalities (<= 4) used in tests.
double hv_recursive(FrontPoints points, std::vector<double> reference) {
  const std::size_t dim = reference.size();
  std::erase_if(points, [&](const std::vector<double>& p) {
    for (std::size_t d = 0; d < dim; ++d) {
      if (p[d] >= reference[d]) return true;
    }
    return false;
  });
  if (points.empty()) return 0.0;
  if (dim == 2) return hv2d(points, reference);
  if (dim == 1) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& p : points) best = std::min(best, p[0]);
    return reference[0] - best;
  }

  // Slice along the last objective. Sorted ascending, the slab between
  // points[i]'s coordinate and the next one (or the reference) is dominated
  // exactly by the projections of points[0..i] — points with larger last
  // coordinates only dominate slabs above their own coordinate.
  std::sort(points.begin(), points.end(),
            [dim](const auto& a, const auto& b) { return a[dim - 1] < b[dim - 1]; });

  double volume = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double slice_top =
        (i + 1 < points.size()) ? points[i + 1][dim - 1] : reference[dim - 1];
    const double slice_height = slice_top - points[i][dim - 1];
    if (slice_height <= 0.0) continue;

    FrontPoints projected;
    projected.reserve(i + 1);
    for (std::size_t j = 0; j <= i; ++j) {
      projected.emplace_back(points[j].begin(), points[j].end() - 1);
    }
    std::vector<double> sub_ref(reference.begin(), reference.end() - 1);
    volume += slice_height * hv_recursive(std::move(projected), std::move(sub_ref));
  }
  return volume;
}

}  // namespace

double hypervolume(const FrontPoints& front, std::span<const double> reference) {
  ANADEX_REQUIRE(!reference.empty(), "hypervolume needs a non-empty reference point");
  for (const auto& p : front) {
    ANADEX_REQUIRE(p.size() == reference.size(),
                   "front point dimensionality must match the reference");
  }
  // Points with non-finite coordinates contribute nothing instead of
  // poisoning the sweep (NaN compares false against the reference filter
  // and would otherwise survive into the volume accumulation).
  FrontPoints finite;
  finite.reserve(front.size());
  for (const auto& p : front) {
    bool ok = true;
    for (double v : p) ok = ok && std::isfinite(v);
    if (ok) finite.push_back(p);
  }
  return hv_recursive(std::move(finite),
                      std::vector<double>(reference.begin(), reference.end()));
}

double hypervolume_2d(std::span<const double> points, std::span<const double> reference) {
  ANADEX_REQUIRE(points.size() % 2 == 0 && reference.size() == 2,
                 "hypervolume_2d needs (x, y) pairs and a 2-D reference");
  // Keep only finite points strictly dominating the reference region.
  std::vector<std::pair<double, double>> keep;
  keep.reserve(points.size() / 2);
  for (std::size_t i = 0; i + 1 < points.size(); i += 2) {
    const double x = points[i];
    const double y = points[i + 1];
    if (!std::isfinite(x) || !std::isfinite(y)) continue;
    if (x >= reference[0] || y >= reference[1]) continue;
    keep.emplace_back(x, y);
  }
  if (keep.empty()) return 0.0;

  std::sort(keep.begin(), keep.end());  // (x, then y) ascending

  double volume = 0.0;
  double prev_y = reference[1];
  for (const auto& [x, y] : keep) {
    if (y >= prev_y) continue;  // dominated by an earlier (smaller-x) point
    volume += (reference[0] - x) * (prev_y - y);
    prev_y = y;
  }
  return volume;
}

}  // namespace anadex::moga
