#include "device/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/fastmath.hpp"

namespace anadex::device {

namespace {

/// Mobility-degradation denominator 1 + θ1·u^(1/3) + θ2·u^n, u clamped >= 0.
/// Uses the deterministic shared-math kernels (common/fastmath.hpp) so the
/// scalar oracle and the SoA batch evaluator execute identical arithmetic.
double mobility_denominator(const DeviceParams& p, double vgs, double vt) {
  const double u = std::max(vgs + vt - p.vk, 0.0);
  return 1.0 + p.theta1 * det_cbrt(u) + p.theta2 * pow_rt(u, p.n_exp);
}

/// d/dVGS of the mobility denominator. u^(-2/3) is expressed through the
/// same det_cbrt the denominator uses (1/cbrt(u)^2), keeping both paths on
/// shared kernels.
double mobility_denominator_derivative(const DeviceParams& p, double vgs, double vt) {
  const double u = vgs + vt - p.vk;
  if (u <= 0.0) return 0.0;
  const double c = det_cbrt(u);
  double d = p.theta1 / 3.0 / (c * c);
  if (p.n_exp == 1.0) {
    d += p.theta2;
  } else {
    d += p.theta2 * p.n_exp * pow_rt(u, p.n_exp - 1.0);
  }
  return d;
}

/// Saturation voltage with velocity saturation:
/// VDsat = Esat·L·Vov / (Esat·L + Vov); tends to Vov for long channels.
double vdsat_of(const DeviceParams& p, const Geometry& g, double vov) {
  const double el = p.esat * g.l;
  return el * vov / (el + vov);
}

}  // namespace

double threshold(const DeviceParams& params, double vsb) {
  ANADEX_REQUIRE(vsb >= 0.0, "body-referenced VSB magnitude must be non-negative");
  return params.vt0 +
         params.gamma * (std::sqrt(params.phi2f + vsb) - std::sqrt(params.phi2f));
}

double drain_current(const DeviceParams& params, const Geometry& geometry, const Bias& bias) {
  ANADEX_REQUIRE(geometry.w > 0.0 && geometry.l > 0.0, "geometry must be positive");
  const double vt = threshold(params, bias.vsb);
  const double vov = bias.vgs - vt;
  if (vov <= 0.0) return 0.0;

  const double k = 0.5 * params.mu_cox * geometry.w / geometry.l;
  const double lambda = params.lambda_per_m / geometry.l;
  const double el = params.esat * geometry.l;
  const double mob = mobility_denominator(params, bias.vgs, vt);
  const double vdsat = vdsat_of(params, geometry, vov);

  if (bias.vds >= vdsat) {
    // Saturation: paper eqn (1) with the divisive velocity-saturation factor.
    return k * vov * vov * (1.0 + lambda * bias.vds) / ((1.0 + vov / el) * mob);
  }
  // Triode: quadratic law with the same degradation factors, continuous with
  // the saturation expression at VDS = VDsat.
  const double sat_at_edge = k * vov * vov / ((1.0 + vov / el) * mob);
  const double shape = bias.vds / vdsat * (2.0 - bias.vds / vdsat);  // 0..1, smooth
  return sat_at_edge * shape * (1.0 + lambda * bias.vds);
}

OperatingPoint solve_op(const DeviceParams& params, const Geometry& geometry,
                        const Bias& bias) {
  OperatingPoint op;
  op.vt = threshold(params, bias.vsb);
  op.vov = bias.vgs - op.vt;
  if (op.vov <= 0.0) {
    op.region = Region::Cutoff;
    return op;
  }
  op.vdsat = vdsat_of(params, geometry, op.vov);
  op.id = drain_current(params, geometry, bias);

  const double lambda = params.lambda_per_m / geometry.l;
  const double el = params.esat * geometry.l;
  const double mob = mobility_denominator(params, bias.vgs, op.vt);
  const double dmob = mobility_denominator_derivative(params, bias.vgs, op.vt);

  if (bias.vds >= op.vdsat) {
    op.region = Region::Saturation;
    // Logarithmic derivative of ID(VGS):
    //   d ln ID / dVGS = 2/Vov - (1/EL)/(1 + Vov/EL) - mob'/mob.
    const double dlog =
        2.0 / op.vov - (1.0 / el) / (1.0 + op.vov / el) - dmob / mob;
    op.gm = op.id * dlog;
    op.gds = op.id * lambda / (1.0 + lambda * bias.vds);
  } else {
    op.region = Region::Triode;
    // Numeric derivatives are adequate in triode (not used in sizing-quality
    // paths; designs are constrained to saturation).
    const double h = 1e-6;
    Bias b1 = bias;
    b1.vgs += h;
    op.gm = (drain_current(params, geometry, b1) - op.id) / h;
    Bias b2 = bias;
    b2.vds += h;
    op.gds = (drain_current(params, geometry, b2) - op.id) / h;
  }
  return op;
}

double vgs_for_current(const DeviceParams& params, const Geometry& geometry, double id,
                       double vds, double vsb, double vgs_max) {
  ANADEX_REQUIRE(id > 0.0, "vgs_for_current requires a positive target current");
  const double vt = threshold(params, vsb);
  double lo = vt + 1e-3;
  double hi = vgs_max;

  // Evaluate in saturation regardless of vds (bias solvers size devices to
  // operate saturated; the saturation check happens separately).
  auto current_at = [&](double vgs) {
    const double vov = vgs - vt;
    const double vdsat = vdsat_of(params, geometry, vov);
    Bias b{vgs, std::max(vds, vdsat), vsb};
    return drain_current(params, geometry, b);
  };

  if (current_at(hi) <= id) return vgs_max;  // cannot reach: saturate at the rail
  if (current_at(lo) >= id) return lo;

  // Newton iteration with bisection safeguarding: ID(VGS) is monotone in
  // saturation, so the bracket [lo, hi] always contains the root.
  double vgs = vt + std::sqrt(2.0 * id * geometry.l / (params.mu_cox * geometry.w));
  vgs = std::clamp(vgs, lo, hi);
  for (int iter = 0; iter < 60; ++iter) {
    const double vov = vgs - vt;
    const double vdsat = vdsat_of(params, geometry, vov);
    const Bias b{vgs, std::max(vds, vdsat), vsb};
    const OperatingPoint op = solve_op(params, geometry, b);
    const double f = op.id - id;
    if (std::abs(f) <= 1e-9 * id) return vgs;
    if (f > 0.0) {
      hi = vgs;
    } else {
      lo = vgs;
    }
    double next = vgs;
    if (op.gm > 0.0) next = vgs - f / op.gm;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);  // safeguard
    if (std::abs(next - vgs) < 1e-9) return next;
    vgs = next;
  }
  return vgs;
}

DeviceCaps capacitances(const Process& process, const Geometry& geometry, Region region) {
  DeviceCaps caps;
  const double gate_area = geometry.w * geometry.l;
  const double overlap = process.cov_per_w * geometry.w;
  if (region == Region::Saturation) {
    caps.cgs = (2.0 / 3.0) * gate_area * process.cox + overlap;
    caps.cgd = overlap;
  } else if (region == Region::Triode) {
    caps.cgs = 0.5 * gate_area * process.cox + overlap;
    caps.cgd = 0.5 * gate_area * process.cox + overlap;
  } else {
    caps.cgs = overlap;
    caps.cgd = overlap;
  }
  const double diff_area = geometry.w * process.ld_diff;
  const double diff_perim = geometry.w + 2.0 * process.ld_diff;
  caps.cdb = process.cj_area * diff_area + process.cj_perim * diff_perim;
  return caps;
}

}  // namespace anadex::device
