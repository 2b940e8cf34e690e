#include "circuit/opamp.hpp"

#include <algorithm>
#include <cmath>

#include "common/math.hpp"

namespace anadex::circuit {

using device::Bias;
using device::DeviceCaps;
using device::Geometry;
using device::OperatingPoint;
using device::Process;
using device::Region;
using device::Type;

namespace {

constexpr double kSatGuard = 0.04;  ///< required VDS - VDsat headroom, V
constexpr double kTiny = 1e-18;

/// Solves the VGS of a diode-connected device carrying `id` (VDS = VGS):
/// two fixed-point passes over the monotone inverse are ample.
double diode_vgs(const device::DeviceParams& params, const Geometry& geometry, double id,
                 double vdd) {
  double vgs = 0.6;
  for (int pass = 0; pass < 3; ++pass) {
    vgs = device::vgs_for_current(params, geometry, id, /*vds=*/vgs, /*vsb=*/0.0, vdd);
  }
  return vgs;
}

}  // namespace

double SaturationMargins::worst() const {
  return std::min({m1, m5, m6, m7, mref});
}

device::Geometry bias_reference_geometry() { return {2.0e-6, 0.5e-6}; }

OpAmpAnalysis analyze(const Process& process, const OpAmpDesign& design,
                      const OpAmpContext& context) {
  OpAmpAnalysis out;
  const auto& nmos = process.nmos;
  const auto& pmos = process.pmos;
  const double vdd = process.vdd;

  // ---- Bias chain -------------------------------------------------------
  // Mref (diode NMOS) converts Ibias into the gate line voltage shared by
  // M5 and M7.
  const Geometry ref = bias_reference_geometry();
  out.vgs_ref = diode_vgs(nmos, ref, design.ibias, vdd);
  // Reference must genuinely conduct Ibias below the rail; the margin is the
  // headroom between the rail and the required VGS.
  out.margins.mref = (vdd - 0.1) - out.vgs_ref;

  // Tail current: M5 mirrors the reference. Its VDS is the tail-node
  // voltage, which depends on VGS1, which depends on I5 — a short
  // fixed-point iteration converges quickly because lambda is small.
  double v_tail = 0.2;
  double i5 = 0.0;
  double vgs1 = 0.6;
  for (int pass = 0; pass < 4; ++pass) {
    i5 = device::drain_current(nmos, design.m5,
                               Bias{out.vgs_ref, std::max(v_tail, 1e-3), 0.0});
    i5 = std::max(i5, kTiny);
    vgs1 = device::vgs_for_current(nmos, design.m1, 0.5 * i5, /*vds=*/0.5, /*vsb=*/v_tail,
                                   vdd);
    v_tail = std::clamp(context.vicm - vgs1, 1e-3, vdd);
  }
  out.i5 = i5;

  // Mirror load: diode-connected M3 at I5/2 sets the first-stage output
  // level VDD - VSG3 and the gate drive of M6.
  const double vsg3 = diode_vgs(pmos, design.m3, 0.5 * i5, vdd);
  const double v_first = vdd - vsg3;  // first-stage output at balance

  // Second stage: M7 mirrors the reference (VDS = Vocm); M6 is driven by
  // the first-stage output, so its VSG equals VSG3 at balance.
  out.i7 = std::max(
      device::drain_current(nmos, design.m7, Bias{out.vgs_ref, context.vocm, 0.0}), kTiny);
  const double id6 =
      device::drain_current(pmos, design.m6, Bias{vsg3, vdd - context.vocm, 0.0});
  out.mirror_balance_error = std::abs(id6 - out.i7) / out.i7;

  // ---- Operating points and small-signal parameters ---------------------
  const OperatingPoint op1 =
      device::solve_op(nmos, design.m1, Bias{vgs1, std::max(v_first - v_tail, 1e-3), v_tail});
  const OperatingPoint op3 = device::solve_op(pmos, design.m3, Bias{vsg3, vsg3, 0.0});
  const OperatingPoint op5 =
      device::solve_op(nmos, design.m5, Bias{out.vgs_ref, std::max(v_tail, 1e-3), 0.0});
  const OperatingPoint op6 =
      device::solve_op(pmos, design.m6, Bias{vsg3, vdd - context.vocm, 0.0});
  const OperatingPoint op7 =
      device::solve_op(nmos, design.m7, Bias{out.vgs_ref, context.vocm, 0.0});

  out.gm1 = op1.gm;
  out.gm3 = op3.gm;
  out.gm6 = op6.gm;

  const double ro1 = 1.0 / std::max(op1.gds + op3.gds, kTiny);  // gds4 ~ gds3
  const double ro2 = 1.0 / std::max(op6.gds + op7.gds, kTiny);
  out.a1 = out.gm1 * ro1;
  out.a2 = out.gm6 * ro2;
  out.a0 = out.a1 * out.a2;

  // ---- Node capacitances -------------------------------------------------
  const DeviceCaps c1 = device::capacitances(process, design.m1, op1.region);
  const DeviceCaps c3 = device::capacitances(process, design.m3, op3.region);
  const DeviceCaps c6 = device::capacitances(process, design.m6, op6.region);
  const DeviceCaps c7 = device::capacitances(process, design.m7, op7.region);

  out.cc_eff = design.cc + c6.cgd;
  // First-stage output: drains of M2/M4, gate of M6.
  out.c_first = c1.cdb + c1.cgd + c3.cdb + c3.cgd + c6.cgs;
  // Output node (excluding external load and feedback network).
  out.c_out_self = c6.cdb + c7.cdb + c7.cgd;
  // Mirror (diode) node: gates of M3+M4, drains of M1+M3.
  out.c_mirror = 2.0 * c3.cgs + c3.cdb + c1.cdb + c1.cgd;
  // Input capacitance per side: CGS1 plus Miller-doubled CGD1 (low
  // first-node gain to the cascode-free mirror, factor ~2).
  out.c_in = c1.cgs + 2.0 * c1.cgd;

  out.mirror_pole = out.gm3 / std::max(out.c_mirror, kTiny);

  // ---- Large-signal ------------------------------------------------------
  out.slew_internal = out.i5 / std::max(out.cc_eff, kTiny);
  out.swing = std::max(vdd - op6.vdsat - op7.vdsat, 0.0);

  // Input-referred thermal noise of the first stage (pair + mirror load).
  const double gm1_safe = std::max(out.gm1, kTiny);
  out.noise_psd =
      16.0 * kBoltzmann * process.temperature / (3.0 * gm1_safe) * (1.0 + out.gm3 / gm1_safe);

  out.power = vdd * (design.ibias + out.i5 + 2.0 * out.i7);
  out.area = 2.0 * design.m1.w * design.m1.l + 2.0 * design.m3.w * design.m3.l +
             design.m5.w * design.m5.l + 2.0 * design.m6.w * design.m6.l +
             2.0 * design.m7.w * design.m7.l + ref.w * ref.l;

  // ---- Saturation margins -------------------------------------------------
  // Cutoff devices produce vdsat = 0 yet conduct nothing; treat missing
  // overdrive as an equivalent violation so the optimizer is steered.
  auto margin = [&](const OperatingPoint& op, double vds) {
    if (op.region == Region::Cutoff) return -1.0;
    return vds - op.vdsat - kSatGuard;
  };
  out.margins.m1 = margin(op1, std::max(v_first - v_tail, 0.0));
  out.margins.m5 = margin(op5, v_tail);
  out.margins.m6 = margin(op6, vdd - context.vocm);
  out.margins.m7 = margin(op7, context.vocm);
  out.vov_worst = std::min({op1.vov, op3.vov, op5.vov, op6.vov, op7.vov});
  return out;
}

}  // namespace anadex::circuit
