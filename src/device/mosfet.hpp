// Deep-submicron MOSFET DC model — paper eqn (1) — with operating-point
// solution, small-signal parameters and terminal capacitances.
//
// The saturation current implements
//
//              1        W      (VGS-VT)^2 · (1 + lambda·VDS)
//   ID =      --- µCox --- · ---------------------------------------------------
//              2        L    (1 + (VGS-VT)/(Esat·L)) · (1 + θ1·u^(1/3) + θ2·u^n)
//
// with u = max(VGS + VT - VK, 0), n = 1 (NMOS) / 2 (PMOS).
//
// Note on the velocity-saturation factor: the paper's typeset equation shows
// a factor (1 - (VGS-VT)/(Esat·L)) in the numerator, which agrees with the
// canonical 1/(1 + x) form to first order but becomes negative for large
// overdrives, making the model unusable over a GA's full search box. We use
// the canonical divisive form; DESIGN.md §5 records the substitution.
//
// All quantities are magnitudes; the circuit layer handles polarity.
#pragma once

#include "device/process.hpp"

namespace anadex::device {

/// Channel geometry in meters.
struct Geometry {
  double w = 1e-6;
  double l = 0.18e-6;
};

/// Terminal bias (magnitudes, source-referenced).
struct Bias {
  double vgs = 0.0;
  double vds = 0.0;
  double vsb = 0.0;
};

/// DC operating region.
enum class Region { Cutoff, Triode, Saturation };

/// Solved operating point.
struct OperatingPoint {
  Region region = Region::Cutoff;
  double id = 0.0;     ///< drain current, A
  double gm = 0.0;     ///< transconductance, A/V
  double gds = 0.0;    ///< output conductance, A/V
  double vov = 0.0;    ///< overdrive VGS - VT, V
  double vdsat = 0.0;  ///< saturation voltage, V
  double vt = 0.0;     ///< body-adjusted threshold, V
};

/// Body-effect-adjusted threshold magnitude.
double threshold(const DeviceParams& params, double vsb);

/// Drain current for an arbitrary bias (cutoff / triode / saturation).
double drain_current(const DeviceParams& params, const Geometry& geometry, const Bias& bias);

/// Full operating point: region, current and analytic gm / gds.
/// gm and gds are exact derivatives of the saturation-region model; in
/// triode they are computed from the triode expression.
OperatingPoint solve_op(const DeviceParams& params, const Geometry& geometry,
                        const Bias& bias);

/// Inverse model: the VGS that conducts drain current `id` at the given
/// VDS/VSB (saturation assumed). Solved by bisection on the monotone
/// ID(VGS); requires id > 0. Result is clamped to [vt + 1 mV, vgs_max].
double vgs_for_current(const DeviceParams& params, const Geometry& geometry, double id,
                       double vds, double vsb, double vgs_max = 1.8);

/// Lumped terminal capacitances in the given region.
struct DeviceCaps {
  double cgs = 0.0;  ///< gate-source (channel share + overlap), F
  double cgd = 0.0;  ///< gate-drain (overlap; + channel share in triode), F
  double cdb = 0.0;  ///< drain-bulk junction, F
};

DeviceCaps capacitances(const Process& process, const Geometry& geometry, Region region);

}  // namespace anadex::device
