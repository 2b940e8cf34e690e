// Synthetic-but-plausible description of an industry-style 0.18 µm, 1.8 V
// n-well digital CMOS process: DC fitting parameters for the paper's
// deep-submicron MOSFET model (eqn 1), capacitance data (gate, overlap,
// junction, integrated capacitors with bottom-plate parasitics), process
// corners and Pelgrom mismatch coefficients.
//
// The real paper used proprietary foundry data; these values are standard
// textbook magnitudes for the node and are calibrated only so that the
// integrator sizing problem has the same qualitative difficulty structure
// (see DESIGN.md §5).
#pragma once

#include <array>
#include <string>

namespace anadex::device {

/// MOSFET polarity. All DeviceParams voltages/currents are magnitudes;
/// polarity is handled by the circuit layer.
enum class Type { NMOS, PMOS };

/// Manufacturing process corners (TT = typical).
enum class Corner { TT, FF, SS, FS, SF };

inline constexpr std::array<Corner, 5> kAllCorners = {Corner::TT, Corner::FF, Corner::SS,
                                                      Corner::FS, Corner::SF};

/// Human-readable corner name ("TT", "FF", ...).
std::string corner_name(Corner corner);

/// DC-model fitting parameters of one device polarity (paper eqn 1).
struct DeviceParams {
  double mu_cox = 0.0;   ///< µ·Cox, A/V^2
  double vt0 = 0.0;      ///< zero-bias threshold magnitude, V
  double gamma = 0.0;    ///< body-effect coefficient, sqrt(V)
  double phi2f = 0.0;    ///< 2·phi_F surface potential, V
  double theta1 = 0.0;   ///< mobility-degradation fit (cube-root term)
  double theta2 = 0.0;   ///< mobility-degradation fit (power term)
  double vk = 0.0;       ///< mobility-degradation knee voltage, V
  double n_exp = 1.0;    ///< paper: n = 1 for NMOS, 2 for PMOS
  double esat = 0.0;     ///< velocity-saturation critical field, V/m
  double lambda_per_m = 0.0;  ///< channel-length modulation: lambda = lambda_per_m / L

  bool operator==(const DeviceParams&) const = default;
};

/// Full process description at one corner.
struct Process {
  DeviceParams nmos;
  DeviceParams pmos;

  double vdd = 1.8;          ///< supply, V
  double lmin = 0.18e-6;     ///< minimum channel length, m
  double wmin = 0.24e-6;     ///< minimum channel width, m
  double temperature = 300.0;  ///< K

  // Capacitance data.
  double cox = 8.6e-3;          ///< gate oxide capacitance, F/m^2
  double cov_per_w = 0.30e-9;   ///< gate overlap capacitance per width, F/m
  double cj_area = 1.0e-3;      ///< junction bottom capacitance, F/m^2
  double cj_perim = 0.20e-9;    ///< junction sidewall capacitance, F/m
  double ld_diff = 0.48e-6;     ///< source/drain diffusion extent, m

  // Integrated (poly-poly / MiM) capacitors.
  double cap_density = 1.0e-3;      ///< F/m^2
  double cap_bottom_ratio = 0.08;   ///< bottom-plate parasitic / nominal value

  // Pelgrom mismatch coefficients (per device pair).
  double avt = 5.0e-9;     ///< V·m  (5 mV·µm)
  double abeta = 0.01e-6;  ///< relative beta mismatch · m (1 %·µm)

  /// Parameters of the requested polarity.
  const DeviceParams& params(Type type) const { return type == Type::NMOS ? nmos : pmos; }
  DeviceParams& params(Type type) { return type == Type::NMOS ? nmos : pmos; }

  /// The typical (TT) 0.18 µm process used throughout the reproduction.
  static Process typical();

  bool operator==(const Process&) const = default;

  /// This process shifted to a manufacturing corner: threshold, mobility,
  /// oxide and capacitor-density shifts; FS/SF move NMOS and PMOS in
  /// opposite directions.
  Process at_corner(Corner corner) const;
};

}  // namespace anadex::device
