// Lane transliteration of opamp.cpp's analyze(). Every numbered step below
// names the corresponding block of the scalar function; the floating-point
// expression trees are copied verbatim so lane results stay bit-identical
// (enforced by tests/circuit/batch_opamp_test.cpp and the scint golden
// suite).
//
// This is the one translation unit that includes the lane kernels, and it
// compiles their three SoA loop helpers twice: at the build's baseline ISA
// and, in x86-64 builds, as x86-64-v4 (AVX-512) variants selected by
// function attributes. No file is built with -m/-march flags: the linker
// would merge inline functions compiled for different ISAs into one copy,
// which a baseline CPU might then run.
#include "circuit/batch_opamp.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/math.hpp"
#include "device/batch_mosfet.hpp"

namespace anadex::circuit {

using device::Geometry;
using device::OpLanes;
using device::ParamLanes;
using device::Region;

namespace {

// Mirrors of opamp.cpp's constants.
constexpr double kSatGuard = 0.04;
constexpr double kTiny = 1e-18;

/// The three SoA loop helpers of device/batch_mosfet.hpp at one lane width,
/// compiled for one instruction-set level.
template <std::size_t W>
struct LaneKernels {
  void (*drain_current)(const ParamLanes<W>&, const double* w, const double* l,
                        const double* vgs, const double* vds, const double* vsb, double* id);
  void (*solve_op)(const ParamLanes<W>&, const double* w, const double* l, const double* vgs,
                   const double* vds, const double* vsb, OpLanes<W>& out);
  void (*vgs_for_current)(const ParamLanes<W>&, const double* w, const double* l,
                          const double* id, const double* vds, const double* vsb,
                          double vgs_max, double* vgs);
};

template <std::size_t W>
constexpr LaneKernels<W> kBaselineKernels{&device::drain_current_lanes<W>,
                                          &device::solve_op_lanes<W>,
                                          &device::vgs_for_current_lanes<W>};

#if defined(__x86_64__)
// The x86-64-v4 variants. Only AVX-512's masked lanes let GCC if-convert
// these loops: at the baseline, and at x86-64-v3, it reports "control flow
// in loop" and emits scalar code. `flatten` inlines the n-exponent dispatch
// and every callee: an ordinary inline function keeps the baseline target
// and would otherwise stay an out-of-line call. The bits cannot differ:
// -ffp-contract=off holds here too, and +, -, *, /, sqrt, min, max and
// select are correctly rounded at every vector width.
template <std::size_t W>
[[gnu::target("arch=x86-64-v4"), gnu::flatten]] void drain_current_v4(
    const ParamLanes<W>& p, const double* w, const double* l, const double* vgs,
    const double* vds, const double* vsb, double* id) {
  device::drain_current_lanes<W>(p, w, l, vgs, vds, vsb, id);
}

template <std::size_t W>
[[gnu::target("arch=x86-64-v4"), gnu::flatten]] void solve_op_v4(
    const ParamLanes<W>& p, const double* w, const double* l, const double* vgs,
    const double* vds, const double* vsb, OpLanes<W>& out) {
  device::solve_op_lanes<W>(p, w, l, vgs, vds, vsb, out);
}

template <std::size_t W>
[[gnu::target("arch=x86-64-v4"), gnu::flatten]] void vgs_for_current_v4(
    const ParamLanes<W>& p, const double* w, const double* l, const double* id,
    const double* vds, const double* vsb, double vgs_max, double* vgs) {
  device::vgs_for_current_lanes<W>(p, w, l, id, vds, vsb, vgs_max, vgs);
}

template <std::size_t W>
constexpr LaneKernels<W> kV4Kernels{&drain_current_v4<W>, &solve_op_v4<W>,
                                    &vgs_for_current_v4<W>};

constexpr LaneIsa kCompiledLaneIsas[] = {LaneIsa::Baseline, LaneIsa::X86_64_V4};
#else
constexpr LaneIsa kCompiledLaneIsas[] = {LaneIsa::Baseline};
#endif

template <std::size_t W>
const LaneKernels<W>& kernels_for(LaneIsa isa) {
#if defined(__x86_64__)
  if (isa == LaneIsa::X86_64_V4) return kV4Kernels<W>;
#endif
  return kBaselineKernels<W>;
}

/// diode_vgs() lanes: three fixed-point passes of the inverse model with
/// VDS following VGS, starting from 0.6 V.
template <std::size_t W>
void diode_vgs_lanes(const LaneKernels<W>& kernels, const ParamLanes<W>& params,
                     const double* w, const double* l, const double* id, double vdd,
                     double* vgs) {
  double vds[W], vsb0[W];
  for (std::size_t k = 0; k < W; ++k) {
    vgs[k] = 0.6;
    vsb0[k] = 0.0;
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t k = 0; k < W; ++k) vds[k] = vgs[k];
    kernels.vgs_for_current(params, w, l, id, vds, vsb0, vdd, vgs);
  }
}

template <std::size_t W>
void analyze_with(const LaneKernels<W>& kernels,
                  std::span<const device::Process* const, W> processes,
                  std::span<const OpAmpDesign, W> designs, const OpAmpContext& context,
                  std::span<OpAmpAnalysis, W> out) {
  const auto nmos = device::gather_param_lanes<W>(processes, device::Type::NMOS);
  const auto pmos = device::gather_param_lanes<W>(processes, device::Type::PMOS);
  const double vdd = processes[0]->vdd;
  for (const device::Process* p : processes) {
    ANADEX_CHECK_INVARIANT(p->vdd == vdd, "lane processes must share vdd");
  }

  // AoS -> SoA unpack of the per-lane design variables.
  double m1w[W], m1l[W], m3w[W], m3l[W], m5w[W], m5l[W];
  double m6w[W], m6l[W], m7w[W], m7l[W], ibias[W];
  for (std::size_t k = 0; k < W; ++k) {
    const OpAmpDesign& d = designs[k];
    m1w[k] = d.m1.w;
    m1l[k] = d.m1.l;
    m3w[k] = d.m3.w;
    m3l[k] = d.m3.l;
    m5w[k] = d.m5.w;
    m5l[k] = d.m5.l;
    m6w[k] = d.m6.w;
    m6l[k] = d.m6.l;
    m7w[k] = d.m7.w;
    m7l[k] = d.m7.l;
    ibias[k] = d.ibias;
  }
  double zeros[W];
  for (std::size_t k = 0; k < W; ++k) zeros[k] = 0.0;

  // ---- Bias chain (scalar step 1: Mref diode) ---------------------------
  const Geometry ref = bias_reference_geometry();
  double refw[W], refl[W], vgs_ref[W];
  for (std::size_t k = 0; k < W; ++k) {
    refw[k] = ref.w;
    refl[k] = ref.l;
  }
  diode_vgs_lanes<W>(kernels, nmos, refw, refl, ibias, vdd, vgs_ref);

  // ---- Tail fixed point (scalar step 2) ---------------------------------
  double v_tail[W], i5[W], vgs1[W], half_i5[W], vtail_eff[W], vds_half[W];
  for (std::size_t k = 0; k < W; ++k) {
    v_tail[k] = 0.2;
    i5[k] = 0.0;
    vgs1[k] = 0.6;
    half_i5[k] = 0.0;
    vds_half[k] = 0.5;
  }
  for (int pass = 0; pass < 4; ++pass) {
    for (std::size_t k = 0; k < W; ++k) vtail_eff[k] = std::max(v_tail[k], 1e-3);
    kernels.drain_current(nmos, m5w, m5l, vgs_ref, vtail_eff, zeros, i5);
    for (std::size_t k = 0; k < W; ++k) {
      i5[k] = std::max(i5[k], kTiny);
      half_i5[k] = 0.5 * i5[k];
    }
    kernels.vgs_for_current(nmos, m1w, m1l, half_i5, vds_half, v_tail, vdd, vgs1);
    for (std::size_t k = 0; k < W; ++k) {
      v_tail[k] = std::clamp(context.vicm - vgs1[k], 1e-3, vdd);
    }
  }

  // ---- Mirror load diode + second stage (scalar steps 3-4) --------------
  double vsg3[W], v_first[W], i7[W], id6[W], vocm_arr[W], vdd_m_vocm[W];
  diode_vgs_lanes<W>(kernels, pmos, m3w, m3l, half_i5, vdd, vsg3);
  for (std::size_t k = 0; k < W; ++k) {
    v_first[k] = vdd - vsg3[k];
    vocm_arr[k] = context.vocm;
    vdd_m_vocm[k] = vdd - context.vocm;
  }
  kernels.drain_current(nmos, m7w, m7l, vgs_ref, vocm_arr, zeros, i7);
  kernels.drain_current(pmos, m6w, m6l, vsg3, vdd_m_vocm, zeros, id6);
  for (std::size_t k = 0; k < W; ++k) i7[k] = std::max(i7[k], kTiny);

  // ---- Operating points (scalar step 5) ---------------------------------
  OpLanes<W> op1, op3, op5, op6, op7;
  double vds1[W];
  for (std::size_t k = 0; k < W; ++k) {
    vds1[k] = std::max(v_first[k] - v_tail[k], 1e-3);
    vtail_eff[k] = std::max(v_tail[k], 1e-3);  // final v_tail
  }
  kernels.solve_op(nmos, m1w, m1l, vgs1, vds1, v_tail, op1);
  kernels.solve_op(pmos, m3w, m3l, vsg3, vsg3, zeros, op3);
  kernels.solve_op(nmos, m5w, m5l, vgs_ref, vtail_eff, zeros, op5);
  kernels.solve_op(pmos, m6w, m6l, vsg3, vdd_m_vocm, zeros, op6);
  kernels.solve_op(nmos, m7w, m7l, vgs_ref, vocm_arr, zeros, op7);

  // ---- Per-lane epilogue: gains, capacitances, large-signal, margins ----
  // Cheap relative to the solves; scalar expression trees copied from
  // analyze() with lane subscripts, on the lane's own process.
  for (std::size_t k = 0; k < W; ++k) {
    const device::Process& process = *processes[k];
    OpAmpAnalysis& o = out[k];
    o = OpAmpAnalysis{};
    o.vgs_ref = vgs_ref[k];
    o.margins.mref = (vdd - 0.1) - vgs_ref[k];
    o.i5 = i5[k];
    o.i7 = i7[k];
    o.mirror_balance_error = std::abs(id6[k] - i7[k]) / i7[k];

    o.gm1 = op1.gm[k];
    o.gm3 = op3.gm[k];
    o.gm6 = op6.gm[k];
    const double ro1 = 1.0 / std::max(op1.gds[k] + op3.gds[k], kTiny);
    const double ro2 = 1.0 / std::max(op6.gds[k] + op7.gds[k], kTiny);
    o.a1 = o.gm1 * ro1;
    o.a2 = o.gm6 * ro2;
    o.a0 = o.a1 * o.a2;

    const device::DeviceCaps c1 =
        device::capacitances(process, Geometry{m1w[k], m1l[k]}, Region(op1.region[k]));
    const device::DeviceCaps c3 =
        device::capacitances(process, Geometry{m3w[k], m3l[k]}, Region(op3.region[k]));
    const device::DeviceCaps c6 =
        device::capacitances(process, Geometry{m6w[k], m6l[k]}, Region(op6.region[k]));
    const device::DeviceCaps c7 =
        device::capacitances(process, Geometry{m7w[k], m7l[k]}, Region(op7.region[k]));

    o.cc_eff = designs[k].cc + c6.cgd;
    o.c_first = c1.cdb + c1.cgd + c3.cdb + c3.cgd + c6.cgs;
    o.c_out_self = c6.cdb + c7.cdb + c7.cgd;
    o.c_mirror = 2.0 * c3.cgs + c3.cdb + c1.cdb + c1.cgd;
    o.c_in = c1.cgs + 2.0 * c1.cgd;

    o.mirror_pole = o.gm3 / std::max(o.c_mirror, kTiny);

    o.slew_internal = o.i5 / std::max(o.cc_eff, kTiny);
    o.swing = std::max(vdd - op6.vdsat[k] - op7.vdsat[k], 0.0);

    const double gm1_safe = std::max(o.gm1, kTiny);
    o.noise_psd =
        16.0 * kBoltzmann * process.temperature / (3.0 * gm1_safe) * (1.0 + o.gm3 / gm1_safe);

    o.power = vdd * (designs[k].ibias + o.i5 + 2.0 * o.i7);
    o.area = 2.0 * m1w[k] * m1l[k] + 2.0 * m3w[k] * m3l[k] +
             m5w[k] * m5l[k] + 2.0 * m6w[k] * m6l[k] +
             2.0 * m7w[k] * m7l[k] + ref.w * ref.l;

    const auto margin = [](const OpLanes<W>& op, std::size_t lane, double vds) {
      if (Region(op.region[lane]) == Region::Cutoff) return -1.0;
      return vds - op.vdsat[lane] - kSatGuard;
    };
    o.margins.m1 = margin(op1, k, std::max(v_first[k] - v_tail[k], 0.0));
    o.margins.m5 = margin(op5, k, v_tail[k]);
    o.margins.m6 = margin(op6, k, vdd - context.vocm);
    o.margins.m7 = margin(op7, k, context.vocm);
    o.vov_worst = std::min({op1.vov[k], op3.vov[k], op5.vov[k], op6.vov[k], op7.vov[k]});
  }
}

}  // namespace

namespace detail {

std::span<const LaneIsa> compiled_lane_isas() { return kCompiledLaneIsas; }

bool cpu_supports(LaneIsa isa) {
  if (isa == LaneIsa::Baseline) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v4") != 0;
#else
  return false;
#endif
}

template <std::size_t W>
void analyze_lanes_as(LaneIsa isa, std::span<const device::Process* const, W> processes,
                      std::span<const OpAmpDesign, W> designs, const OpAmpContext& context,
                      std::span<OpAmpAnalysis, W> out) {
  ANADEX_REQUIRE(cpu_supports(isa), "this CPU cannot run the requested lane kernels");
  analyze_with<W>(kernels_for<W>(isa), processes, designs, context, out);
}

template void analyze_lanes_as<4>(LaneIsa, std::span<const device::Process* const, 4>,
                                  std::span<const OpAmpDesign, 4>, const OpAmpContext&,
                                  std::span<OpAmpAnalysis, 4>);
template void analyze_lanes_as<8>(LaneIsa, std::span<const device::Process* const, 8>,
                                  std::span<const OpAmpDesign, 8>, const OpAmpContext&,
                                  std::span<OpAmpAnalysis, 8>);
template void analyze_lanes_as<16>(LaneIsa, std::span<const device::Process* const, 16>,
                                   std::span<const OpAmpDesign, 16>, const OpAmpContext&,
                                   std::span<OpAmpAnalysis, 16>);

}  // namespace detail

LaneIsa lane_isa() {
  static const LaneIsa isa =
      detail::cpu_supports(LaneIsa::X86_64_V4) ? LaneIsa::X86_64_V4 : LaneIsa::Baseline;
  return isa;
}

std::string_view to_string(LaneIsa isa) {
  if (isa == LaneIsa::X86_64_V4) return "x86-64-v4";
#if defined(__x86_64__)
  return "x86-64";
#else
  return "baseline";
#endif
}

template <std::size_t W>
void analyze_lanes(std::span<const device::Process* const, W> processes,
                   std::span<const OpAmpDesign, W> designs, const OpAmpContext& context,
                   std::span<OpAmpAnalysis, W> out) {
  analyze_with<W>(kernels_for<W>(lane_isa()), processes, designs, context, out);
}

template void analyze_lanes<4>(std::span<const device::Process* const, 4>,
                               std::span<const OpAmpDesign, 4>, const OpAmpContext&,
                               std::span<OpAmpAnalysis, 4>);
template void analyze_lanes<8>(std::span<const device::Process* const, 8>,
                               std::span<const OpAmpDesign, 8>, const OpAmpContext&,
                               std::span<OpAmpAnalysis, 8>);
template void analyze_lanes<16>(std::span<const device::Process* const, 16>,
                                std::span<const OpAmpDesign, 16>, const OpAmpContext&,
                                std::span<OpAmpAnalysis, 16>);

}  // namespace anadex::circuit
