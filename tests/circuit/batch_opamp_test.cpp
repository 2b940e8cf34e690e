// analyze_lanes<W> vs scalar analyze(): the SoA opamp kernels must emit
// bit-identical analyses for every compiled lane width, with one process
// broadcast to every lane or a different process per lane. Field-by-field
// bit comparison (not EXPECT_DOUBLE_EQ) because checkpoint byte-identity
// between batch_eval modes rides on exact doubles.
//
// Each case runs twice over: through the dispatched analyze_lanes(), and
// (BatchOpAmpVariant) on every instruction-set level compiled into the
// binary that this CPU can run, through detail::analyze_lanes_as(). A CPU
// without AVX-512 skips the x86-64-v4 leg, so run this suite on one that
// has it before changing the kernels.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/batch_opamp.hpp"
#include "circuit/opamp.hpp"
#include "common/rng.hpp"
#include "device/process.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::circuit {

// GoogleTest names a level parameter with this; found by argument lookup.
static void PrintTo(LaneIsa isa, std::ostream* os) { *os << to_string(isa); }

namespace {

const device::Process kProc = device::Process::typical();

/// Random designs drawn inside the optimization problem's own bounds, so
/// the suite stresses exactly the design space the engine explores.
std::vector<OpAmpDesign> random_designs(std::size_t count, std::uint64_t seed) {
  const problems::IntegratorProblem problem(problems::chosen_spec());
  const auto bounds = problem.bounds();
  Rng rng(seed);
  std::vector<OpAmpDesign> designs(count);
  std::vector<double> genes(bounds.size());
  for (auto& design : designs) {
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      genes[k] = rng.uniform(bounds[k].lower, bounds[k].upper);
    }
    design = problems::IntegratorProblem::decode(genes).opamp;
  }
  return designs;
}

void expect_bits(double lanes, double scalar, const char* field, std::size_t lane) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes), std::bit_cast<std::uint64_t>(scalar))
      << field << " lane " << lane << ": " << lanes << " vs " << scalar;
}

void expect_analysis_equal(const OpAmpAnalysis& lanes, const OpAmpAnalysis& scalar,
                           std::size_t lane) {
  expect_bits(lanes.i5, scalar.i5, "i5", lane);
  expect_bits(lanes.i7, scalar.i7, "i7", lane);
  expect_bits(lanes.vgs_ref, scalar.vgs_ref, "vgs_ref", lane);
  expect_bits(lanes.gm1, scalar.gm1, "gm1", lane);
  expect_bits(lanes.gm3, scalar.gm3, "gm3", lane);
  expect_bits(lanes.gm6, scalar.gm6, "gm6", lane);
  expect_bits(lanes.a1, scalar.a1, "a1", lane);
  expect_bits(lanes.a2, scalar.a2, "a2", lane);
  expect_bits(lanes.a0, scalar.a0, "a0", lane);
  expect_bits(lanes.cc_eff, scalar.cc_eff, "cc_eff", lane);
  expect_bits(lanes.c_first, scalar.c_first, "c_first", lane);
  expect_bits(lanes.c_out_self, scalar.c_out_self, "c_out_self", lane);
  expect_bits(lanes.c_mirror, scalar.c_mirror, "c_mirror", lane);
  expect_bits(lanes.c_in, scalar.c_in, "c_in", lane);
  expect_bits(lanes.mirror_pole, scalar.mirror_pole, "mirror_pole", lane);
  expect_bits(lanes.slew_internal, scalar.slew_internal, "slew_internal", lane);
  expect_bits(lanes.swing, scalar.swing, "swing", lane);
  expect_bits(lanes.noise_psd, scalar.noise_psd, "noise_psd", lane);
  expect_bits(lanes.power, scalar.power, "power", lane);
  expect_bits(lanes.area, scalar.area, "area", lane);
  expect_bits(lanes.mirror_balance_error, scalar.mirror_balance_error,
              "mirror_balance_error", lane);
  expect_bits(lanes.vov_worst, scalar.vov_worst, "vov_worst", lane);
  expect_bits(lanes.margins.m1, scalar.margins.m1, "margins.m1", lane);
  expect_bits(lanes.margins.m5, scalar.margins.m5, "margins.m5", lane);
  expect_bits(lanes.margins.m6, scalar.margins.m6, "margins.m6", lane);
  expect_bits(lanes.margins.m7, scalar.margins.m7, "margins.m7", lane);
  expect_bits(lanes.margins.mref, scalar.margins.mref, "margins.mref", lane);
}

/// The same process in every lane: many designs on one process.
template <std::size_t W>
std::array<const device::Process*, W> broadcast(const device::Process& process) {
  std::array<const device::Process*, W> lanes;
  lanes.fill(&process);
  return lanes;
}

/// The kernels a case runs: one compiled level through the test seam, or
/// (nullopt) the level analyze_lanes() dispatches to.
using Kernels = std::optional<LaneIsa>;
constexpr Kernels kDispatched = std::nullopt;

template <std::size_t W>
std::array<OpAmpAnalysis, W> run_lanes(const Kernels& kernels,
                                       std::span<const device::Process* const, W> processes,
                                       const std::vector<OpAmpDesign>& designs) {
  const std::span<const OpAmpDesign, W> lane_designs(designs.data(), W);
  std::array<OpAmpAnalysis, W> out;
  if (kernels) {
    detail::analyze_lanes_as<W>(*kernels, processes, lane_designs, OpAmpContext{}, out);
  } else {
    analyze_lanes<W>(processes, lane_designs, OpAmpContext{}, out);
  }
  return out;
}

template <std::size_t W>
void check_width(const Kernels& kernels) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto designs = random_designs(W, seed);
    const auto lanes = run_lanes<W>(kernels, broadcast<W>(kProc), designs);
    for (std::size_t k = 0; k < W; ++k) {
      expect_analysis_equal(lanes[k], analyze(kProc, designs[k], OpAmpContext{}), k);
    }
  }
}

void check_every_corner(const Kernels& kernels) {
  // The engine evaluates each design on five process corners; the kernels
  // must agree on all of them, not just typical.
  const auto designs = random_designs(8, 99);
  for (const device::Corner corner : device::kAllCorners) {
    const device::Process process = kProc.at_corner(corner);
    const auto lanes = run_lanes<8>(kernels, broadcast<8>(process), designs);
    for (std::size_t k = 0; k < 8; ++k) {
      expect_analysis_equal(lanes[k], analyze(process, designs[k], OpAmpContext{}), k);
    }
  }
}

void check_per_lane_processes(const Kernels& kernels) {
  // One process per lane: the five corners in lanes 0-4 of a single W = 8
  // call (lanes 5-7 repeat TT, FF, SS), each lane against its own scalar
  // analyze(). Corners differ in vt0 and mu_cox, which the kernels read per
  // lane, and in cox and cap_density, which the per-lane epilogue reads.
  const auto designs = random_designs(8, 123);
  std::array<device::Process, 5> corners;
  for (std::size_t c = 0; c < corners.size(); ++c) {
    corners[c] = kProc.at_corner(device::kAllCorners[c]);
  }
  std::array<const device::Process*, 8> processes;
  for (std::size_t k = 0; k < 8; ++k) processes[k] = &corners[k % corners.size()];

  const auto lanes = run_lanes<8>(kernels, processes, designs);
  for (std::size_t k = 0; k < 8; ++k) {
    expect_analysis_equal(lanes[k], analyze(*processes[k], designs[k], OpAmpContext{}), k);
  }
}

TEST(BatchOpAmp, WidthFourBitIdentical) { check_width<4>(kDispatched); }
TEST(BatchOpAmp, WidthEightBitIdentical) { check_width<8>(kDispatched); }
TEST(BatchOpAmp, WidthSixteenBitIdentical) { check_width<16>(kDispatched); }
TEST(BatchOpAmp, EveryCornerBitIdentical) { check_every_corner(kDispatched); }
TEST(BatchOpAmp, PerLaneProcessesBitIdentical) { check_per_lane_processes(kDispatched); }

class BatchOpAmpVariant : public ::testing::TestWithParam<LaneIsa> {
 protected:
  void SetUp() override {
    if (!detail::cpu_supports(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the " << to_string(GetParam()) << " lane kernels";
    }
  }
};

TEST_P(BatchOpAmpVariant, WidthFourBitIdentical) { check_width<4>(GetParam()); }
TEST_P(BatchOpAmpVariant, WidthEightBitIdentical) { check_width<8>(GetParam()); }
TEST_P(BatchOpAmpVariant, WidthSixteenBitIdentical) { check_width<16>(GetParam()); }
TEST_P(BatchOpAmpVariant, EveryCornerBitIdentical) { check_every_corner(GetParam()); }
TEST_P(BatchOpAmpVariant, PerLaneProcessesBitIdentical) {
  check_per_lane_processes(GetParam());
}

INSTANTIATE_TEST_SUITE_P(CompiledLevels, BatchOpAmpVariant,
                         ::testing::ValuesIn(detail::compiled_lane_isas().begin(),
                                             detail::compiled_lane_isas().end()),
                         [](const ::testing::TestParamInfo<LaneIsa>& level) {
                           std::string name(to_string(level.param));
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(LaneIsaDispatch, PicksX86_64V4ExactlyWhenTheCpuSupportsIt) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool v4 = __builtin_cpu_supports("x86-64-v4") != 0;
#else
  const bool v4 = false;
#endif
  EXPECT_EQ(lane_isa(), v4 ? LaneIsa::X86_64_V4 : LaneIsa::Baseline);
  EXPECT_EQ(detail::cpu_supports(LaneIsa::X86_64_V4), v4);
  EXPECT_TRUE(detail::cpu_supports(LaneIsa::Baseline));
  // The dispatcher only ever picks a level the binary holds.
  const auto compiled = detail::compiled_lane_isas();
  EXPECT_EQ(compiled.front(), LaneIsa::Baseline);
  EXPECT_NE(std::find(compiled.begin(), compiled.end(), lane_isa()), compiled.end());
}

TEST(LaneIsaDispatch, NamesTheLevelsAsTheTraceRecordsThem) {
  EXPECT_EQ(to_string(LaneIsa::X86_64_V4), "x86-64-v4");
#if defined(__x86_64__)
  EXPECT_EQ(to_string(LaneIsa::Baseline), "x86-64");
#endif
}

}  // namespace
}  // namespace anadex::circuit
