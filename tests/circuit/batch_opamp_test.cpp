// analyze_lanes<W> vs scalar analyze(): the SoA opamp kernels must emit
// bit-identical analyses for every compiled lane width, with one process
// broadcast to every lane or a different process per lane. Field-by-field
// bit comparison (not EXPECT_DOUBLE_EQ) because checkpoint byte-identity
// between --batch-eval modes rides on exact doubles.
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/batch_opamp.hpp"
#include "circuit/opamp.hpp"
#include "common/rng.hpp"
#include "device/process.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::circuit {
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

template <std::size_t W>
void check_width(std::uint64_t seed) {
  const auto designs = random_designs(W, seed);
  const OpAmpContext context;

  std::array<OpAmpAnalysis, W> lanes;
  analyze_lanes<W>(broadcast<W>(kProc), std::span<const OpAmpDesign, W>(designs.data(), W),
                   context, std::span<OpAmpAnalysis, W>(lanes));

  for (std::size_t k = 0; k < W; ++k) {
    const OpAmpAnalysis scalar = analyze(kProc, designs[k], context);
    expect_analysis_equal(lanes[k], scalar, k);
  }
}

TEST(BatchOpAmp, WidthFourBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) check_width<4>(seed);
}

TEST(BatchOpAmp, WidthEightBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) check_width<8>(seed);
}

TEST(BatchOpAmp, WidthSixteenBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) check_width<16>(seed);
}

TEST(BatchOpAmp, EveryCornerBitIdentical) {
  // The engine evaluates each design on five process corners; the kernels
  // must agree on all of them, not just typical.
  const auto designs = random_designs(8, 99);
  const OpAmpContext context;
  for (const device::Corner corner : device::kAllCorners) {
    const device::Process process = kProc.at_corner(corner);
    std::array<OpAmpAnalysis, 8> lanes;
    analyze_lanes<8>(broadcast<8>(process), std::span<const OpAmpDesign, 8>(designs.data(), 8),
                     context, std::span<OpAmpAnalysis, 8>(lanes));
    for (std::size_t k = 0; k < 8; ++k) {
      expect_analysis_equal(lanes[k], analyze(process, designs[k], context), k);
    }
  }
}

TEST(BatchOpAmp, PerLaneProcessesBitIdentical) {
  // One process per lane: the five corners in lanes 0-4 of a single W = 8
  // call (lanes 5-7 repeat TT, FF, SS), each lane against its own scalar
  // analyze(). Corners differ in vt0 and mu_cox, which the kernels read per
  // lane, and in cox and cap_density, which the per-lane epilogue reads.
  const auto designs = random_designs(8, 123);
  const OpAmpContext context;
  std::array<device::Process, 5> corners;
  for (std::size_t c = 0; c < corners.size(); ++c) {
    corners[c] = kProc.at_corner(device::kAllCorners[c]);
  }
  std::array<const device::Process*, 8> processes;
  for (std::size_t k = 0; k < 8; ++k) processes[k] = &corners[k % corners.size()];

  std::array<OpAmpAnalysis, 8> lanes;
  analyze_lanes<8>(processes, std::span<const OpAmpDesign, 8>(designs.data(), 8), context,
                   std::span<OpAmpAnalysis, 8>(lanes));
  for (std::size_t k = 0; k < 8; ++k) {
    expect_analysis_equal(lanes[k], analyze(*processes[k], designs[k], context), k);
  }
}

}  // namespace
}  // namespace anadex::circuit
