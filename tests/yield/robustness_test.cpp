#include "yield/robustness.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "../support/reference_design.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::yield {
namespace {

const device::Process kProc = device::Process::typical();

TEST(Perturbations, DrawIsDeterministicPerSeed) {
  MonteCarloParams params;
  const auto a = draw_perturbations(params);
  const auto b = draw_perturbations(params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dvt_nmos, b[i].dvt_nmos);
    EXPECT_EQ(a[i].rel_cap, b[i].rel_cap);
  }
}

TEST(Perturbations, DifferentSeedsDiffer) {
  MonteCarloParams pa;
  MonteCarloParams pb;
  pb.seed = pa.seed + 1;
  const auto a = draw_perturbations(pa);
  const auto b = draw_perturbations(pb);
  EXPECT_NE(a[0].dvt_nmos, b[0].dvt_nmos);
}

TEST(Perturbations, CountMatchesRequest) {
  MonteCarloParams params;
  params.samples = 33;
  EXPECT_EQ(draw_perturbations(params).size(), 33u);
}

TEST(Perturbations, ZeroSamplesRejected) {
  MonteCarloParams params;
  params.samples = 0;
  EXPECT_THROW(draw_perturbations(params), PreconditionError);
}

TEST(Perturbations, MagnitudesTrackSigmas) {
  MonteCarloParams params;
  params.samples = 2000;
  params.sigma_vt = 0.01;
  const auto set = draw_perturbations(params);
  double var = 0.0;
  for (const auto& s : set) var += s.dvt_nmos * s.dvt_nmos;
  var /= static_cast<double>(set.size());
  EXPECT_NEAR(std::sqrt(var), 0.01, 0.001);
}

TEST(Perturbations, AppliedToShiftsProcess) {
  ProcessPerturbation s;
  s.dvt_nmos = 0.02;
  s.rel_mu_pmos = -0.1;
  s.rel_cap = 0.05;
  const auto shifted = s.applied_to(kProc);
  EXPECT_NEAR(shifted.nmos.vt0, kProc.nmos.vt0 + 0.02, 1e-12);
  EXPECT_NEAR(shifted.pmos.mu_cox, kProc.pmos.mu_cox * 0.9, 1e-12);
  EXPECT_NEAR(shifted.cap_density, kProc.cap_density * 1.05, 1e-15);
  // Untouched fields stay.
  EXPECT_EQ(shifted.pmos.vt0, kProc.pmos.vt0);
  EXPECT_EQ(shifted.nmos.mu_cox, kProc.nmos.mu_cox);
}

TEST(Robustness, EmptyPerturbationSetRejected) {
  const auto design = testing_support::reference_design();
  EXPECT_THROW(robustness(kProc, design, scint::IntegratorContext{}, scint::Spec{}, {}),
               PreconditionError);
}

TEST(Robustness, ReferenceDesignScoresHigh) {
  const auto design = testing_support::reference_design();
  const auto set = draw_perturbations(MonteCarloParams{});
  const double rob = robustness(kProc, design, scint::IntegratorContext{}, scint::Spec{}, set);
  EXPECT_GE(rob, 0.85);
  EXPECT_LE(rob, 1.0);
}

TEST(Robustness, TighterSpecScoresLower) {
  const auto design = testing_support::reference_design();
  const auto set = draw_perturbations(MonteCarloParams{});
  scint::Spec loose;
  loose.dr_min_db = 90.0;
  scint::Spec tight;
  tight.dr_min_db = 96.05;  // right at the reference design's margin
  const scint::IntegratorContext ctx;
  EXPECT_GE(robustness(kProc, design, ctx, loose, set),
            robustness(kProc, design, ctx, tight, set));
}

TEST(Robustness, ImpossibleSpecScoresZero) {
  const auto design = testing_support::reference_design();
  const auto set = draw_perturbations(MonteCarloParams{});
  scint::Spec impossible;
  impossible.dr_min_db = 200.0;
  EXPECT_EQ(robustness(kProc, design, scint::IntegratorContext{}, impossible, set), 0.0);
}

TEST(Robustness, DeterministicWithCommonRandomNumbers) {
  const auto design = testing_support::reference_design();
  const auto set = draw_perturbations(MonteCarloParams{});
  const scint::IntegratorContext ctx;
  const scint::Spec spec;
  EXPECT_EQ(robustness(kProc, design, ctx, spec, set),
            robustness(kProc, design, ctx, spec, set));
}

TEST(Robustness, QuantizedToSampleCount) {
  const auto design = testing_support::reference_design();
  MonteCarloParams params;
  params.samples = 4;
  const auto set = draw_perturbations(params);
  const double rob =
      robustness(kProc, design, scint::IntegratorContext{}, scint::Spec{}, set);
  const double scaled = rob * 4.0;
  EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
}

TEST(PairMismatch, DisabledByDefault) {
  const auto set = draw_perturbations(MonteCarloParams{});
  for (const auto& s : set) {
    EXPECT_EQ(s.z_pair_input, 0.0);
    EXPECT_EQ(s.z_pair_mirror, 0.0);
    EXPECT_EQ(s.z_pair_stage2, 0.0);
  }
}

TEST(PairMismatch, DrawsWhenEnabled) {
  MonteCarloParams params;
  params.include_pair_mismatch = true;
  const auto set = draw_perturbations(params);
  bool any = false;
  for (const auto& s : set) any |= s.z_pair_input != 0.0;
  EXPECT_TRUE(any);
}

TEST(PairMismatch, PelgromScalesInverselyWithGateArea) {
  ProcessPerturbation s;
  const double small = s.pair_vt_mismatch(kProc, {2e-6, 0.5e-6}, 1.0);
  const double large = s.pair_vt_mismatch(kProc, {8e-6, 2.0e-6}, 1.0);
  EXPECT_NEAR(small / large, 4.0, 1e-9);  // 16x the area -> 4x less mismatch
  EXPECT_THROW(s.pair_vt_mismatch(kProc, {0.0, 1e-6}, 1.0), PreconditionError);
}

TEST(PairMismatch, MismatchNeverImprovesRobustness) {
  const auto design = testing_support::reference_design();
  MonteCarloParams base_params;
  MonteCarloParams mm_params;
  mm_params.include_pair_mismatch = true;
  const auto base_set = draw_perturbations(base_params);
  const auto mm_set = draw_perturbations(mm_params);
  const scint::IntegratorContext ctx;
  scint::Spec tight;
  tight.dr_min_db = 96.05;  // at the reference design's margin
  const double base_rob = robustness(kProc, design, ctx, tight, base_set);
  const double mm_rob = robustness(kProc, design, ctx, tight, mm_set);
  EXPECT_LE(mm_rob, base_rob + 0.26);  // extra variation can only hurt (noise slack)
}

// ---- Lane Monte Carlo against the scalar sample loop ----------------------

/// The process the oracle evaluates a sample on: the global shift, then
/// the input and mirror pairs' Pelgrom mismatch when drawn.
device::Process reference_shifted(const device::Process& base,
                                  const scint::IntegratorDesign& design,
                                  const ProcessPerturbation& sample) {
  device::Process shifted = sample.applied_to(base);
  if (sample.z_pair_input != 0.0 || sample.z_pair_mirror != 0.0) {
    shifted.nmos.vt0 +=
        sample.pair_vt_mismatch(shifted, design.opamp.m1, sample.z_pair_input);
    shifted.pmos.vt0 +=
        sample.pair_vt_mismatch(shifted, design.opamp.m3, sample.z_pair_mirror);
  }
  return shifted;
}

/// The sample loop robustness() ran before it moved onto the lane kernels,
/// kept as the oracle: one scalar evaluate() per sample.
double reference_robustness(const device::Process& base, const scint::IntegratorDesign& design,
                            const scint::IntegratorContext& context, const scint::Spec& spec,
                            const std::vector<ProcessPerturbation>& perturbations) {
  ANADEX_REQUIRE(!perturbations.empty(), "robustness needs a non-empty perturbation set");
  std::size_t pass = 0;
  for (const auto& sample : perturbations) {
    const device::Process shifted = reference_shifted(base, design, sample);
    const scint::IntegratorPerformance perf = scint::evaluate(shifted, design, context);
    if (spec.satisfied_by(perf)) ++pass;
  }
  return static_cast<double>(pass) / static_cast<double>(perturbations.size());
}

/// Byte equality of two performances. Every member is a double (no
/// padding), so this compares every field bit for bit, NaN payloads too.
bool same_bits(const scint::IntegratorPerformance& a, const scint::IntegratorPerformance& b) {
  static_assert(sizeof(scint::IntegratorPerformance) % sizeof(double) == 0);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// reference_design() with every gene scaled by exp(N(0, sigma)), so the
/// corpus spans designs that pass every sample, none, and some.
std::vector<scint::IntegratorDesign> jittered_designs(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<scint::IntegratorDesign> designs{testing_support::reference_design()};
  const auto base = problems::IntegratorProblem::encode(designs[0]);
  while (designs.size() < count) {
    const double sigma = 0.02 * static_cast<double>(designs.size() % 6);
    auto genes = base;
    for (double& g : genes) g *= std::exp(rng.normal(0.0, sigma));
    designs.push_back(problems::IntegratorProblem::decode(genes));
  }
  return designs;
}

std::vector<std::vector<ProcessPerturbation>> oracle_sample_sets() {
  std::vector<std::vector<ProcessPerturbation>> sets;
  for (const bool mismatch : {false, true}) {
    for (const std::size_t samples :
         std::array<std::size_t, 9>{1, 3, 4, 5, 8, 15, 16, 17, 33}) {
      MonteCarloParams params;
      params.samples = samples;
      params.include_pair_mismatch = mismatch;
      sets.push_back(draw_perturbations(params));
    }
  }
  return sets;
}

TEST(Robustness, SamplePerformancesBitIdenticalToScalar) {
  // Every sample of every lane group, ragged remainders and pair mismatch
  // included, against scint::evaluate on the oracle's shifted process.
  const scint::IntegratorContext ctx;
  for (const auto& design : jittered_designs(12, 7)) {
    for (const auto& set : oracle_sample_sets()) {
      const auto perfs = sample_performances(kProc, design, ctx, set);
      ASSERT_EQ(perfs.size(), set.size());
      for (std::size_t i = 0; i < set.size(); ++i) {
        const auto scalar =
            scint::evaluate(reference_shifted(kProc, design, set[i]), design, ctx);
        EXPECT_TRUE(same_bits(perfs[i], scalar))
            << "sample " << i << " of " << set.size() << ": dr " << perfs[i].dynamic_range_db
            << " vs " << scalar.dynamic_range_db;
      }
    }
  }
}

TEST(Robustness, EqualsReferenceLoopOnEverySpec) {
  // All 20 specs x jittered designs x sample counts straddling the lane
  // widths, mismatch on and off: the fraction must equal the oracle's
  // exactly. The pass counts must cover 0, N and values in between.
  const scint::IntegratorContext ctx;
  const auto specs = problems::spec_suite();
  ASSERT_EQ(specs.size(), 20u);
  const auto sets = oracle_sample_sets();
  std::set<double> fractions_at_16;
  for (const auto& design : jittered_designs(12, 11)) {
    for (const auto& set : sets) {
      for (const auto& spec : specs) {
        const double lanes = robustness(kProc, design, ctx, spec, set);
        const double oracle = reference_robustness(kProc, design, ctx, spec, set);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes), std::bit_cast<std::uint64_t>(oracle))
            << spec.name << ", " << set.size() << " samples: " << lanes << " vs " << oracle;
        if (set.size() == 16) fractions_at_16.insert(lanes);
      }
    }
  }
  EXPECT_TRUE(fractions_at_16.count(0.0));
  EXPECT_TRUE(fractions_at_16.count(1.0));
  EXPECT_GE(fractions_at_16.size(), 4u);
}

TEST(Robustness, HostileDesignThrowsExactlyWhenReferenceThrows) {
  const scint::IntegratorContext ctx;
  const scint::Spec spec;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<scint::IntegratorDesign> hostile;
  for (const double bad : {nan, 0.0, -1e-6}) {
    auto biased = testing_support::reference_design();
    biased.opamp.ibias = bad;
    hostile.push_back(biased);
    for (device::Geometry circuit::OpAmpDesign::*device :
         {&circuit::OpAmpDesign::m1, &circuit::OpAmpDesign::m3, &circuit::OpAmpDesign::m5,
          &circuit::OpAmpDesign::m6, &circuit::OpAmpDesign::m7}) {
      for (double device::Geometry::*dim : {&device::Geometry::w, &device::Geometry::l}) {
        auto d = testing_support::reference_design();
        (d.opamp.*device).*dim = bad;
        hostile.push_back(d);
      }
    }
    // Capacitor values are not model preconditions: no throw either way.
    auto d = testing_support::reference_design();
    d.opamp.cc = bad;
    d.cs = bad;
    hostile.push_back(d);
  }
  std::size_t throws = 0;
  std::size_t returns = 0;
  for (const auto& set : oracle_sample_sets()) {
    for (std::size_t h = 0; h < hostile.size(); ++h) {
      bool reference_threw = false;
      double oracle = 0.0;
      try {
        oracle = reference_robustness(kProc, hostile[h], ctx, spec, set);
      } catch (const PreconditionError&) {
        reference_threw = true;
      }
      ++(reference_threw ? throws : returns);
      if (reference_threw) {
        EXPECT_THROW(robustness(kProc, hostile[h], ctx, spec, set), PreconditionError)
            << "hostile design " << h;
        EXPECT_THROW(sample_performances(kProc, hostile[h], ctx, set), PreconditionError);
      } else {
        EXPECT_EQ(robustness(kProc, hostile[h], ctx, spec, set), oracle)
            << "hostile design " << h;
      }
    }
  }
  EXPECT_GT(throws, 0u);
  EXPECT_GT(returns, 0u);
}

}  // namespace
}  // namespace anadex::yield
