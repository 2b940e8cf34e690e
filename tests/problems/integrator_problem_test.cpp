#include "problems/integrator_problem.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "../support/reference_design.hpp"
#include "../support/reference_evaluate.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "moga/operators.hpp"
#include "problems/spec_suite.hpp"
#include "robust/guarded_problem.hpp"

namespace anadex::problems {
namespace {

const IntegratorProblem& chosen_problem() {
  static const IntegratorProblem problem(chosen_spec());
  return problem;
}

using testing_support::reference_evaluate;
using testing_support::ReferenceCoverage;
using testing_support::ReferenceProblem;

// Equality by bit pattern: -0.0 vs 0.0 and NaN payloads count, because
// fronts and checkpoints are byte-level artifacts of these doubles.
void expect_same_bits(const moga::Evaluation& got, const moga::Evaluation& want,
                      const std::string& label) {
  ASSERT_EQ(got.objectives.size(), want.objectives.size()) << label;
  ASSERT_EQ(got.violations.size(), want.violations.size()) << label;
  for (std::size_t i = 0; i < want.objectives.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objectives[i]),
              std::bit_cast<std::uint64_t>(want.objectives[i]))
        << label << ", objective " << i << ": " << got.objectives[i] << " vs "
        << want.objectives[i];
  }
  for (std::size_t i = 0; i < want.violations.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.violations[i]),
              std::bit_cast<std::uint64_t>(want.violations[i]))
        << label << ", violation " << i << ": " << got.violations[i] << " vs "
        << want.violations[i];
  }
}

/// The oracle corpus for one spec: random genomes (which rarely reach the
/// Monte Carlo), reference_design() jittered by exp(N(0, sigma)) per gene
/// (which mostly do, so tt_pass varies), and genomes whose capacitors are
/// NaN or negative. The last kind passes the lane pre-screen but yields NaN
/// corner figures, which the worst-case fold must drop as the loop did.
std::vector<std::vector<double>> oracle_corpus(const IntegratorProblem& problem,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> corpus;
  for (int i = 0; i < 8; ++i) corpus.push_back(moga::random_genome(problem.bounds(), rng));
  const auto base = IntegratorProblem::encode(testing_support::reference_design());
  for (int i = 0; i < 12; ++i) {
    const double sigma = 0.02 * static_cast<double>(i % 6);
    auto genes = base;
    for (double& g : genes) g *= std::exp(rng.normal(0.0, sigma));
    corpus.push_back(genes);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t gene : {std::size_t{kCs}, std::size_t{kCoc}, std::size_t{kCload}}) {
    for (const double bad : {nan, -1e-12}) {
      auto genes = base;
      genes[gene] = bad;
      corpus.push_back(genes);
    }
  }
  return corpus;
}

/// Genomes outside the device model's domain: NaN, zero or negative
/// device geometry or bias current.
std::vector<std::vector<double>> hostile_genomes() {
  const auto base = IntegratorProblem::encode(testing_support::reference_design());
  std::vector<std::vector<double>> hostile;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), 0.0, -1e-6}) {
    for (std::size_t gene = kW1; gene <= kIbias; ++gene) {
      auto genes = base;
      genes[gene] = bad;
      hostile.push_back(genes);
    }
  }
  return hostile;
}

/// Runs `genomes` through evaluate_lanes() in groups of `group`.
std::vector<moga::Evaluation> in_lane_groups(const engine::LaneEvaluator& lanes,
                                             const std::vector<std::vector<double>>& genomes,
                                             std::size_t group) {
  std::vector<moga::Evaluation> out(genomes.size());
  for (std::size_t first = 0; first < genomes.size(); first += group) {
    const std::size_t n = std::min(group, genomes.size() - first);
    std::vector<std::span<const double>> genes(n);
    std::vector<moga::Evaluation*> outs(n);
    for (std::size_t k = 0; k < n; ++k) {
      genes[k] = genomes[first + k];
      outs[k] = &out[first + k];
    }
    lanes.evaluate_lanes(genes, outs);
  }
  return out;
}

/// The type and message an evaluation throws, empty when it returns.
template <class Eval>
std::string thrown_by(Eval&& eval) {
  try {
    eval();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return {};
}

void expect_same_report(const robust::FaultReport& got, const robust::FaultReport& want) {
  EXPECT_EQ(got.exceptions, want.exceptions);
  EXPECT_EQ(got.non_finite, want.non_finite);
  EXPECT_EQ(got.wrong_arity, want.wrong_arity);
  EXPECT_EQ(got.timeouts, want.timeouts);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.recovered, want.recovered);
  EXPECT_EQ(got.penalized, want.penalized);
  ASSERT_EQ(got.failure_genes.size(), want.failure_genes.size());
  for (std::size_t i = 0; i < want.failure_genes.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.failure_genes[i]),
              std::bit_cast<std::uint64_t>(want.failure_genes[i]));
  }
  EXPECT_EQ(got.failure_message, want.failure_message);
}

TEST(IntegratorProblem, Metadata) {
  const auto& p = chosen_problem();
  EXPECT_EQ(p.num_variables(), 15u);  // the paper's 15 design parameters
  EXPECT_EQ(p.num_objectives(), 2u);
  EXPECT_EQ(p.num_constraints(), 9u);
  EXPECT_EQ(p.bounds().size(), 15u);
  EXPECT_NE(p.name().find("paper-chosen"), std::string::npos);
}

TEST(IntegratorProblem, BoundsAreOrderedAndPositive) {
  for (const auto& b : chosen_problem().bounds()) {
    EXPECT_LT(b.lower, b.upper);
    EXPECT_GT(b.lower, 0.0);
  }
}

TEST(IntegratorProblem, LoadBoundMatchesReportingAxis) {
  const auto bounds = chosen_problem().bounds();
  EXPECT_DOUBLE_EQ(bounds[kCload].upper, kLoadMax);
}

TEST(IntegratorProblem, DecodeEncodeRoundTrip) {
  const auto design = testing_support::reference_design();
  const auto genes = IntegratorProblem::encode(design);
  ASSERT_EQ(genes.size(), static_cast<std::size_t>(kNumGenes));
  const auto decoded = IntegratorProblem::decode(genes);
  EXPECT_EQ(decoded.opamp.m1.w, design.opamp.m1.w);
  EXPECT_EQ(decoded.opamp.m6.l, design.opamp.m6.l);
  EXPECT_EQ(decoded.opamp.ibias, design.opamp.ibias);
  EXPECT_EQ(decoded.cs, design.cs);
  EXPECT_EQ(decoded.cload, design.cload);
}

TEST(IntegratorProblem, DecodeValidatesGeneCount) {
  EXPECT_THROW(IntegratorProblem::decode(std::vector<double>(3)), PreconditionError);
}

TEST(IntegratorProblem, ReferenceDesignIsFeasible) {
  const auto genes = IntegratorProblem::encode(testing_support::reference_design());
  const auto eval = chosen_problem().evaluated(genes);
  EXPECT_TRUE(eval.feasible()) << "violations sum " << eval.total_violation();
}

TEST(IntegratorProblem, ObjectivesArePowerAndTransformedLoad) {
  const auto design = testing_support::reference_design();
  const auto genes = IntegratorProblem::encode(design);
  const auto eval = chosen_problem().evaluated(genes);
  const auto perf = chosen_problem().typical_performance(design);
  EXPECT_NEAR(eval.objectives[0], perf.power, 1e-12);
  EXPECT_NEAR(eval.objectives[1], kLoadMax - design.cload, 1e-18);
}

TEST(IntegratorProblem, EvaluationIsDeterministic) {
  const auto genes = IntegratorProblem::encode(testing_support::reference_design());
  const auto a = chosen_problem().evaluated(genes);
  const auto b = chosen_problem().evaluated(genes);
  EXPECT_EQ(a.objectives, b.objectives);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(IntegratorProblem, StarvedDesignViolatesConstraints) {
  auto design = testing_support::reference_design();
  design.opamp.ibias = 1e-6;
  design.opamp.m5 = {1e-6, 2e-6};  // starved tail: DR/ST collapse
  const auto eval = chosen_problem().evaluated(IntegratorProblem::encode(design));
  EXPECT_FALSE(eval.feasible());
}

TEST(IntegratorProblem, WeakInversionDesignViolatesVovConstraint) {
  auto design = testing_support::reference_design();
  design.opamp.m1 = {200e-6, 2e-6};  // huge input pair at the same current
  const auto eval = chosen_problem().evaluated(IntegratorProblem::encode(design));
  // Constraint index 7 is the strong-inversion (vov) margin.
  EXPECT_GT(eval.violations[7], 0.0);
}

TEST(IntegratorProblem, ViolationsAreCapped) {
  std::vector<double> genes(kNumGenes);
  const auto bounds = chosen_problem().bounds();
  for (std::size_t i = 0; i < genes.size(); ++i) genes[i] = bounds[i].lower;
  const auto eval = chosen_problem().evaluated(genes);
  for (double v : eval.violations) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
}

TEST(IntegratorProblem, RobustnessSkippedForBrokenDesignsButScoredForGood) {
  const auto design = testing_support::reference_design();
  EXPECT_GT(chosen_problem().design_robustness(design), 0.8);
}

TEST(IntegratorProblem, EvaluateMatchesReferenceLoopOnEverySpec) {
  const auto suite = spec_suite();
  ReferenceCoverage coverage;
  for (std::size_t s = 0; s < suite.size(); ++s) {
    const IntegratorProblem problem(suite[s]);
    const auto corpus = oracle_corpus(problem, 100 + s);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      moga::Evaluation want;
      reference_evaluate(problem, corpus[i], want, &coverage);
      moga::Evaluation got;
      problem.evaluate(corpus[i], got);
      expect_same_bits(got, want, suite[s].name + ", genome " + std::to_string(i));
    }
  }
  // The corpus reaches both branches of the Monte Carlo and NaN figures.
  EXPECT_GT(coverage.monte_carlo, suite.size());
  EXPECT_GT(coverage.skipped, suite.size());
  EXPECT_GT(coverage.nan_figures, 0u);
}

TEST(IntegratorProblem, EvaluateLanesMatchesReferenceLoopAtEveryGroupSize) {
  // Group sizes cover one design (5 items on W = 8), ragged groups, the
  // engine's 16 (80 items, five W = 16 calls) and one past it.
  const auto suite = spec_suite();
  for (std::size_t s = 0; s < suite.size(); ++s) {
    const IntegratorProblem problem(suite[s]);
    const auto corpus = oracle_corpus(problem, 100 + s);
    std::vector<moga::Evaluation> want(corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      reference_evaluate(problem, corpus[i], want[i]);
    }
    for (const std::size_t group : {1u, 3u, 4u, 5u, 15u, 16u, 17u}) {
      const auto got = in_lane_groups(problem, corpus, group);
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        expect_same_bits(got[i], want[i],
                         suite[s].name + ", group " + std::to_string(group) + ", genome " +
                             std::to_string(i));
      }
    }
  }
}

TEST(IntegratorProblem, HostileGenomeThrowsLikeReferenceLoop) {
  // The scalar model's own PreconditionError (expression, file, line)
  // reaches fault reports and checkpoint bytes, so it must not change.
  const auto& problem = chosen_problem();
  for (const auto& genes : hostile_genomes()) {
    moga::Evaluation out;
    const std::string want = thrown_by([&] { reference_evaluate(problem, genes, out); });
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(thrown_by([&] { problem.evaluate(genes, out); }), want);
    // The lane path throws too, before writing anything.
    const std::span<const double> group[] = {genes};
    moga::Evaluation* const outs[] = {&out};
    EXPECT_THROW(problem.evaluate_lanes(group, outs), PreconditionError);
  }

  // Probe corpus: the reference design with one gene at a time set to an
  // extreme value, on every spec. Where the scalar model throws, evaluate()
  // throws the same exception; where it does not, the bits agree.
  const double inf = std::numeric_limits<double>::infinity();
  const double probes[] = {inf,    -inf,    1e300, -1e300, 1e-300,
                           -1e-300, 0.0,    -0.0,  std::numeric_limits<double>::quiet_NaN()};
  const auto base = IntegratorProblem::encode(testing_support::reference_design());
  std::size_t throwing = 0;
  for (const auto& spec : spec_suite()) {
    const IntegratorProblem probed(spec);
    for (std::size_t gene = 0; gene < base.size(); ++gene) {
      for (const double value : probes) {
        auto genes = base;
        genes[gene] = value;
        const std::string label = spec.name + ", gene " + std::to_string(gene) + " = " +
                                  std::to_string(value);
        moga::Evaluation want;
        moga::Evaluation got;
        const std::string thrown = thrown_by([&] { reference_evaluate(probed, genes, want); });
        EXPECT_EQ(thrown_by([&] { probed.evaluate(genes, got); }), thrown) << label;
        const std::span<const double> group[] = {genes};
        moga::Evaluation lane;
        moga::Evaluation* const outs[] = {&lane};
        if (!thrown.empty()) {
          ++throwing;
          EXPECT_THROW(probed.evaluate_lanes(group, outs), PreconditionError) << label;
          continue;
        }
        expect_same_bits(got, want, label);
        probed.evaluate_lanes(group, outs);
        expect_same_bits(lane, want, label + " (lanes)");
      }
    }
  }
  EXPECT_GT(throwing, 0u);
}

TEST(IntegratorProblem, GuardedHostileGenomesReportLikeReferenceLoop) {
  auto problem = std::make_shared<const IntegratorProblem>(chosen_spec());
  const robust::GuardedProblem reference(std::make_shared<const ReferenceProblem>(*problem),
                                         robust::GuardPolicy{});
  const robust::GuardedProblem scalar(problem, robust::GuardPolicy{});
  const robust::GuardedProblem lanes(problem, robust::GuardPolicy{});

  // Hostile genomes among evaluable ones, so the lane path's groups throw
  // and fall back to the guarded scalar route.
  auto genomes = hostile_genomes();
  const auto corpus = oracle_corpus(*problem, 7);
  genomes.insert(genomes.end(), corpus.begin(), corpus.end());
  std::vector<moga::Evaluation> want(genomes.size());
  std::vector<moga::Evaluation> got(genomes.size());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    reference.evaluate(genomes[i], want[i]);
    scalar.evaluate(genomes[i], got[i]);
  }
  const auto got_lanes = in_lane_groups(lanes, genomes, lanes.preferred_lane_width());
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    expect_same_bits(got[i], want[i], "guarded genome " + std::to_string(i));
    expect_same_bits(got_lanes[i], want[i], "guarded lane genome " + std::to_string(i));
  }
  ASSERT_GT(reference.report().exceptions, 0u);
  ASSERT_FALSE(reference.report().failure_message.empty());
  expect_same_report(scalar.report(), reference.report());
  expect_same_report(lanes.report(), reference.report());
}

TEST(SpecSuite, HasTwentyEntries) {
  EXPECT_EQ(spec_suite().size(), 20u);
}

TEST(SpecSuite, ChosenSpecIsEntry13) {
  const auto suite = spec_suite();
  EXPECT_EQ(suite[12].name, "paper-chosen");
  EXPECT_EQ(suite[12].dr_min_db, 96.0);
}

TEST(SpecSuite, DifficultyIsMonotone) {
  const auto suite = spec_suite();
  for (std::size_t i = 1; i < suite.size(); ++i) {
    if (i == 12 || i == 13) continue;  // the pinned paper spec breaks strictness locally
    EXPECT_GE(suite[i].dr_min_db, suite[i - 1].dr_min_db);
    EXPECT_GE(suite[i].or_min, suite[i - 1].or_min);
    EXPECT_LE(suite[i].st_max, suite[i - 1].st_max);
    EXPECT_LE(suite[i].se_max, suite[i - 1].se_max);
    EXPECT_GE(suite[i].robustness_min, suite[i - 1].robustness_min);
  }
}

TEST(SpecSuite, NamesAreUnique) {
  const auto suite = spec_suite();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (std::size_t j = i + 1; j < suite.size(); ++j) {
      EXPECT_NE(suite[i].name, suite[j].name);
    }
  }
}

TEST(SpecSuite, EasiestSpecAdmitsReferenceDesign) {
  const IntegratorProblem easy(spec_suite().front());
  const auto eval =
      easy.evaluated(IntegratorProblem::encode(testing_support::reference_design()));
  EXPECT_TRUE(eval.feasible());
}

}  // namespace
}  // namespace anadex::problems
