// The paper's optimization problem: 15-parameter sizing of the CDS
// switched-capacitor integrator.
//
// Objectives (both minimized internally):
//   f0 = power dissipation at the typical corner, watts
//   f1 = C_MAX - C_load, farads  (i.e. the load capacitance is MAXIMIZED;
//        the paper wants the Pareto front spread over C_load in [0, 5] pF)
//
// Constraints (violations, each normalized to its spec limit and evaluated
// worst-case across the five process corners): dynamic range, output range,
// settling time, settling error, area, device operating regions, mirror
// matching, and Monte-Carlo robustness (yield) at the typical corner.
//
// Both evaluate() (one design) and evaluate_lanes() (many) run every
// (design, corner) pair as one lane of the SoA kernels and the Monte Carlo
// as one lane group per design; scint::evaluate() stays the oracle.
#pragma once

#include <array>
#include <memory>

#include "engine/simd/lane_evaluator.hpp"
#include "moga/problem.hpp"
#include "scint/integrator.hpp"
#include "scint/spec.hpp"
#include "yield/robustness.hpp"

namespace anadex::problems {

/// Gene layout of the 15-variable design vector.
enum GeneIndex : std::size_t {
  kW1, kL1, kW3, kL3, kW5, kL5, kW6, kL6, kW7, kL7,
  kIbias, kCc, kCs, kCoc, kCload,
  kNumGenes,
};

/// Upper end of the explored load range (and of the reported C axis), F.
inline constexpr double kLoadMax = 5e-12;

class IntegratorProblem final : public moga::Problem, public engine::LaneEvaluator {
 public:
  /// Builds the problem for one specification. The five corner processes
  /// and the Monte-Carlo perturbation set are precomputed; evaluation is
  /// deterministic.
  explicit IntegratorProblem(scint::Spec spec,
                             scint::IntegratorContext context = {},
                             yield::MonteCarloParams mc = {});

  std::string name() const override;
  std::size_t num_variables() const override { return kNumGenes; }
  std::size_t num_objectives() const override { return 2; }
  std::size_t num_constraints() const override { return 9; }
  std::vector<moga::VariableBound> bounds() const override;

  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override;

  // LaneEvaluator: the same lanes across genomes. Results are bit-identical
  // to evaluate() per genome (golden suite tests/scint/batch_equivalence_test).
  bool lanes_supported() const override { return true; }
  std::size_t preferred_lane_width() const override;
  void evaluate_lanes(std::span<const std::span<const double>> genes,
                      std::span<moga::Evaluation* const> outs) const override;

  /// Decodes a gene vector into the structured design.
  static scint::IntegratorDesign decode(std::span<const double> genes);

  /// Encodes a structured design back into genes (inverse of decode).
  static std::vector<double> encode(const scint::IntegratorDesign& design);

  const scint::Spec& spec() const { return spec_; }
  const scint::IntegratorContext& context() const { return context_; }

  /// Typical-corner performance of a design (for reporting / examples).
  scint::IntegratorPerformance typical_performance(
      const scint::IntegratorDesign& design) const;

  /// Monte-Carlo robustness of a design against this problem's spec.
  double design_robustness(const scint::IntegratorDesign& design) const;

 private:
  /// Evaluates designs[i] into *outs[i]: the five corners of every design
  /// as kernel lanes, then the Monte Carlo and the violations per design.
  /// Every design must be in scint::in_lane_domain.
  void evaluate_designs(std::span<const scint::IntegratorDesign> designs,
                        std::span<moga::Evaluation* const> outs) const;

  scint::Spec spec_;
  scint::IntegratorContext context_;
  std::array<device::Process, 5> corners_;
  std::vector<yield::ProcessPerturbation> perturbations_;
};

/// Convenience factory.
std::unique_ptr<IntegratorProblem> make_integrator_problem(const scint::Spec& spec);

}  // namespace anadex::problems
