// GuardedProblem: a fault-tolerant decorator around any moga::Problem.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "engine/simd/lane_evaluator.hpp"
#include "moga/problem.hpp"
#include "robust/fault.hpp"

namespace anadex::robust {

/// How GuardedProblem reacts to a faulted evaluation.
///
/// Recovery is attempted first: up to `max_retries` re-evaluations at a
/// slightly perturbed genome (some simulator failures are knife-edge —
/// a nudge of the operating point converges where the original did not).
/// If every attempt faults, the evaluation is substituted with
/// `penalty_objective` for every objective and `penalty_violation` for
/// every constraint slot, which (for constrained problems) marks the design
/// infeasible so constraint-domination sinks it without crashing the
/// evolver; unconstrained problems rely on the penalty objectives alone.
struct GuardPolicy {
  std::size_t max_retries = 2;     ///< perturbed re-evaluations after a fault
  double perturbation = 1e-6;      ///< retry nudge, relative to each bound range
  double penalty_objective = 1e9;  ///< objective value substituted on give-up
  double penalty_violation = 1e9;  ///< violation value substituted on give-up
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;  ///< mixes into retry perturbation
};

/// Wraps an inner Problem, converting exceptions, non-finite values and
/// wrong-arity results into retries and then penalty evaluations while
/// accumulating a FaultReport. Retry perturbations are derived purely from
/// the genome (hash_genes), so the wrapper remains deterministic — the same
/// genes always yield the same evaluation — preserving the Problem contract
/// and checkpoint/resume bit-reproducibility.
///
/// Thread-safety: evaluate() may be called concurrently (the
/// engine::EvalEngine worker pool does). Each call accumulates its faults
/// in a local tally and commits it to the shared report in one short
/// critical section; clean evaluations never take the lock. Counter totals
/// are order-independent sums and the sample failure is canonicalized by
/// genome hash (FaultReport::merge), so the report — and therefore every
/// checkpoint file — is bit-identical for any thread count.
class GuardedProblem final : public moga::Problem, public engine::LaneEvaluator {
 public:
  GuardedProblem(std::shared_ptr<const moga::Problem> inner, GuardPolicy policy);

  std::string name() const override;
  std::size_t num_variables() const override;
  std::size_t num_objectives() const override;
  std::size_t num_constraints() const override;
  std::vector<moga::VariableBound> bounds() const override;
  void evaluate(std::span<const double> genes, moga::Evaluation& out) const override;

  // LaneEvaluator pass-through: lane groups run on the inner problem's SIMD
  // path, then every lane is validated with the same predicate as the
  // scalar guard; faulty lanes are re-run through the scalar evaluate() so
  // the retry ladder, penalties and the FaultReport are byte-identical to
  // what scalar mode would have produced (the inner evaluator is
  // deterministic, so a faulting genome faults identically both ways).
  bool lanes_supported() const override {
    return inner_lanes_ != nullptr && inner_lanes_->lanes_supported();
  }
  std::size_t preferred_lane_width() const override {
    return inner_lanes_ != nullptr ? inner_lanes_->preferred_lane_width() : 1;
  }
  void evaluate_lanes(std::span<const std::span<const double>> genes,
                      std::span<moga::Evaluation* const> outs) const override;

  const moga::Problem& inner() const { return *inner_; }
  const GuardPolicy& policy() const { return policy_; }

  /// Faults observed so far (a snapshot taken under the report lock).
  FaultReport report() const;

  /// Replaces the accumulated report (used when resuming from a checkpoint
  /// so fault totals stay cumulative across the whole logical run).
  void set_report(FaultReport report);

  /// Attaches the evaluation watchdog's cancellation token (non-owning;
  /// nullptr detaches). Once the token is raised, evaluations fail fast
  /// with FaultKind::Timeout penalties instead of calling the (presumed
  /// stuck) inner evaluator, and OperationCancelled thrown by cooperative
  /// inner problems is classified as a timeout rather than a generic
  /// exception. Set before the run starts; not thread-safe against
  /// concurrent evaluate() calls.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }

 private:
  /// One evaluation attempt; returns true on a clean result, false after
  /// recording the fault in `tally`.
  bool try_evaluate(std::span<const double> genes, moga::Evaluation& out,
                    FaultReport& tally) const;

  /// What is wrong with a result, in FaultReport terms.
  struct ResultFault {
    FaultKind kind;
    std::string message;
  };
  /// The one validity rule, for scalar results and lane outputs alike:
  /// right arity, every objective and violation finite. Empty when clean.
  std::optional<ResultFault> result_fault(const moga::Evaluation& out) const;

  std::shared_ptr<const moga::Problem> inner_;
  /// Inner problem's lane interface when it has one (same object as
  /// inner_, non-owning), null otherwise.
  const engine::LaneEvaluator* inner_lanes_ = nullptr;
  GuardPolicy policy_;
  std::vector<moga::VariableBound> bounds_;
  const CancelToken* cancel_ = nullptr;  ///< watchdog token, non-owning
  mutable std::mutex report_mu_;
  mutable FaultReport report_;
};

}  // namespace anadex::robust
