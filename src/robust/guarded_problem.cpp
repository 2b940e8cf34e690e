#include "robust/guarded_problem.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace anadex::robust {

GuardedProblem::GuardedProblem(std::shared_ptr<const moga::Problem> inner, GuardPolicy policy)
    : inner_(std::move(inner)), policy_(policy) {
  ANADEX_REQUIRE(inner_ != nullptr, "GuardedProblem needs an inner problem");
  ANADEX_REQUIRE(policy_.perturbation >= 0.0, "guard perturbation must be >= 0");
  ANADEX_REQUIRE(
      std::isfinite(policy_.penalty_objective) && std::isfinite(policy_.penalty_violation),
      "guard penalty values must be finite");
  bounds_ = inner_->bounds();
  ANADEX_REQUIRE(bounds_.size() == inner_->num_variables(),
                 "inner problem bounds()/num_variables() disagree");
  inner_lanes_ = dynamic_cast<const engine::LaneEvaluator*>(inner_.get());
}

std::string GuardedProblem::name() const { return inner_->name() + "+guard"; }
std::size_t GuardedProblem::num_variables() const { return inner_->num_variables(); }
std::size_t GuardedProblem::num_objectives() const { return inner_->num_objectives(); }
std::size_t GuardedProblem::num_constraints() const { return inner_->num_constraints(); }
std::vector<moga::VariableBound> GuardedProblem::bounds() const { return bounds_; }

FaultReport GuardedProblem::report() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return report_;
}

void GuardedProblem::set_report(FaultReport report) {
  std::lock_guard<std::mutex> lock(report_mu_);
  report_ = std::move(report);
}

bool GuardedProblem::try_evaluate(std::span<const double> genes, moga::Evaluation& out,
                                  FaultReport& tally) const {
  out.objectives.clear();
  out.violations.clear();
  try {
    inner_->evaluate(genes, out);
  } catch (const OperationCancelled& e) {
    tally.count(FaultKind::Timeout);
    tally.note_failure(genes, std::string("timeout: ") + e.what());
    return false;
  } catch (const std::exception& e) {
    tally.count(FaultKind::EvaluatorException);
    tally.note_failure(genes, std::string("exception: ") + e.what());
    return false;
  } catch (...) {
    tally.count(FaultKind::EvaluatorException);
    tally.note_failure(genes, "exception: (non-standard exception)");
    return false;
  }

  if (const auto fault = result_fault(out)) {
    tally.count(fault->kind);
    tally.note_failure(genes, fault->message);
    return false;
  }
  return true;
}

std::optional<GuardedProblem::ResultFault> GuardedProblem::result_fault(
    const moga::Evaluation& out) const {
  if (out.objectives.size() != inner_->num_objectives() ||
      out.violations.size() != inner_->num_constraints()) {
    return ResultFault{FaultKind::WrongArity,
                       "wrong arity: got " + std::to_string(out.objectives.size()) +
                           " objectives / " + std::to_string(out.violations.size()) +
                           " violations"};
  }
  const auto finite = [](double v) { return std::isfinite(v); };
  if (!std::all_of(out.objectives.begin(), out.objectives.end(), finite)) {
    return ResultFault{FaultKind::NonFiniteValue, "non-finite objective"};
  }
  if (!std::all_of(out.violations.begin(), out.violations.end(), finite)) {
    return ResultFault{FaultKind::NonFiniteValue, "non-finite violation"};
  }
  return std::nullopt;
}

void GuardedProblem::evaluate(std::span<const double> genes, moga::Evaluation& out) const {
  // Per-call fault tally, committed to the shared report in one critical
  // section at the end. Clean evaluations — the overwhelmingly common case
  // — return without ever touching the lock, so parallel batch evaluation
  // does not serialize on the guard.
  FaultReport tally;
  const bool ok = [&] {
    // Watchdog fail-fast: once the deadline token is raised, the inner
    // evaluator is presumed stuck — penalize immediately instead of feeding
    // it more work, so the rest of the batch drains in microseconds and the
    // generation barrier (where the run can snapshot and stop) is reached.
    if (cancel_ != nullptr && cancel_->requested()) {
      tally.count(FaultKind::Timeout);
      tally.note_failure(genes, "timeout: evaluation cancelled by watchdog deadline");
      ++tally.penalized;
      out.objectives.assign(inner_->num_objectives(), policy_.penalty_objective);
      out.violations.assign(inner_->num_constraints(), policy_.penalty_violation);
      return false;
    }

    if (try_evaluate(genes, out, tally)) return true;

    // Retry at slightly perturbed genomes. The perturbation stream is a
    // pure function of (genes, attempt), so repeated evaluation of the same
    // genome — including after a checkpoint/resume — replays identically.
    std::vector<double> nudged(genes.begin(), genes.end());
    for (std::size_t attempt = 1; attempt <= policy_.max_retries; ++attempt) {
      // A raised watchdog token also cuts the retry ladder short: retrying
      // against a stuck evaluator only prolongs the stall.
      if (cancel_ != nullptr && cancel_->requested()) break;
      ++tally.retries;
      Rng rng(hash_genes(genes, policy_.seed + attempt));
      for (std::size_t i = 0; i < nudged.size(); ++i) {
        const auto& b = bounds_[i];
        const double range = b.upper - b.lower;
        const double delta = policy_.perturbation * range * (2.0 * rng.uniform() - 1.0);
        nudged[i] = std::clamp(genes[i] + delta, b.lower, b.upper);
      }
      if (try_evaluate(nudged, out, tally)) {
        ++tally.recovered;
        return true;
      }
    }

    // Give up: substitute a finite penalty evaluation that is marked
    // infeasible, so constraint-domination ranks it below every genuinely
    // evaluated design and selection drives it out of the population.
    ++tally.penalized;
    out.objectives.assign(inner_->num_objectives(), policy_.penalty_objective);
    // Constrained problems additionally get maximal violations, so Deb's
    // constraint-domination ranks the design below every genuinely evaluated
    // one. Unconstrained problems must keep violations empty (arity
    // contract); there the penalty objectives alone carry the signal.
    out.violations.assign(inner_->num_constraints(), policy_.penalty_violation);
    return false;
  }();
  (void)ok;

  if (tally.total_faults() == 0 && tally.retries == 0) return;
  std::lock_guard<std::mutex> lock(report_mu_);
  report_.merge(tally);
}

void GuardedProblem::evaluate_lanes(std::span<const std::span<const double>> genes,
                                    std::span<moga::Evaluation* const> outs) const {
  ANADEX_REQUIRE(genes.size() == outs.size(),
                 "evaluate_lanes needs parallel gene/result spans");
  // Watchdog fail-fast or no inner lane path: the guarded scalar route
  // handles every lane (penalties, retries, fault tally — all of it).
  const bool cancelled = cancel_ != nullptr && cancel_->requested();
  if (inner_lanes_ == nullptr || cancelled) {
    for (std::size_t i = 0; i < genes.size(); ++i) evaluate(genes[i], *outs[i]);
    return;
  }

  // One SIMD pass over the group. The LaneEvaluator contract says a
  // throwing group wrote no outputs, but the guard does not rely on it:
  // after a throw EVERY lane is re-run scalar, overwriting whatever state
  // the outputs were left in.
  bool lanes_ok = true;
  try {
    inner_lanes_->evaluate_lanes(genes, outs);
  } catch (...) {
    lanes_ok = false;
  }

  // Per-lane validation with the scalar guard's predicate. Clean lanes are
  // finished — no lock, no tally, exactly like a clean scalar evaluate().
  // Faulty (or throw-invalidated) lanes re-run through evaluate(): the
  // inner problem is deterministic, so the scalar pass reproduces the same
  // fault and the retry/penalty/report sequence matches scalar mode
  // bit-for-bit.
  for (std::size_t i = 0; i < genes.size(); ++i) {
    if (!lanes_ok || result_fault(*outs[i])) evaluate(genes[i], *outs[i]);
  }
}

}  // namespace anadex::robust
