#include "sacga/sacga.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "sacga/obs_trace.hpp"

namespace anadex::sacga {

namespace {

const SacgaParams& checked(const SacgaParams& params) {
  ANADEX_REQUIRE(params.span >= 1, "SACGA needs a positive phase-II span");
  if (params.span_is_total_budget) {
    ANADEX_REQUIRE(params.span > params.phase1_max_generations,
                   "total budget must exceed the phase-I cap");
  }
  return params;
}

}  // namespace

bool phase1_step(PartitionedEvolver& evolver, std::size_t max_generations,
                 const moga::GenerationCallback& on_generation, const engine::ObsConfig& obs) {
  if (evolver.generation() >= max_generations || evolver.all_active_partitions_feasible()) {
    evolver.discard_infeasible_partitions();
    return false;
  }
  evolver.step([](std::size_t) { return 0.0; });
  report_generation(evolver, /*phase=*/0, nullptr, 0, on_generation, obs);
  return true;
}

Sacga::Sacga(const moga::Problem& problem, const SacgaParams& params)
    : params_(checked(params)),
      evolver_(problem, EvolverParams::of(params),
               Partitioner(params.axis_objective, params.axis_lo, params.axis_hi,
                           params.partitions),
               params.seed, params.resume != nullptr ? &params.resume->evolver : nullptr) {
  if (params.resume != nullptr && params.resume->phase1_done) {
    begin_phase2(params.resume->phase1_generations);
  }
}

void Sacga::begin_phase2(std::size_t gen_t) {
  gen_t_ = gen_t;
  const std::size_t span = params_.span_is_total_budget
                               ? std::max<std::size_t>(params_.span - gen_t, 1)
                               : params_.span;
  schedule_.emplace(AnnealingSchedule::shaped(params_.shape, params_.alpha, params_.t_init,
                                              params_.n_desired, span));
  if constexpr (kCheckInvariants) schedule_->require_monotone_cooling();
}

void Sacga::step(const moga::GenerationCallback& on_generation) {
  if (!schedule_) {
    if (phase1_step(evolver_, params_.phase1_max_generations, on_generation, params_)) return;
    begin_phase2(evolver_.generation());
  }
  const AnnealingSchedule& schedule = *schedule_;
  const std::size_t offset = generation() - gen_t_;
  evolver_.step([&schedule, offset](std::size_t i) {
    return schedule.participation_probability(i, offset);
  });
  report_generation(evolver_, /*phase=*/1, &schedule, offset, on_generation, params_);
}

SacgaState Sacga::state() const {
  return SacgaState{evolver_.snapshot(), schedule_.has_value(), gen_t_};
}

SacgaResult Sacga::result() const {
  auto result = evolver_.result<SacgaResult>();
  result.phase1_generations = schedule_.has_value() ? gen_t_ : evolver_.generation();
  result.discarded_partitions = static_cast<std::size_t>(
      std::count(evolver_.discarded().begin(), evolver_.discarded().end(), true));
  return result;
}

SacgaResult run_sacga(const moga::Problem& problem, const SacgaParams& params,
                      const moga::GenerationCallback& on_generation) {
  Sacga evolver(problem, params);
  return moga::run_to_end(evolver, on_generation);
}

}  // namespace anadex::sacga
