#include "sacga/mesacga.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "sacga/obs_trace.hpp"

namespace anadex::sacga {

namespace {

const MesacgaParams& checked(const MesacgaParams& params) {
  ANADEX_REQUIRE(!params.partition_schedule.empty(),
                 "MESACGA needs at least one phase in the partition schedule");
  for (std::size_t i = 0; i < params.partition_schedule.size(); ++i) {
    ANADEX_REQUIRE(params.partition_schedule[i] >= 1, "phase partition count must be >= 1");
    if (i > 0) {
      ANADEX_REQUIRE(params.partition_schedule[i] <= params.partition_schedule[i - 1],
                     "MESACGA partition schedule must be non-increasing");
    }
  }
  ANADEX_REQUIRE(params.span >= 1, "MESACGA needs a positive per-phase span");
  if (params.total_budget > 0) {
    ANADEX_REQUIRE(params.total_budget > params.phase1_max_generations,
                   "total budget must exceed the phase-I cap");
  }
  return params;
}

}  // namespace

Mesacga::Mesacga(const moga::Problem& problem, const MesacgaParams& params)
    : params_(checked(params)),
      evolver_(problem, EvolverParams::of(params),
               partitioner(params.resume != nullptr ? params.resume->evolver.partitions
                                                    : params.partition_schedule.front()),
               params.seed, params.resume != nullptr ? &params.resume->evolver : nullptr) {
  if (params.resume != nullptr) {
    phases_ = params.resume->phases;
    if (params.resume->phase1_done) begin_phase2(params.resume->phase1_generations);
  }
}

Partitioner Mesacga::partitioner(std::size_t partitions) const {
  return Partitioner(params_.axis_objective, params_.axis_lo, params_.axis_hi, partitions);
}

void Mesacga::begin_phase2(std::size_t gen_t) {
  gen_t_ = gen_t;
  const std::size_t phase_count = params_.partition_schedule.size();
  span_ = params_.total_budget > 0
              ? std::max<std::size_t>((params_.total_budget - gen_t) / phase_count, 1)
              : params_.span;
  // Continuous annealing cools one schedule over the whole multi-phase run;
  // per-phase annealing restarts a span-long schedule in each phase.
  schedule_.emplace(AnnealingSchedule::shaped(
      params_.shape, params_.alpha, params_.t_init, params_.n_desired,
      params_.continuous_annealing ? span_ * phase_count : span_));
  if constexpr (kCheckInvariants) schedule_->require_monotone_cooling();
}

void Mesacga::step(const moga::GenerationCallback& on_generation) {
  if (!schedule_) {
    if (phase1_step(evolver_, params_.phase1_max_generations, on_generation, params_)) return;
    begin_phase2(evolver_.generation());
  }
  // The phase and the offset within it follow from the generation counter.
  const std::size_t generation = evolver_.generation();
  const std::size_t phase = (generation - gen_t_) / span_;
  const std::size_t offset = (generation - gen_t_) % span_;
  const std::size_t partitions = params_.partition_schedule[phase];
  if (offset == 0) {
    // Expand partitions: fewer, wider bins over the same axis range. A run
    // resumed mid-phase has the phase's partitioner restored already, and
    // re-partitioning it would desynchronize the RNG stream.
    if (phase > 0) evolver_.set_partitioner(partitioner(partitions));
    trace_phase_marker(params_.sink, "phase_start", phase + 1, partitions, generation,
                       /*front_size=*/0);
  }
  const std::size_t schedule_offset =
      params_.continuous_annealing ? phase * span_ + offset : offset;
  const AnnealingSchedule& schedule = *schedule_;
  evolver_.step([&schedule, schedule_offset](std::size_t i) {
    return schedule.participation_probability(i, schedule_offset);
  });
  report_generation(evolver_, phase + 1, &schedule, schedule_offset, on_generation, params_);

  if (offset + 1 == span_) {
    PhaseSnapshot snap;
    snap.phase = phase + 1;
    snap.partitions = partitions;
    snap.generation = generation + 1;
    snap.front = evolver_.global_front();
    trace_phase_marker(params_.sink, "phase_end", phase + 1, partitions, generation + 1,
                       snap.front.size());
    phases_.push_back(std::move(snap));
  }
}

MesacgaState Mesacga::state() const {
  return MesacgaState{evolver_.snapshot(), schedule_.has_value(), gen_t_, phases_};
}

MesacgaResult Mesacga::result() const& {
  auto result = evolver_.result<MesacgaResult>();
  result.phases = phases_;
  result.phase1_generations = schedule_.has_value() ? gen_t_ : evolver_.generation();
  return result;
}

MesacgaResult Mesacga::result() && {
  std::vector<PhaseSnapshot> phases = std::move(phases_);
  MesacgaResult result = std::as_const(*this).result();
  result.phases = std::move(phases);
  return result;
}

MesacgaResult run_mesacga(const moga::Problem& problem, const MesacgaParams& params,
                          const moga::GenerationCallback& on_generation) {
  Mesacga evolver(problem, params);
  return moga::run_to_end(evolver, on_generation);
}

}  // namespace anadex::sacga
