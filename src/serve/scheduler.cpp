#include "serve/scheduler.hpp"

#include <array>
#include <utility>

#include "common/check.hpp"

namespace anadex::serve {

namespace {

bool terminal(expt::JobState state) {
  return state == expt::JobState::Done || state == expt::JobState::Failed ||
         state == expt::JobState::Cancelled;
}

}  // namespace

JobScheduler::JobScheduler(SchedulerConfig config) : config_(config) {
  ANADEX_REQUIRE(config_.slice_generations >= 1,
                 "scheduler: slice_generations must be >= 1");
  if (config_.hub != nullptr) {
    ANADEX_REQUIRE(config_.hub->is_hub(),
                   "scheduler: the shared engine must be a hub "
                   "(problem-less EvalEngine)");
  }
}

std::size_t JobScheduler::admit(std::string id, expt::RunSettings settings) {
  if (config_.hub != nullptr) {
    // Context 0 is reserved for private engines; admission ordinals start
    // at 1 so two jobs can never share cache entries.
    settings.engine.engine = config_.hub;
    settings.engine.context = slots_.size() + 1;
    // The shared pool decides parallelism; the run's own threads, cache
    // and lane mode only matter when it builds its own engine.
  }
  // Throws PreconditionError on invalid settings; nothing is enqueued.
  expt::Job job = expt::Job::from_settings(std::move(settings));
  const std::size_t slot = slots_.size();
  slots_.push_back(Slot{std::move(id), std::move(job)});
  ++stats_.admitted;
  if (config_.sink != nullptr && config_.sink->enabled(obs::TraceLevel::Gen)) {
    const std::array<obs::Field, 3> fields = {
        obs::str("job", slots_[slot].id),
        obs::u64("slot", slot),
        obs::u64("context", slots_[slot].job.settings().engine.context),
    };
    config_.sink->record(obs::Event{"job_admitted", obs::TraceLevel::Gen,
                                    /*timed=*/false, fields});
  }
  return slot;
}

void JobScheduler::run_one(std::size_t slot) {
  expt::Job& job = slots_[slot].job;
  const expt::JobState state = job.run_slice(config_.slice_generations);
  ++stats_.slices;
  switch (state) {
    case expt::JobState::Snapshotted:
      ++stats_.preemptions;
      break;
    case expt::JobState::Done:
      ++stats_.done;
      break;
    case expt::JobState::Failed:
      ++stats_.failed;
      break;
    case expt::JobState::Cancelled:
      ++stats_.cancelled;
      break;
    case expt::JobState::Pending:
    case expt::JobState::Running:
      ANADEX_ASSERT(false, "scheduler: run_slice returned a non-final state");
      break;
  }
  if (config_.sink != nullptr && config_.sink->enabled(obs::TraceLevel::Gen)) {
    const std::string state_name = expt::job_state_name(state);
    const std::array<obs::Field, 4> fields = {
        obs::str("job", slots_[slot].id),
        obs::str("state", state_name),
        obs::u64("slices", job.slices_run()),
        obs::u64("generations", job.generations_done()),
    };
    config_.sink->record(obs::Event{"job_slice", obs::TraceLevel::Gen,
                                    /*timed=*/false, fields});
  }
}

bool JobScheduler::step() {
  // One full lap from the cursor; the first runnable job gets a slice.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::size_t slot = (cursor_ + i) % slots_.size();
    if (!slots_[slot].job.runnable()) continue;
    run_one(slot);
    cursor_ = (slot + 1) % slots_.size();
    return true;
  }
  return false;
}

bool JobScheduler::run_all() {
  for (;;) {
    if (config_.stop != nullptr && config_.stop->requested()) {
      shutdown();
      break;
    }
    if (!step()) break;
  }
  return all_terminal();
}

void JobScheduler::shutdown() {
  for (Slot& slot : slots_) slot.job.snapshot();
}

bool JobScheduler::all_terminal() const {
  for (const Slot& slot : slots_) {
    if (!terminal(slot.job.state())) return false;
  }
  return true;
}

}  // namespace anadex::serve
