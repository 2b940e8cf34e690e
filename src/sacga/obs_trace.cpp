#include "sacga/obs_trace.hpp"

#include <vector>

#include "moga/obs_trace.hpp"

namespace anadex::sacga {

void trace_sacga_generation(obs::EventSink* sink, const PartitionedEvolver& evolver,
                            std::size_t generation, std::size_t phase,
                            const AnnealingSchedule* schedule,
                            std::size_t schedule_offset) {
  if (sink == nullptr || !sink->enabled(obs::TraceLevel::Gen)) return;

  const auto stats = evolver.partition_stats();

  std::vector<double> prob;
  obs::Field fields[8];
  std::size_t n = 0;
  fields[n++] = obs::u64("gen", generation);
  fields[n++] = obs::u64("phase", phase);
  fields[n++] = obs::u64("partitions", evolver.partitioner().count());
  fields[n++] = obs::u64_array("occupancy", stats.occupancy);
  fields[n++] = obs::u64_array("occupancy_feasible", stats.feasible);
  fields[n++] = obs::u64("discarded", stats.discarded);
  if (schedule != nullptr) {
    fields[n++] = obs::f64("t_a", schedule->temperature(schedule_offset));
    prob.reserve(schedule->params().n);
    for (std::size_t i = 1; i <= schedule->params().n; ++i) {
      prob.push_back(schedule->participation_probability(i, schedule_offset));
    }
    fields[n++] = obs::f64_array("prob", prob);
  }
  sink->record(obs::Event{"sacga", obs::TraceLevel::Gen, false,
                          std::span<const obs::Field>(fields, n)});
}

void report_generation(const PartitionedEvolver& evolver, std::size_t phase,
                       const AnnealingSchedule* schedule, std::size_t schedule_offset,
                       const moga::GenerationCallback& on_generation,
                       const engine::ObsConfig& obs) {
  const std::size_t gen = evolver.generation() - 1;
  if (on_generation) on_generation(gen, evolver.population());
  moga::trace_generation(obs.sink, gen, evolver.evaluations(), evolver.population(),
                         obs.trace_hypervolume);
  trace_sacga_generation(obs.sink, evolver, gen, phase, schedule, schedule_offset);
}

void trace_phase_marker(obs::EventSink* sink, std::string_view name, std::size_t phase,
                        std::size_t partitions, std::size_t generation,
                        std::size_t front_size) {
  if (sink == nullptr || !sink->enabled(obs::TraceLevel::Gen)) return;
  const obs::Field fields[] = {obs::u64("phase", phase), obs::u64("partitions", partitions),
                               obs::u64("gen", generation),
                               obs::u64("front_size", front_size)};
  sink->record(obs::Event{name, obs::TraceLevel::Gen, false, fields});
}

}  // namespace anadex::sacga
