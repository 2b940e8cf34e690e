// SACGA-family telemetry: the per-generation partition/annealing state the
// paper plots — partition occupancy and feasibility along the load axis,
// the annealing temperature T_A, the participation-probability curve
// prob(i) = 1 - exp(-alpha / (c_i * T_A)) (paper Fig. 4), and MESACGA's
// phase markers. All pure observation; see docs/observability.md.
#pragma once

#include <cstddef>

#include "engine/evolver_common.hpp"
#include "moga/generation_driver.hpp"
#include "obs/event_sink.hpp"
#include "sacga/partitioned_evolver.hpp"
#include "sacga/schedule.hpp"

namespace anadex::sacga {

/// Records the "sacga" event for one generation of LocalOnly / SACGA /
/// MESACGA: partition occupancy + per-partition feasible counts, discarded
/// partition count, and — when `schedule` is non-null (phase II) — T_A at
/// `schedule_offset` plus prob(i) samples for i = 1..n. `phase` is 0 during
/// phase I / pure-local runs and the 1-based phase index afterwards. No-op
/// unless `sink` is enabled at TraceLevel::Gen.
void trace_sacga_generation(obs::EventSink* sink, const PartitionedEvolver& evolver,
                            std::size_t generation, std::size_t phase,
                            const AnnealingSchedule* schedule,
                            std::size_t schedule_offset);

/// Reports the generation `evolver` just ran to `on_generation`, then as
/// the "gen" and "sacga" records (arguments as for trace_sacga_generation).
void report_generation(const PartitionedEvolver& evolver, std::size_t phase,
                       const AnnealingSchedule* schedule, std::size_t schedule_offset,
                       const moga::GenerationCallback& on_generation,
                       const engine::ObsConfig& obs);

/// Records a MESACGA "phase_start" / "phase_end" marker (gen level).
void trace_phase_marker(obs::EventSink* sink, std::string_view name, std::size_t phase,
                        std::size_t partitions, std::size_t generation,
                        std::size_t front_size);

}  // namespace anadex::sacga
