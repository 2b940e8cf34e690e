#include "engine/engine_lease.hpp"

namespace anadex::engine {

EngineLease::EngineLease(const moga::Problem& problem, const EngineHandle& handle,
                         obs::EventSink* sink)
    : problem_(problem), handle_(handle) {
  if (handle_.shared()) return;
  owned_.emplace(problem, 1, sink);
  handle_ = EngineHandle{&*owned_, 0};
}

void EngineLease::evaluate_members(std::span<moga::Individual> members) const {
  handle_.engine->evaluate_members_as(problem_, handle_.context, members, &stats_);
}

}  // namespace anadex::engine
