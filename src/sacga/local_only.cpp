#include "sacga/local_only.hpp"

#include "common/check.hpp"
#include "sacga/obs_trace.hpp"

namespace anadex::sacga {

LocalOnly::LocalOnly(const moga::Problem& problem, const LocalOnlyParams& params)
    : params_(params),
      evolver_(problem, EvolverParams::of(params),
               Partitioner(params.axis_objective, params.axis_lo, params.axis_hi,
                           params.partitions),
               params.seed, params.resume != nullptr ? &params.resume->evolver : nullptr) {
  ANADEX_REQUIRE(evolver_.generation() <= params.generations,
                 "resume state is beyond the configured generation count");
}

void LocalOnly::step(const moga::GenerationCallback& on_generation) {
  evolver_.step([](std::size_t) { return 0.0; });
  report_generation(evolver_, /*phase=*/0, nullptr, 0, on_generation, params_);
}

LocalOnlyResult run_local_only(const moga::Problem& problem, const LocalOnlyParams& params,
                               const moga::GenerationCallback& on_generation) {
  LocalOnly evolver(problem, params);
  return moga::run_to_end(evolver, on_generation);
}

}  // namespace anadex::sacga
