#pragma once
// Fixture: mirrored RunSettings carrying novel_field, which the mirrored
// registry does NOT classify — the seeded digest-coverage violation.
#include <cstddef>
#include <cstdint>

namespace anadex::expt {

struct RunSettings {
  std::size_t threads = 1;
  int spec = 0;
  std::uint64_t seed = 1;
  std::size_t novel_field = 0;
};

std::string run_config_digest(const RunSettings& settings);

}  // namespace anadex::expt
