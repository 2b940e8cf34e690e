#include "shard/topology.hpp"

#include <string>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace anadex::shard {

Topology Topology::make(std::size_t islands, std::size_t shards, std::uint64_t seed) {
  ANADEX_REQUIRE(islands >= 1, "topology: island count must be >= 1");
  ANADEX_REQUIRE(shards >= 1 && shards <= islands,
                 "topology: shards must be in [1, islands] so every shard "
                 "owns at least one island");
  Topology topo;
  topo.islands = islands;
  topo.shards = shards;
  // FNV-1a over a fixed tag plus the decimal seed: stable across platforms
  // and library versions (no std::hash), same hash family as the checkpoint
  // checksum (common/hash.hpp).
  const std::string tag = "anadex-shard-topology " + std::to_string(seed);
  topo.rotation = hash_bytes({tag.data(), tag.size()}, 0) % islands;
  return topo;
}

std::size_t Topology::shard_of(std::size_t island) const {
  ANADEX_REQUIRE(island < islands, "topology: island index out of range");
  // Position on the rotated ring, then the standard balanced contiguous
  // split: floor(position * shards / islands) is monotone in position and
  // hits every shard exactly once, so arcs are contiguous and non-empty.
  const std::size_t position = (island + rotation) % islands;
  return position * shards / islands;
}

std::vector<std::size_t> Topology::islands_of(std::size_t shard) const {
  ANADEX_REQUIRE(shard < shards, "topology: shard index out of range");
  std::vector<std::size_t> owned;
  for (std::size_t island = 0; island < islands; ++island) {
    if (shard_of(island) == shard) owned.push_back(island);
  }
  return owned;
}

}  // namespace anadex::shard
