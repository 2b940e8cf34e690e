#include "shard/migrants.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/check.hpp"

namespace anadex::shard {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Awkward exact values (negatives, denormal-ish magnitudes, infinities are
/// excluded by the problem domain) — the codec must round-trip doubles
/// bit-for-bit, including the rank/crowding annotations migrants carry.
moga::Population sample_population() {
  moga::Population pop(3);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    pop[i].genes = {1.0 / 3.0 + static_cast<double>(i), -2.5e-13,
                    0.1 * static_cast<double>(i + 1)};
    pop[i].eval.objectives = {3.14159265358979e-3 * static_cast<double>(i + 1), 7.0};
    pop[i].eval.violations = {0.0, 1e-17 * static_cast<double>(i)};
    pop[i].rank = static_cast<int>(i);
    pop[i].crowding =
        i == 0 ? std::numeric_limits<double>::infinity() : 0.25 * static_cast<double>(i);
  }
  return pop;
}

/// Per-test fixture dir: ctest runs tests in parallel processes, so each
/// test needs its own directory or their setup/teardown races.
struct CodecDir {
  fs::path dir;
  explicit CodecDir(const char* name) : dir(std::string("shard_codec_") + name + ".dir") {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~CodecDir() { fs::remove_all(dir); }
};

TEST(ShardMigrantCodec, RoundTripsExactly) {
  CodecDir scope("roundtrip");
  const moga::Population original = sample_population();
  write_migrant_file(scope.dir, /*epoch=*/3, /*from_island=*/1, original);
  const fs::path path = scope.dir / migrant_file_name(3, 1);
  ASSERT_TRUE(fs::exists(path));
  const moga::Population loaded = read_migrant_file(path, 3, 1);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].genes, original[i].genes);
    EXPECT_EQ(loaded[i].eval.objectives, original[i].eval.objectives);
    EXPECT_EQ(loaded[i].eval.violations, original[i].eval.violations);
    EXPECT_EQ(loaded[i].rank, original[i].rank);
    EXPECT_EQ(loaded[i].crowding, original[i].crowding);
  }
}

TEST(ShardMigrantCodec, RewriteIsByteIdenticalAndAtomic) {
  // A relaunched worker republishes the epochs it replays; the rewrite must
  // produce the same bytes (so a reader racing the rename sees one of two
  // identical files) and leave no temp file behind.
  CodecDir scope("rewrite");
  const moga::Population pop = sample_population();
  write_migrant_file(scope.dir, 2, 0, pop);
  const fs::path path = scope.dir / migrant_file_name(2, 0);
  const std::string first = slurp(path);
  write_migrant_file(scope.dir, 2, 0, pop);
  EXPECT_EQ(slurp(path), first);
  for (const auto& entry : fs::directory_iterator(scope.dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"), std::string::npos);
  }
}

TEST(ShardMigrantCodec, RejectsCorruption) {
  CodecDir scope("corrupt");
  write_migrant_file(scope.dir, 1, 2, sample_population());
  const fs::path path = scope.dir / migrant_file_name(1, 2);
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] ^= 0x01;  // flip one bit mid-body
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
  }
  EXPECT_THROW(read_migrant_file(path, 1, 2), PreconditionError);
}

TEST(ShardMigrantCodec, RejectsWrongEpochOrIsland) {
  // The header carries (epoch, from_island) so a reader can never integrate
  // a stale file under a mixed-up name.
  CodecDir scope("mismatch");
  write_migrant_file(scope.dir, 4, 0, sample_population());
  const fs::path path = scope.dir / migrant_file_name(4, 0);
  EXPECT_THROW(read_migrant_file(path, 5, 0), PreconditionError);
  EXPECT_THROW(read_migrant_file(path, 4, 1), PreconditionError);
}

TEST(ShardMigrantCodec, RejectsTruncation) {
  CodecDir scope("truncate");
  write_migrant_file(scope.dir, 6, 3, sample_population());
  const fs::path path = scope.dir / migrant_file_name(6, 3);
  const std::string bytes = slurp(path);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes.substr(0, bytes.size() - 10);
  }
  EXPECT_THROW(read_migrant_file(path, 6, 3), PreconditionError);
}

}  // namespace
}  // namespace anadex::shard
