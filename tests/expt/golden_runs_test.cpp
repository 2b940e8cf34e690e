// Golden pins: one small run per algorithm on the paper's chosen spec, with
// every result-bearing byte reduced to a number recorded from a known-good
// build. The determinism suites compare two code paths of the SAME build
// with each other, so a refactor that moves both paths the same way passes
// them; these pins catch that.
//
// Pinned per algorithm: the hex-float bits of front_area and
// hypervolume_norm, the evaluation and generation counts, and FNV-1a
// digests (common/hash.hpp hash_bytes, seed 0) of the final checkpoint
// file and of the gen-level trace. WeightedSum never checkpoints, so its
// checkpoint digest is absent.
//
// Recorded with GCC 12.2 and glibc 2.36 (x86-64, -O3). The annealing
// schedule calls std::exp, std::log and std::pow, whose last bit may
// differ under another libm; a mismatch on a different toolchain is a
// reason to re-record, not by itself a regression. On a mismatch the
// test prints the observed values in the table's spelling.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/hash.hpp"
#include "expt/runner.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::expt {
namespace {

struct Golden {
  Algo algo;
  const char* front_area;  ///< "%a" spelling of RunOutcome::front_area
  const char* hypervolume;  ///< "%a" spelling of RunOutcome::hypervolume_norm
  std::size_t evaluations;
  std::size_t generations;
  std::uint64_t checkpoint_digest;  ///< 0 = the algorithm does not checkpoint
  std::uint64_t trace_digest;
};

// clang-format off
constexpr Golden kGoldens[] = {
    {Algo::TPG,         "0x1.79dcdbfa5cdf9p+4", "0x1.3678f1b51f665p-1", 2592, 80, 0xdf62168df77f03beULL, 0xca007cd998984471ULL},
    {Algo::LocalOnly,   "0x1.59f7cf4b01d6ep+5", "0x1.1defb35b47c6p-2",  2592, 80, 0x34fe916ee7eb836fULL, 0xe24d134e167c7399ULL},
    {Algo::SACGA,       "0x1.73b15b41bebb4p+5", "0x1.ce8cb0a2740e4p-3", 2592, 80, 0x36eeed32745d4b88ULL, 0xa935fc90b51dba94ULL},
    {Algo::MESACGA,     "0x1.a6b1564ab239ap+4", "0x1.1e905a6e0abc3p-1", 2560, 79, 0x959b57764e955950ULL, 0x8ee3b9c18e67c1ddULL},
    {Algo::Island,      "0x1.6c53a7b7139edp+5", "0x1.a0069cc08dd11p-3", 2592, 80, 0x532a6ed0345a9f64ULL, 0xa80c23a8d836a9c2ULL},
    {Algo::WeightedSum, "0x1.b7fffffffffffp+5", "0x0p+0",               2624, 80, 0,                     0x411469050eb2d20fULL},
    {Algo::SPEA2,       "0x1.7e5d228fd12bdp+5", "0x1.a093ac7943e6fp-3", 2592, 80, 0x1355eb1b20c760a0ULL, 0x69f543cff2fe1294ULL},
};
// clang-format on

RunSettings golden_settings(Algo algo) {
  RunSettings s;
  s.algo = algo;
  s.spec = problems::chosen_spec();
  s.population = 32;
  s.generations = 80;
  s.partitions = 4;
  s.islands = 4;
  s.migration_interval = 6;
  s.weight_count = 4;
  s.mesacga_schedule = {6, 3, 1};
  s.phase1_cap = 20;
  s.seed = 2005;
  return s;
}

const char* enumerator(Algo algo) {
  switch (algo) {
    case Algo::TPG: return "TPG";
    case Algo::LocalOnly: return "LocalOnly";
    case Algo::SACGA: return "SACGA";
    case Algo::MESACGA: return "MESACGA";
    case Algo::Island: return "Island";
    case Algo::WeightedSum: return "WeightedSum";
    case Algo::SPEA2: return "SPEA2";
  }
  return "?";
}

std::string hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

std::string digest_spelling(std::uint64_t digest) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016" PRIx64 "ULL", digest);
  return buffer;
}

std::optional<std::uint64_t> file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return hash_bytes(bytes.str(), 0);
}

TEST(GoldenRuns, EveryAlgorithmMatchesItsRecordedBits) {
  const std::string dir = testing::TempDir();
  for (const Golden& golden : kGoldens) {
    const std::string name = algo_name(golden.algo);
    RunSettings settings = golden_settings(golden.algo);
    const std::string stem = dir + "anadex_golden_" + std::to_string(static_cast<int>(golden.algo));
    settings.trace_path = stem + ".trace.jsonl";
    settings.trace_level = obs::TraceLevel::Gen;
    if (golden.algo != Algo::WeightedSum) {
      settings.checkpoint_path = stem + ".cp";
      settings.checkpoint_every = 8;
      std::filesystem::remove(settings.checkpoint_path);
    }
    const RunOutcome outcome = run(settings);

    const std::uint64_t checkpoint_digest =
        settings.checkpoint_path.empty() ? 0 : file_digest(settings.checkpoint_path).value_or(1);
    const std::uint64_t trace_digest = file_digest(settings.trace_path).value_or(1);
    EXPECT_EQ(hex(outcome.front_area), golden.front_area) << name;
    EXPECT_EQ(hex(outcome.hypervolume_norm), golden.hypervolume) << name;
    EXPECT_EQ(outcome.evaluations, golden.evaluations) << name;
    EXPECT_EQ(outcome.generations, golden.generations) << name;
    EXPECT_EQ(checkpoint_digest, golden.checkpoint_digest) << name;
    EXPECT_EQ(trace_digest, golden.trace_digest) << name;
    EXPECT_FALSE(outcome.interrupted) << name;
    // The observed row, spelled as in kGoldens, for re-recording.
    if (testing::Test::HasFailure()) {
      std::printf("    {Algo::%s, \"%s\", \"%s\", %zu, %zu, %s, %s},\n", enumerator(golden.algo),
                  hex(outcome.front_area).c_str(), hex(outcome.hypervolume_norm).c_str(),
                  outcome.evaluations, outcome.generations,
                  digest_spelling(checkpoint_digest).c_str(),
                  digest_spelling(trace_digest).c_str());
    }
  }
}

}  // namespace
}  // namespace anadex::expt
