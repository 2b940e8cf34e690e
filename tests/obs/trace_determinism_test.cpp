// Tracing is pure observation. These tests pin the three contracts of
// docs/observability.md on a real MESACGA exploration:
//   1. results (front, evaluation count) and checkpoint bytes are identical
//      with tracing off or at eval level, for 1 and 8 worker threads;
//   2. a gen-level trace is byte-identical across thread counts;
//   3. the gen-level trace carries the paper's telemetry (partition
//      occupancy, T_A, hypervolume).
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/batch_opamp.hpp"
#include "common/check.hpp"
#include "engine/eval_engine.hpp"
#include "expt/runner.hpp"
#include "problems/spec_suite.hpp"

namespace anadex::expt {
namespace {

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

RunSettings small_mesacga() {
  RunSettings s;
  s.algo = Algo::MESACGA;
  s.spec = problems::spec_suite().front();
  s.population = 16;
  s.generations = 40;
  s.phase1_cap = 10;
  s.mesacga_schedule = {6, 3, 1};
  s.seed = 11;
  return s;
}

bool same_front(const std::vector<FrontSample>& a, const std::vector<FrontSample>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].power_w != b[i].power_w || a[i].cload_f != b[i].cload_f) return false;
  }
  return true;
}

TEST(TraceDeterminism, ResultsAndCheckpointsIdenticalTracedVsUntraced) {
  const std::string dir = testing::TempDir();

  struct Variant {
    std::size_t threads;
    bool traced;
  };
  const Variant variants[] = {{1, false}, {1, true}, {8, false}, {8, true}};

  std::vector<RunOutcome> outcomes;
  std::vector<std::string> checkpoints;
  for (const Variant& v : variants) {
    RunSettings s = small_mesacga();
    s.threads = v.threads;
    const std::string tag =
        std::to_string(v.threads) + (v.traced ? "t" : "u");
    s.checkpoint_path = dir + "anadex_trace_det_cp_" + tag + ".txt";
    s.checkpoint_every = 10;
    if (v.traced) {
      s.trace_path = dir + "anadex_trace_det_" + tag + ".jsonl";
      s.trace_level = obs::TraceLevel::Eval;  // maximum instrumentation
    }
    outcomes.push_back(run(s));
    checkpoints.push_back(read_bytes(s.checkpoint_path));
  }

  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_TRUE(same_front(outcomes[i].front, outcomes[0].front)) << "variant " << i;
    EXPECT_EQ(outcomes[i].evaluations, outcomes[0].evaluations) << "variant " << i;
    EXPECT_EQ(outcomes[i].generations, outcomes[0].generations) << "variant " << i;
    ASSERT_FALSE(checkpoints[i].empty());
    EXPECT_EQ(checkpoints[i], checkpoints[0]) << "checkpoint of variant " << i;
  }
}

TEST(TraceDeterminism, GenTracesByteIdenticalAcrossThreadCounts) {
  const std::string dir = testing::TempDir();
  std::vector<std::string> traces;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    RunSettings s = small_mesacga();
    s.threads = threads;
    s.trace_path = dir + "anadex_trace_gen_" + std::to_string(threads) + ".jsonl";
    s.trace_level = obs::TraceLevel::Gen;
    (void)run(s);
    traces.push_back(read_bytes(s.trace_path));
  }
  ASSERT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(TraceContent, MesacgaGenTraceCarriesPaperTelemetry) {
  const std::string dir = testing::TempDir();
  RunSettings s = small_mesacga();
  s.trace_path = dir + "anadex_trace_content.jsonl";
  s.trace_level = obs::TraceLevel::Gen;
  (void)run(s);

  std::ifstream in(s.trace_path);
  std::string line;
  bool saw_run_start = false, saw_run_end = false, saw_trailer = false;
  bool saw_occupancy = false, saw_t_a = false, saw_hv = false, saw_phase = false;
  bool saw_wall_clock = false;
  while (std::getline(in, line)) {
    saw_run_start = saw_run_start || line.find("\"ev\":\"run_start\"") != std::string::npos;
    saw_run_end = saw_run_end || line.find("\"ev\":\"run_end\"") != std::string::npos;
    saw_trailer = saw_trailer || line.find("\"ev\":\"trace_end\"") != std::string::npos;
    saw_phase = saw_phase || line.find("\"ev\":\"phase_end\"") != std::string::npos;
    if (line.find("\"ev\":\"sacga\"") != std::string::npos) {
      saw_occupancy = saw_occupancy || line.find("\"occupancy\":[") != std::string::npos;
      saw_t_a = saw_t_a || line.find("\"t_a\":") != std::string::npos;
    }
    if (line.find("\"ev\":\"gen\"") != std::string::npos) {
      saw_hv = saw_hv || line.find("\"hv\":") != std::string::npos;
    }
    // Gen traces must stay free of wall-clock data (determinism contract).
    saw_wall_clock = saw_wall_clock || line.find("\"t\":") != std::string::npos;
  }
  EXPECT_TRUE(saw_run_start);
  EXPECT_TRUE(saw_run_end);
  EXPECT_TRUE(saw_trailer);
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_occupancy);
  EXPECT_TRUE(saw_t_a);
  EXPECT_TRUE(saw_hv);
  EXPECT_FALSE(saw_wall_clock);
}

/// The value of `"key":` in one JSONL record, as written (no unquoting).
std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t start = at + tag.size();
  return line.substr(start, line.find_first_of(",}", start) - start);
}

TEST(TraceContent, EvalTraceNamesTheEngineTheRunEvaluatesOn) {
  RunSettings s = small_mesacga();
  s.threads = 0;  // the engine resolves this to one worker per hardware thread
  s.trace_path = testing::TempDir() + "anadex_trace_eval_engine.jsonl";
  s.trace_level = obs::TraceLevel::Eval;
  const RunOutcome outcome = run(s);
  const std::string workers = std::to_string(engine::EvalEngine::resolve_threads(0));

  std::ifstream in(s.trace_path);
  std::string line;
  std::vector<std::string> order;  // run_end / eval_engine / trace_end, as met
  std::size_t envs = 0, batches = 0;
  while (std::getline(in, line)) {
    const std::string ev = field(line, "ev");
    if (ev == "\"env\"") {
      ++envs;
      EXPECT_EQ(field(line, "threads"), workers);
      EXPECT_EQ(field(line, "batch_eval"), "\"scalar\"");
      EXPECT_EQ(field(line, "lane_isa"),
                "\"" + std::string(circuit::to_string(circuit::lane_isa())) + "\"");
    } else if (ev == "\"batch\"") {
      ++batches;
      EXPECT_EQ(field(line, "workers"), workers) << line;
    } else if (ev == "\"eval_engine\"") {
      EXPECT_EQ(field(line, "requested"), std::to_string(outcome.evaluations));
      EXPECT_EQ(field(line, "workers"), workers);
      order.push_back("eval_engine");
    } else if (ev == "\"run_end\"" || ev == "\"trace_end\"") {
      order.push_back(ev.substr(1, ev.size() - 2));
    }
  }
  EXPECT_EQ(envs, 1u);
  EXPECT_GT(batches, 0u);
  // The run, not the evolver, owns its engine: the engine's totals close
  // the run after run_end and before the writer's trailer.
  EXPECT_EQ(order, (std::vector<std::string>{"run_end", "eval_engine", "trace_end"}));
}

TEST(RunSettingsValidation, RejectsTracePathWithMissingParentDirectory) {
  RunSettings s = small_mesacga();
  s.trace_path = testing::TempDir() + "no_such_subdir/run.jsonl";
  EXPECT_THROW(validate_run_settings(s), PreconditionError);

  s.trace_path = "run.jsonl";  // no parent: resolves to cwd, always valid
  validate_run_settings(s);

  s.trace_path = testing::TempDir() + "run.jsonl";
  validate_run_settings(s);
}

}  // namespace
}  // namespace anadex::expt
