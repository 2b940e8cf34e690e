// End-to-end benchmark of record (see bench/e2e/README.md).
//
// Four closed-loop batch workloads, each generated inside one process from
// --seed and each keeping at most four threads or worker processes busy:
//
//   paper_mesacga   MESACGA on the chosen spec, population 100, 800
//                   generations, with the `explore` CLI's execution defaults.
//   batch_screen    131072 uniform-random genomes in 64 batches of 2048,
//                   4 passes through a 4-thread EvalEngine in Auto lane mode.
//   serve_drain4    4 jobs drained by serve::JobScheduler over one hub
//                   engine, stamped exactly as `anadex serve` stamps them.
//   island_shards4  island GA, population 400 on 8 islands, run by
//                   shard::run_sharded over 4 `anadex shard-worker` processes.
//
// Timed mode (the default) runs every run of a workload in a fresh child
// process, this binary re-executed with --child, so that wait4 reports the
// peak RSS of the whole process tree, shard workers included. Traced mode
// (--traced) runs one untraced and one traced pass per workload. The traced
// pass measures each layer from outside, by timing calls into its public
// functions; spans and counts stay in memory and are written when the pass
// ends. Every time is read from steady_clock or from rusage.
//
// Usage:
//   e2e_run [--workload all|NAME] [--seed S] [--rounds R] [--seconds T]
//           [--traced] [--out DIR]
//
// A timed round runs each chosen workload a fixed number of times, with the
// GA seeds round_seeds() derives from S; rounds are interleaved over the
// workloads. --rounds R runs R rounds (default 1); with --seconds T, rounds
// go on while the next one is expected to end within T seconds (at least
// one). The exit status is 0 only when every check passed.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "engine/eval_engine.hpp"
#include "expt/job.hpp"
#include "expt/runner.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"
#include "robust/checkpoint.hpp"
#include "serve/job_request.hpp"
#include "serve/scheduler.hpp"
#include "shard/coordinator.hpp"

// CMakeLists.txt defines the worker binary and the build fingerprint.
#if !defined(ANADEX_E2E_WORKER_BINARY) || !defined(ANADEX_E2E_COMPILER) || \
    !defined(ANADEX_E2E_BUILD_TYPE) || !defined(ANADEX_E2E_CXX_FLAGS)
#error "build e2e_run through bench/e2e/CMakeLists.txt"
#endif

namespace {

using namespace anadex;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::array<std::string_view, 4> kWorkloads{
    "paper_mesacga", "batch_screen", "serve_drain4", "island_shards4"};

/// Threads or worker processes a parallel workload keeps busy.
constexpr std::size_t kBusy = 4;
constexpr std::size_t kGenerations = 800;
constexpr std::size_t kCheckpointEvery = 100;
constexpr std::size_t kScreenBatches = 64;
constexpr std::size_t kScreenBatchSize = 2048;
constexpr std::size_t kScreenPasses = 4;
/// Every k-th batch_screen genome is re-checked against a serial scalar
/// engine, and every k-th one joins the traced replay corpus.
constexpr std::size_t kScreenCheckStride = 64;
constexpr std::size_t kScreenCorpusStride = 16;
/// Evaluation count of paper_mesacga at seed 3.
constexpr std::size_t kPaperEvalsSeed3 = 80100;
/// Distance between the GA seeds a timed round derives from S.
constexpr std::uint64_t kSeedStride = 1000;
/// Setup-only children spawned after each timed run, and set-ups in each.
/// The first set-up in a process is mostly the process's own start-up cost
/// (page faults, symbol binding: 80 us against 1 us for paper_mesacga) and
/// varies with the host, so a child's set-up time is the median of the
/// others. That median differs between processes, by up to 1.7x between
/// one process and the next, so setup_s is the mean over many children.
constexpr std::size_t kSetupProbesPerRun = 8;
constexpr std::size_t kSetupsPerProbe = 8;
/// Checkpoint write/load replays per traced pass (median reported).
constexpr std::size_t kCheckpointReplays = 7;

/// The GA seeds of one timed round of a workload, one run each. How long a
/// GA run takes depends on its seed, which decides how many designs reach
/// the yield Monte Carlo; a round of paper_mesacga or island_shards4 spans
/// several seeds so that its mean moves less from one S to the next. The
/// first seed runs twice in every round, so that every round checks that a
/// run repeats exactly.
std::vector<std::uint64_t> round_seeds(std::string_view workload, std::uint64_t s) {
  if (workload == "paper_mesacga") return {s, s + kSeedStride, s + 2 * kSeedStride, s};
  if (workload == "island_shards4") return {s, s + kSeedStride, s};
  if (workload == "serve_drain4") return {s, s};
  return {s, s, s, s};  // batch_screen: random genomes, its cost barely depends on S
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string num(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

double parse_num(const std::string& text) {
  double value = 0.0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), value);
  ANADEX_REQUIRE(res.ec == std::errc() && res.ptr == text.data() + text.size(),
                 "e2e_run: bad number '" + text + "' in a child record");
  return value;
}

/// Linear-interpolated quantile q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

/// Digest of a result front plus its evaluation count: equal digests mean
/// byte-identical fronts.
std::uint64_t front_digest(const std::vector<expt::FrontSample>& front, std::size_t evals) {
  std::vector<double> flat;
  flat.reserve(front.size() * 2);
  for (const auto& s : front) {
    flat.push_back(s.power_w);
    flat.push_back(s.cload_f);
  }
  return hash_genes(flat, evals);
}

// ---------------------------------------------------------------------------
// Child -> parent record: one "key token..." line per entry.

class Record {
 public:
  void add(std::string key, std::vector<std::string> tokens) {
    lines_.emplace_back(std::move(key), std::move(tokens));
  }
  void put(const std::string& key, double value) { add(key, {num(value)}); }
  void put_text(const std::string& key, const std::string& text) { add(key, {text}); }
  void put_list(const std::string& key, const std::vector<double>& values) {
    std::vector<std::string> tokens;
    tokens.reserve(values.size());
    for (double v : values) tokens.push_back(num(v));
    add(key, std::move(tokens));
  }
  /// A layer metric of the traced pass.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& better) {
    add("metric", {name, num(value), unit, better});
  }

  bool has(const std::string& key) const { return find(key) != nullptr; }
  double value(const std::string& key) const { return parse_num(tokens(key).at(0)); }
  std::string text(const std::string& key) const { return tokens(key).at(0); }
  std::vector<double> list(const std::string& key) const {
    std::vector<double> out;
    if (const auto* t = find(key)) {
      for (const auto& s : *t) out.push_back(parse_num(s));
    }
    return out;
  }
  std::vector<std::vector<std::string>> all(const std::string& key) const {
    std::vector<std::vector<std::string>> out;
    for (const auto& [k, t] : lines_) {
      if (k == key) out.push_back(t);
    }
    return out;
  }

  void write(const fs::path& path) const {
    std::ofstream os(path);
    for (const auto& [key, toks] : lines_) {
      os << key;
      for (const auto& t : toks) os << ' ' << t;
      os << '\n';
    }
    ANADEX_REQUIRE(os.good(), "e2e_run: cannot write " + path.string());
  }
  static Record read(const fs::path& path) {
    std::ifstream is(path);
    ANADEX_REQUIRE(is.good(), "e2e_run: missing child record " + path.string());
    Record rec;
    std::string line;
    while (std::getline(is, line)) {
      std::istringstream ls(line);
      std::string key;
      ls >> key;
      std::vector<std::string> toks;
      for (std::string t; ls >> t;) toks.push_back(t);
      if (!key.empty()) rec.add(std::move(key), std::move(toks));
    }
    return rec;
  }

 private:
  const std::vector<std::string>* find(const std::string& key) const {
    for (const auto& [k, t] : lines_) {
      if (k == key) return &t;
    }
    return nullptr;
  }
  const std::vector<std::string>& tokens(const std::string& key) const {
    const auto* t = find(key);
    ANADEX_REQUIRE(t != nullptr && !t->empty(),
                   "e2e_run: child record lacks '" + key + "'");
    return *t;
  }

  std::vector<std::pair<std::string, std::vector<std::string>>> lines_;
};

// ---------------------------------------------------------------------------
// Child side: one pass of one workload.

enum class Pass { Timed, Traced, Setup };

const char* pass_name(Pass pass) {
  switch (pass) {
    case Pass::Timed: return "timed";
    case Pass::Traced: return "traced";
    case Pass::Setup: return "setup";
  }
  return "?";
}

/// Genomes replayed through the evaluation model after a traced pass, each
/// with the problem it was evaluated under.
struct Corpus {
  std::vector<const problems::IntegratorProblem*> problem;
  std::vector<std::vector<double>> genes;

  void add(const problems::IntegratorProblem& p, const std::vector<double>& g) {
    problem.push_back(&p);
    genes.push_back(g);
  }
};

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// CPU time of this process's threads and of the children it has reaped
/// (shard workers).
double tree_cpu_seconds() { return cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN); }

struct Child {
  std::string workload;
  std::uint64_t seed = 3;
  Pass pass = Pass::Timed;
  fs::path dir;
  Clock::time_point entry;
  Clock::time_point setup_start;
  Record out;

  bool traced() const { return pass == Pass::Traced; }
  double since_entry() const { return seconds_between(entry, Clock::now()); }
  /// Marks the end of set-up; returns true when the pass should go on.
  bool ready() {
    if (pass != Pass::Setup) return true;
    out.put("setup_s", seconds_between(setup_start, Clock::now()));
    return false;
  }
  /// Starts the timed region; returns its start in seconds since entry.
  double start() {
    cpu0_ = tree_cpu_seconds();
    t0_ = since_entry();
    return t0_;
  }
  /// Ends the timed region, records its CPU time (so that input generation
  /// and checks around it are not counted) and returns its length.
  double stop() {
    const double wall = since_entry() - t0_;
    out.put("cpu_s", tree_cpu_seconds() - cpu0_);
    return wall;
  }
  /// Records one span (times in seconds since child entry; `busy` is the
  /// engine busy time inside it) and returns its index for children.
  long span(const std::string& name, long parent, double t0, double t1, double busy) {
    out.add("span", {name, std::to_string(parent), num(t0), num(t1), num(busy)});
    return span_count_++;
  }

 private:
  long span_count_ = 0;
  double t0_ = 0.0;
  double cpu0_ = 0.0;
};

/// on_generation recorder: the end time of every step and the engine busy
/// time at that instant, plus (traced) every `stride`-th generation's
/// genomes for the replay corpus.
struct GenLog {
  const engine::EvalEngine* engine = nullptr;
  const problems::IntegratorProblem* problem = nullptr;
  Corpus* corpus = nullptr;
  std::size_t stride = 0;
  Clock::time_point start;
  std::vector<double> ends;  ///< seconds since start
  std::vector<double> busy;  ///< engine busy seconds at each end

  void tick(std::size_t gen, const moga::Population& population) {
    ends.push_back(seconds_between(start, Clock::now()));
    busy.push_back(engine != nullptr ? engine->busy_seconds() : 0.0);
    if (corpus != nullptr && stride > 0 && gen % stride == 0) {
      for (const auto& ind : population) corpus->add(*problem, ind.genes);
    }
  }
  moga::GenerationCallback callback() {
    return [this](std::size_t gen, const moga::Population& population) {
      tick(gen, population);
    };
  }
  /// Step durations: start -> first end, then end -> end.
  std::vector<double> steps() const {
    std::vector<double> out;
    double prev = 0.0;
    for (double e : ends) {
      out.push_back(e - prev);
      prev = e;
    }
    return out;
  }
};

void put_outcome(Child& c, const expt::RunOutcome& outcome) {
  c.out.put("evals", static_cast<double>(outcome.evaluations));
  c.out.put("hv", outcome.hypervolume_norm);
  c.out.put("faults", static_cast<double>(outcome.faults.total_faults()));
  c.out.put_text("digest", hex(front_digest(outcome.front, outcome.evaluations)));
}

void put_engine_metrics(Child& c, const engine::EvalEngine& engine, double wall) {
  const engine::EvalStats& st = engine.stats();
  const double requested = static_cast<double>(std::max<std::uint64_t>(st.requested, 1));
  const double evaluated = static_cast<double>(std::max<std::uint64_t>(st.evaluated, 1));
  c.out.metric("engine.busy_s", engine.busy_seconds(), "s", "lower");
  c.out.metric("engine.busy_frac", engine.busy_seconds() / wall, "1", "higher");
  c.out.metric("engine.batches", static_cast<double>(engine.busy_batches()), "count", "lower");
  c.out.metric("engine.distinct_frac", static_cast<double>(st.evaluated) / requested, "1",
               "lower");
  c.out.metric("engine.cache_hit_frac", static_cast<double>(st.cache_hits()) / requested,
               "1", "higher");
  c.out.metric("engine.lane_item_frac", static_cast<double>(engine.lane_items()) / evaluated,
               "1", "higher");
  c.out.metric("engine.lane_fallbacks", static_cast<double>(engine.lane_fallbacks()), "count",
               "lower");
}

/// Emits one "evolver.gen" span per on_generation interval under `parent`
/// (skipping the first interval, which holds start-up work) and returns
/// each interval's self time: its length minus the engine busy time in it.
std::vector<double> gen_spans(Child& c, long parent, const GenLog& log, double offset) {
  std::vector<double> self;
  for (std::size_t i = 1; i < log.ends.size(); ++i) {
    const double dur = log.ends[i] - log.ends[i - 1];
    const double busy = log.busy[i] - log.busy[i - 1];
    c.span("evolver.gen", parent, offset + log.ends[i - 1], offset + log.ends[i], busy);
    self.push_back(dur - busy);
  }
  return self;
}

void put_evolver_metrics(Child& c, const std::vector<double>& self, double wall) {
  double total = 0.0;
  for (double s : self) total += s;
  c.out.metric("evolver.self_ms_p50", median(self) * 1e3, "ms", "lower");
  c.out.metric("evolver.self_ms_p90", quantile(self, 0.9) * 1e3, "ms", "lower");
  c.out.metric("evolver.share", total / wall, "1", "lower");
}

/// Replays the corpus through each evaluation-model layer's public entry
/// points: the scalar evaluation, the 16-wide lane kernel, one corner, and
/// the Monte Carlo yield check on the genomes that pass the typical corner.
void replay_model(Child& c, const Corpus& corpus) {
  const std::size_t n = corpus.genes.size();
  ANADEX_REQUIRE(n > 0, "e2e_run: empty replay corpus");
  double sink = 0.0;
  moga::Evaluation eval;

  const double t_eval = c.since_entry();
  for (std::size_t i = 0; i < n; ++i) {
    corpus.problem[i]->evaluate(corpus.genes[i], eval);
    sink += eval.objectives[0];
  }
  const double eval_s = c.since_entry() - t_eval;
  c.span("problems.evaluate", -1, t_eval, t_eval + eval_s, 0.0);

  // Lane groups of 16 consecutive genomes that share a problem.
  constexpr std::size_t kWidth = 16;
  std::vector<moga::Evaluation> lane_out(kWidth);
  std::vector<std::span<const double>> lane_genes;
  std::vector<moga::Evaluation*> lane_ptrs;
  const double t_lane = c.since_entry();
  for (std::size_t i = 0; i < n;) {
    const problems::IntegratorProblem* p = corpus.problem[i];
    lane_genes.clear();
    lane_ptrs.clear();
    while (i < n && lane_genes.size() < kWidth && corpus.problem[i] == p) {
      lane_genes.emplace_back(corpus.genes[i]);
      lane_ptrs.push_back(&lane_out[lane_ptrs.size()]);
      ++i;
    }
    p->evaluate_lanes(lane_genes, lane_ptrs);
    sink += lane_out[0].objectives[0];
  }
  const double lane_s = c.since_entry() - t_lane;
  c.span("problems.evaluate_lanes", -1, t_lane, t_lane + lane_s, 0.0);

  std::vector<scint::IntegratorDesign> designs(n);
  for (std::size_t i = 0; i < n; ++i) {
    designs[i] = problems::IntegratorProblem::decode(corpus.genes[i]);
  }
  std::vector<std::size_t> passing;
  const double t_corner = c.since_entry();
  for (std::size_t i = 0; i < n; ++i) {
    const problems::IntegratorProblem& p = *corpus.problem[i];
    const scint::IntegratorPerformance perf = p.typical_performance(designs[i]);
    sink += perf.power;
    if (p.spec().satisfied_by(perf)) passing.push_back(i);
  }
  const double corner_s = c.since_entry() - t_corner;
  c.span("scint.corner", -1, t_corner, t_corner + corner_s, 0.0);

  const double t_mc = c.since_entry();
  for (std::size_t i : passing) sink += corpus.problem[i]->design_robustness(designs[i]);
  const double mc_s = c.since_entry() - t_mc;
  c.span("yield.robustness", -1, t_mc, t_mc + mc_s, 0.0);

  const double dn = static_cast<double>(n);
  const double eval_us = eval_s / dn * 1e6;
  const double mc_call_frac = static_cast<double>(passing.size()) / dn;
  // With no passing genome the Monte Carlo never runs; its per-call cost is
  // then measured on the first genome instead, so the metric stays defined.
  double mc_us = 0.0;
  if (passing.empty()) {
    const double t_one = c.since_entry();
    sink += corpus.problem[0]->design_robustness(designs[0]);
    mc_us = (c.since_entry() - t_one) * 1e6;
  } else {
    mc_us = mc_s / static_cast<double>(passing.size()) * 1e6;
  }
  c.out.metric("problems.eval_us", eval_us, "us", "lower");
  c.out.metric("problems.lane_eval_us", lane_s / dn * 1e6, "us", "lower");
  c.out.metric("scint.corner_us", corner_s / dn * 1e6, "us", "lower");
  c.out.metric("yield.mc_us", mc_us, "us", "lower");
  c.out.metric("yield.mc_call_frac", mc_call_frac, "1", "lower");
  c.out.metric("yield.share", mc_call_frac * mc_us / eval_us, "1", "lower");
  c.out.metric("replay.genomes", dn, "count", "higher");
  c.out.put("replay_sink", sink);
}

/// Replays write_checkpoint_file (keep 2, fsync on) and recover_checkpoint
/// on the workload's own checkpoint. Returns {write_ms, load_ms}.
std::pair<double, double> replay_checkpoint(Child& c, const fs::path& path) {
  const robust::Checkpoint checkpoint = robust::read_checkpoint_file(path.string());
  const std::string replay = (c.dir / "replay.ckpt").string();
  robust::CheckpointWriteOptions options;
  options.keep = 2;
  std::vector<double> write_ms;
  std::vector<double> load_ms;
  for (std::size_t k = 0; k < kCheckpointReplays; ++k) {
    const double t0 = c.since_entry();
    robust::write_checkpoint_file(replay, checkpoint, options);
    const double t1 = c.since_entry();
    const auto recovered = robust::recover_checkpoint(replay);
    const double t2 = c.since_entry();
    ANADEX_REQUIRE(recovered.has_value(), "e2e_run: replayed checkpoint does not load");
    c.span("robust.write", -1, t0, t1, 0.0);
    c.span("robust.load", -1, t1, t2, 0.0);
    write_ms.push_back((t1 - t0) * 1e3);
    load_ms.push_back((t2 - t1) * 1e3);
  }
  return {median(write_ms), median(load_ms)};
}

/// Counts checkpoint writes and bytes through the AfterRename hook.
struct CheckpointCounter {
  std::size_t writes = 0;
  double bytes = 0.0;

  robust::CheckpointWriteHook hook() {
    return [this](robust::CheckpointWritePhase phase, const std::string& path) {
      if (phase != robust::CheckpointWritePhase::AfterRename) return;
      ++writes;
      std::error_code ec;
      const auto size = fs::file_size(path, ec);
      if (!ec) bytes += static_cast<double>(size);
    };
  }
};

void put_robust_metrics(Child& c, const CheckpointCounter& counter, std::size_t loads,
                        const fs::path& checkpoint, double wall) {
  const auto [write_ms, load_ms] = replay_checkpoint(c, checkpoint);
  c.out.metric("robust.ckpt_writes", static_cast<double>(counter.writes), "count", "lower");
  c.out.metric("robust.ckpt_bytes", counter.bytes, "B", "lower");
  c.out.metric("robust.ckpt_write_ms", write_ms, "ms", "lower");
  c.out.metric("robust.ckpt_load_ms", load_ms, "ms", "lower");
  c.out.metric("robust.share",
               (static_cast<double>(counter.writes) * write_ms +
                static_cast<double>(loads) * load_ms) / 1e3 / wall,
               "1", "lower");
}

/// Reports 0 for the counts and shares of the layers a traced pass did not
/// exercise, so that every workload reports the same layer metrics.
void put_absent(Child& c) {
  struct Absent {
    const char* name;
    const char* unit;
    const char* better;
  };
  static constexpr std::array<Absent, 10> kAbsent{{
      {"evolver.share", "1", "lower"},
      {"robust.ckpt_writes", "count", "lower"},
      {"robust.ckpt_bytes", "B", "lower"},
      {"robust.share", "1", "lower"},
      {"serve.slices", "count", "lower"},
      {"serve.preemptions", "count", "lower"},
      {"obs.trace_bytes", "B", "lower"},
      {"shard.migrant_files", "count", "lower"},
      {"shard.migrant_bytes", "B", "lower"},
      {"shard.par_eff", "1", "higher"},
  }};
  const auto reported = c.out.all("metric");
  for (const Absent& a : kAbsent) {
    const bool present = std::any_of(reported.begin(), reported.end(),
                                     [&a](const auto& t) { return t[0] == a.name; });
    if (!present) c.out.metric(a.name, 0.0, a.unit, a.better);
  }
}

// --- paper_mesacga --------------------------------------------------------

void run_paper(Child& c) {
  const problems::IntegratorProblem problem(problems::chosen_spec());
  expt::RunSettings s;
  s.algo = expt::Algo::MESACGA;
  s.spec = problems::chosen_spec();
  s.population = 100;
  s.generations = kGenerations;
  s.seed = c.seed;
  // threads 1, eval_cache 0, batch_eval scalar: the explore CLI defaults.
  std::optional<engine::EvalEngine> engine;
  Corpus corpus;
  GenLog log;
  if (c.traced()) {
    // Same threads, cache and mode as the timed run, but owned here so its
    // counters can be read.
    engine.emplace(problem, s.threads, nullptr, s.eval_cache);
    engine->set_batch_eval(s.batch_eval);
    s.engine = engine::EngineHandle{&*engine, 0};
    log = GenLog{&*engine, &problem, &corpus, 8, {}, {}, {}};
  }
  s.on_generation = log.callback();
  expt::Job job(problem, std::move(s));
  if (!c.ready()) return;

  const double t0 = c.start();
  log.start = Clock::now();
  const expt::RunOutcome outcome = job.run();
  const double wall = c.stop();
  c.out.put("wall_s", wall);
  c.out.put_list("steps_s", log.steps());
  c.out.put("runs", 1);
  c.out.put("failed_runs", job.state() == expt::JobState::Done ? 0 : 1);
  put_outcome(c, outcome);
  if (!c.traced()) return;

  const long root = c.span("expt.job", -1, t0, t0 + wall, engine->busy_seconds());
  put_engine_metrics(c, *engine, wall);
  put_evolver_metrics(c, gen_spans(c, root, log, t0), wall);
  replay_model(c, corpus);
}

// --- batch_screen ---------------------------------------------------------

void run_screen(Child& c) {
  const problems::IntegratorProblem problem(problems::chosen_spec());
  engine::EvalEngine engine(problem, kBusy);
  engine.set_batch_eval(engine::BatchEval::Auto);
  if (!c.ready()) return;

  // Inputs: uniform-random genomes drawn from the seed (not timed).
  const auto bounds = problem.bounds();
  Rng rng(c.seed);
  std::vector<std::vector<engine::Genome>> genomes(
      kScreenBatches, std::vector<engine::Genome>(kScreenBatchSize));
  for (auto& batch : genomes) {
    for (auto& genes : batch) {
      genes.resize(bounds.size());
      for (std::size_t k = 0; k < bounds.size(); ++k) {
        genes[k] = rng.uniform(bounds[k].lower, bounds[k].upper);
      }
    }
  }

  // One output buffer, folded into the pass's chained digest after every
  // batch, so that peak RSS is the engine's and the inputs'. Every
  // kScreenCheckStride-th result of the first pass is kept for the oracle.
  static_assert(kScreenBatchSize % kScreenCheckStride == 0);
  std::vector<moga::Evaluation> out(kScreenBatchSize);
  std::vector<moga::Evaluation> sampled;
  std::vector<std::uint64_t> pass_digests;
  std::vector<double> steps;
  std::vector<double> starts;
  std::vector<double> busy;
  const double t0 = c.start();
  for (std::size_t pass = 0; pass < kScreenPasses; ++pass) {
    std::uint64_t digest = kScreenBatches * kScreenBatchSize;
    for (std::size_t b = 0; b < kScreenBatches; ++b) {
      const auto start = Clock::now();
      const double busy0 = engine.busy_seconds();
      engine.evaluate_batch(genomes[b], out);
      steps.push_back(seconds_between(start, Clock::now()));
      starts.push_back(seconds_between(c.entry, start));
      busy.push_back(engine.busy_seconds() - busy0);
      for (std::size_t i = 0; i < out.size(); ++i) {
        digest = hash_genes(out[i].violations, hash_genes(out[i].objectives, digest));
        if (pass == 0 && i % kScreenCheckStride == 0) sampled.push_back(out[i]);
      }
    }
    pass_digests.push_back(digest);
  }
  const double region = c.stop();
  // The time inside evaluate_batch, without the digest folding between calls.
  double wall = 0.0;
  for (double s : steps) wall += s;
  c.out.put("wall_s", wall);
  c.out.put_list("steps_s", steps);
  c.out.put("runs", 0);
  c.out.put("failed_runs", 0);
  c.out.put("evals", static_cast<double>(kScreenPasses * kScreenBatches * kScreenBatchSize));
  c.out.put("faults", 0);
  c.out.put_text("digest", hex(pass_digests[0]));
  c.out.put("passes_identical",
            std::all_of(pass_digests.begin(), pass_digests.end(),
                        [&](std::uint64_t d) { return d == pass_digests[0]; })
                ? 1.0
                : 0.0);

  // Bit-for-bit check of the subsample against a serial scalar engine.
  const engine::EvalEngine oracle(problem, 1);
  std::size_t mismatched = 0;
  for (std::size_t k = 0; k < sampled.size(); ++k) {
    const std::size_t i = k * kScreenCheckStride;
    const moga::Evaluation want =
        oracle.evaluate(genomes[i / kScreenBatchSize][i % kScreenBatchSize]);
    if (want.objectives != sampled[k].objectives || want.violations != sampled[k].violations) {
      ++mismatched;
    }
  }
  c.out.put("oracle_checked", static_cast<double>(sampled.size()));
  c.out.put("oracle_mismatched", static_cast<double>(mismatched));
  if (!c.traced()) return;

  const long root = c.span("engine.screen", -1, t0, t0 + region, engine.busy_seconds());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    c.span("engine.batch", root, starts[i], starts[i] + steps[i], busy[i]);
  }
  put_engine_metrics(c, engine, wall);
  Corpus corpus;
  for (std::size_t i = 0; i < kScreenBatches * kScreenBatchSize; i += kScreenCorpusStride) {
    corpus.add(problem, genomes[i / kScreenBatchSize][i % kScreenBatchSize]);
  }
  replay_model(c, corpus);
}

// --- serve_drain4 ---------------------------------------------------------

void run_serve(Child& c) {
  // Engine and slice settings of `anadex serve --threads 4 --slice 25`
  // with its default shared cache and scalar lanes.
  engine::EvalEngine hub(kBusy, nullptr, std::size_t{1} << 16);
  hub.set_batch_eval(engine::BatchEval::Scalar);
  serve::SchedulerConfig config;
  config.slice_generations = 25;
  config.hub = &hub;
  serve::JobScheduler scheduler(config);

  const auto request = [](const std::string& id, const std::string& algo,
                          const std::string& spec, std::uint64_t seed) {
    return "{\"id\":\"" + id + "\",\"algo\":\"" + algo + "\",\"spec\":" + spec +
           ",\"generations\":" + std::to_string(kGenerations) +
           ",\"seed\":" + std::to_string(seed) + "}";
  };
  const std::array<std::string, 4> requests{
      request("j1", "mesacga", "\"chosen\"", c.seed + 1),
      request("j2", "sacga", "5", c.seed + 2),
      request("j3", "tpg", "12", c.seed + 3),
      request("j4", "localonly", "17", c.seed + 4)};

  Corpus corpus;
  std::array<GenLog, 4> logs;
  std::array<CheckpointCounter, 4> counters;
  // Step index of each log's last tick: generation intervals are only
  // formed between ticks of the same slice.
  std::array<std::vector<std::size_t>, 4> tick_step;
  std::size_t step_index = 0;
  const auto drain_start = Clock::now();
  for (std::size_t j = 0; j < requests.size(); ++j) {
    serve::JobRequest parsed = serve::parse_job_request(requests[j]);
    expt::RunSettings settings = std::move(parsed.settings);
    // Service-owned execution knobs, stamped as apps/anadex_cli.cpp does.
    settings.threads = 1;
    settings.eval_cache = 0;
    settings.trace_path = (c.dir / (parsed.id + ".trace.jsonl")).string();
    settings.trace_level = obs::TraceLevel::Gen;
    settings.checkpoint_path = (c.dir / (parsed.id + ".ckpt")).string();
    settings.checkpoint_keep = 2;
    settings.resume = expt::ResumeMode::Auto;
    if (c.traced()) {
      logs[j] = GenLog{&hub, nullptr, &corpus, 32, drain_start, {}, {}};
      settings.checkpoint_write_hook = counters[j].hook();
      settings.on_generation = [&logs, &tick_step, &step_index, j](
                                   std::size_t gen, const moga::Population& population) {
        logs[j].tick(gen, population);
        tick_step[j].push_back(step_index);
      };
    }
    const std::size_t slot = scheduler.admit(parsed.id, std::move(settings));
    logs[slot].problem = &scheduler.job(slot).problem();
  }
  if (!c.ready()) return;

  const double offset = seconds_between(c.entry, drain_start);
  std::vector<double> steps;
  std::vector<double> step_t0;
  std::vector<double> step_busy;
  const double t0 = c.start();
  for (;;) {
    const auto start = Clock::now();
    const double busy0 = hub.busy_seconds();
    if (!scheduler.step()) break;
    step_t0.push_back(seconds_between(c.entry, start));
    steps.push_back(seconds_between(start, Clock::now()));
    step_busy.push_back(hub.busy_seconds() - busy0);
    ++step_index;
  }
  const double wall = c.stop();

  std::size_t evals = 0;
  std::size_t faults = 0;
  std::size_t done = 0;
  double hv = 0.0;
  std::string digests;
  for (std::size_t slot = 0; slot < scheduler.size(); ++slot) {
    const expt::Job& job = scheduler.job(slot);
    if (job.state() == expt::JobState::Done) ++done;
    const expt::RunOutcome& o = job.outcome();
    evals += o.evaluations;
    faults += o.faults.total_faults();
    hv += o.hypervolume_norm / static_cast<double>(scheduler.size());
    digests += hex(front_digest(o.front, o.evaluations));
  }
  c.out.put("wall_s", wall);
  c.out.put_list("steps_s", steps);
  c.out.put("runs", static_cast<double>(scheduler.size()));
  c.out.put("failed_runs", static_cast<double>(scheduler.size() - done));
  c.out.put("jobs_done", static_cast<double>(done));
  c.out.put("evals", static_cast<double>(evals));
  c.out.put("hv", hv);
  c.out.put("faults", static_cast<double>(faults));
  c.out.put_text("digest", hex(hash_bytes(digests, evals)));
  if (!c.traced()) return;

  const long root = c.span("serve.drain", -1, t0, t0 + wall, hub.busy_seconds());
  std::vector<long> step_span(steps.size());
  std::vector<double> slice_self;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    step_span[i] = c.span("serve.step", root, step_t0[i], step_t0[i] + steps[i], step_busy[i]);
    slice_self.push_back(steps[i] - step_busy[i]);
  }
  std::vector<double> self;
  for (std::size_t j = 0; j < logs.size(); ++j) {
    const GenLog& log = logs[j];
    for (std::size_t i = 1; i < log.ends.size(); ++i) {
      if (tick_step[j][i] != tick_step[j][i - 1]) continue;  // crosses a slice boundary
      const double busy = log.busy[i] - log.busy[i - 1];
      c.span("evolver.gen", step_span[tick_step[j][i]], offset + log.ends[i - 1],
             offset + log.ends[i], busy);
      self.push_back(log.ends[i] - log.ends[i - 1] - busy);
    }
  }
  const serve::ServiceStats& st = scheduler.stats();
  put_engine_metrics(c, hub, wall);
  put_evolver_metrics(c, self, wall);
  CheckpointCounter all;
  for (const auto& k : counters) {
    all.writes += k.writes;
    all.bytes += k.bytes;
  }
  // Every slice after a job's first resumes from its checkpoint chain.
  const std::size_t loads = static_cast<std::size_t>(st.slices) - scheduler.size();
  put_robust_metrics(c, all, loads, c.dir / "j1.ckpt", wall);
  c.out.metric("serve.slice_self_ms_p50", median(slice_self) * 1e3, "ms", "lower");
  c.out.metric("serve.slices", static_cast<double>(st.slices), "count", "lower");
  c.out.metric("serve.preemptions", static_cast<double>(st.preemptions), "count", "lower");
  double trace_bytes = 0.0;
  for (std::size_t slot = 0; slot < scheduler.size(); ++slot) {
    const std::string& trace = scheduler.job(slot).settings().trace_path;
    trace_bytes += static_cast<double>(fs::file_size(trace));
  }
  c.out.metric("obs.trace_bytes", trace_bytes, "B", "lower");
  replay_model(c, corpus);
}

// --- island_shards4 -------------------------------------------------------

expt::RunSettings island_settings(const Child& c) {
  expt::RunSettings s;
  s.algo = expt::Algo::Island;
  s.spec = problems::chosen_spec();
  s.population = 400;
  s.islands = 8;
  s.migration_interval = 25;
  s.generations = kGenerations;
  s.seed = c.seed;
  s.checkpoint_every = kCheckpointEvery;
  return s;
}

void run_island(Child& c) {
  const problems::IntegratorProblem problem(problems::chosen_spec());
  expt::RunSettings s = island_settings(c);
  s.shards = kBusy;
  s.threads = 1;
  s.checkpoint_path = (c.dir / "island.ckpt").string();
  shard::ShardOptions options;
  options.mode = shard::LaunchMode::Processes;
  options.worker_binary = ANADEX_E2E_WORKER_BINARY;
  options.spec_arg = "chosen";
  expt::validate_run_settings(s);
  if (!c.ready()) return;

  const double worker_cpu0 = cpu_seconds(RUSAGE_CHILDREN);
  const double t0 = c.start();
  const expt::RunOutcome outcome = shard::run_sharded(problem, s, options);
  const double wall = c.stop();
  const double worker_cpu = cpu_seconds(RUSAGE_CHILDREN) - worker_cpu0;
  c.out.put("wall_s", wall);
  c.out.put("runs", 1);
  c.out.put("failed_runs", outcome.interrupted ? 1 : 0);
  put_outcome(c, outcome);
  if (!c.traced()) return;

  c.span("shard.run", -1, t0, t0 + wall, 0.0);
  std::size_t migrant_files = 0;
  double migrant_bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(shard::resolve_shard_dir(s))) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("epoch", 0) == 0 && entry.path().extension() == ".mig") {
      ++migrant_files;
      migrant_bytes += static_cast<double>(entry.file_size());
    }
  }
  c.out.metric("shard.migrant_files", static_cast<double>(migrant_files), "count", "lower");
  c.out.metric("shard.migrant_bytes", migrant_bytes, "B", "lower");
  c.out.metric("shard.worker_cpu_s", worker_cpu, "s", "lower");
  c.out.metric("shard.par_eff", worker_cpu / (wall * static_cast<double>(kBusy)), "1",
               "higher");

  // Reference leg: the same island run solo on a 4-thread engine. Its
  // front must match the sharded one byte for byte; its engine, evolver
  // and checkpoint layers stand in for the shard workers', which live in
  // other processes.
  expt::RunSettings ref = island_settings(c);
  ref.checkpoint_path = (c.dir / "island_ref.ckpt").string();
  engine::EvalEngine engine(problem, kBusy);
  ref.engine = engine::EngineHandle{&engine, 0};
  Corpus corpus;
  GenLog log{&engine, &problem, &corpus, 32, {}, {}, {}};
  ref.on_generation = log.callback();
  CheckpointCounter counter;
  ref.checkpoint_write_hook = counter.hook();
  expt::Job job(problem, std::move(ref));
  const double r0 = c.since_entry();
  log.start = Clock::now();
  const expt::RunOutcome ref_outcome = job.run();
  const double ref_wall = c.since_entry() - r0;
  c.out.put_text("ref_digest", hex(front_digest(ref_outcome.front, ref_outcome.evaluations)));
  const long root =
      c.span("expt.job.threads4_ref", -1, r0, r0 + ref_wall, engine.busy_seconds());
  c.out.metric("shard.threads4_ref_wall_s", ref_wall, "s", "lower");
  c.out.metric("shard.speedup_vs_threads4", ref_wall / wall, "1", "higher");
  put_engine_metrics(c, engine, ref_wall);
  put_evolver_metrics(c, gen_spans(c, root, log, r0), ref_wall);
  put_robust_metrics(c, counter, 0, c.dir / "island.ckpt", ref_wall);
  replay_model(c, corpus);
}

int child_main(int argc, char** argv, Clock::time_point entry) {
  // --child WORKLOAD SEED PASS DIR RECORD
  ANADEX_REQUIRE(argc == 7, "e2e_run --child takes 5 arguments");
  Child c;
  c.entry = entry;
  c.workload = argv[2];
  c.seed = std::stoull(argv[3]);
  const std::string pass = argv[4];
  ANADEX_REQUIRE(pass == "timed" || pass == "traced" || pass == "setup",
                 "e2e_run: unknown pass '" + pass + "'");
  c.pass = pass == "traced" ? Pass::Traced : pass == "setup" ? Pass::Setup : Pass::Timed;
  c.dir = argv[5];
  const fs::path record = argv[6];
  fs::create_directories(c.dir);
  const auto run = c.workload == "paper_mesacga"    ? run_paper
                   : c.workload == "batch_screen"   ? run_screen
                   : c.workload == "serve_drain4"   ? run_serve
                   : c.workload == "island_shards4" ? run_island
                                                    : nullptr;
  ANADEX_REQUIRE(run != nullptr, "e2e_run: unknown workload '" + c.workload + "'");
  const std::size_t times = c.pass == Pass::Setup ? kSetupsPerProbe : 1;
  for (std::size_t k = 0; k < times; ++k) {
    c.setup_start = Clock::now();
    run(c);
  }
  if (c.traced()) put_absent(c);
  c.out.write(record);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent side.

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 3;
  std::size_t rounds = 1;
  double seconds = 0.0;
  bool traced = false;
  fs::path out = ".";
};

struct ChildRun {
  bool ok = false;
  std::string error;
  std::uint64_t seed = 0;
  double peak_rss_mb = 0.0;
  Record rec;
};

/// Runs one child pass and waits for it; the rusage covers the child and
/// every descendant it waited for.
ChildRun spawn_child(const std::string& workload, std::uint64_t seed, Pass pass,
                     const fs::path& work) {
  static const std::string self = fs::read_symlink("/proc/self/exe").string();
  const fs::path dir = work / (workload + "." + pass_name(pass));
  const fs::path record = work / (workload + "." + pass_name(pass) + ".rec");
  fs::remove_all(dir);
  fs::remove(record);
  const std::vector<std::string> args{
      self, "--child", workload, std::to_string(seed), pass_name(pass), dir.string(),
      record.string()};
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  ChildRun run;
  run.seed = seed;
  std::cout.flush();
  const pid_t pid = ::fork();
  ANADEX_REQUIRE(pid >= 0, "e2e_run: fork failed");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    // exec failed: leave without running the parent's destructors.
    ::_exit(127);  // anadex-lint: allow(process-control)
  }
  int status = 0;
  rusage ru{};
  const pid_t waited = ::wait4(pid, &status, 0, &ru);
  ANADEX_REQUIRE(waited == pid, "e2e_run: wait4 failed");
  run.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    run.ok = true;
    run.rec = Record::read(record);
  } else {
    run.error = workload + " " + pass_name(pass) + " child exited with status " +
                std::to_string(status);
  }
  fs::remove_all(dir);
  fs::remove(record);
  return run;
}

struct Check {
  std::string workload;
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;
};

/// Every timed run of one workload.
struct Series {
  std::string workload;
  std::vector<std::uint64_t> seeds;  ///< of one round
  std::vector<ChildRun> runs;
  std::vector<double> setup_s;  ///< per setup child, its median warm set-up
  double attempted = 0.0;
  double failed = 0.0;
};

/// The runs of a series grouped by seed, in the order the seeds first ran.
std::vector<std::vector<const ChildRun*>> by_seed(const Series& s) {
  std::vector<std::vector<const ChildRun*>> groups;
  for (const ChildRun& r : s.runs) {
    const auto it = std::find_if(groups.begin(), groups.end(),
                                 [&r](const auto& g) { return g.front()->seed == r.seed; });
    if (it == groups.end()) {
      groups.push_back({&r});
    } else {
      it->push_back(&r);
    }
  }
  return groups;
}

/// wall_s and cpu_s are the mean over the seeds of each seed's median run;
/// evals_per_s is the seeds' evaluations over the sum of those medians.
std::vector<Metric> timed_metrics(const Series& s) {
  const auto groups = by_seed(s);
  double wall = 0.0;
  double cpu = 0.0;
  double evals = 0.0;
  double hv = 0.0;
  for (const auto& g : groups) {
    std::vector<double> walls;
    std::vector<double> cpus;
    for (const ChildRun* r : g) {
      walls.push_back(r->rec.value("wall_s"));
      cpus.push_back(r->rec.value("cpu_s"));
    }
    wall += median(walls);
    cpu += median(cpus);
    evals += g.front()->rec.value("evals");
    if (g.front()->rec.has("hv")) hv += g.front()->rec.value("hv");
  }
  std::vector<double> rss;
  std::vector<double> steps;
  for (const ChildRun& r : s.runs) {
    rss.push_back(r.peak_rss_mb);
    for (double v : r.rec.list("steps_s")) steps.push_back(v * 1e3);
  }
  const double n = static_cast<double>(groups.size());
  std::vector<Metric> m{
      {"wall_s", wall / n, "s", "lower"},
      {"evals_per_s", evals / wall, "1/s", "higher"},
      {"setup_s", mean(s.setup_s), "s", "lower"},
  };
  if (!steps.empty()) {
    m.push_back({"step_ms_p50", median(steps), "ms", "lower"});
    m.push_back({"step_ms_p90", quantile(steps, 0.9), "ms", "lower"});
  }
  m.push_back({"cpu_s", cpu / n, "s", "lower"});
  m.push_back({"peak_rss_mb", median(rss), "MB", "lower"});
  if (s.runs.front().rec.has("hv")) m.push_back({"hv", hv / n, "1", "higher"});
  m.push_back({"fail_frac", s.failed / s.attempted, "1", "lower"});
  return m;
}

void add_check(std::vector<Check>& checks, const std::string& workload,
               const std::string& name, bool ok, const std::string& detail) {
  checks.push_back({workload, name, ok, detail});
  if (!ok) std::cerr << "CHECK FAILED: " << workload << " " << name << ": " << detail << "\n";
}

/// Checks on one workload's timed runs.
void check_series(const Series& s, std::vector<Check>& checks) {
  bool same = true;
  std::string detail;
  for (const auto& g : by_seed(s)) {
    const Record& first = g.front()->rec;
    for (const ChildRun* r : g) {
      same = same && r->rec.text("digest") == first.text("digest") &&
             r->rec.value("evals") == first.value("evals");
    }
    detail += (detail.empty() ? "seed " : "; seed ") + std::to_string(g.front()->seed) +
              ": digest " + first.text("digest") + ", evals " + num(first.value("evals")) +
              ", " + std::to_string(g.size()) + " runs";
  }
  add_check(checks, s.workload, "repeats_identical", same, detail);
  add_check(checks, s.workload, "no_faults", s.failed == 0.0, "failed " + num(s.failed));

  // True when `ok` holds on every run.
  const auto every_run = [&s](const std::function<bool(const ChildRun&)>& ok) {
    return std::all_of(s.runs.begin(), s.runs.end(), ok);
  };
  const auto evals_are = [&every_run](double expected) {
    return every_run(
        [expected](const ChildRun& r) { return r.rec.value("evals") == expected; });
  };
  if (s.workload == "paper_mesacga") {
    const bool ok = every_run([](const ChildRun& r) {
      return r.seed != 3 || r.rec.value("evals") == static_cast<double>(kPaperEvalsSeed3);
    });
    add_check(checks, s.workload, "evals_seed3", ok,
              "a run with seed 3 makes " + std::to_string(kPaperEvalsSeed3) + " evaluations");
  }
  if (s.workload == "batch_screen") {
    const auto expected =
        static_cast<double>(kScreenPasses * kScreenBatches * kScreenBatchSize);
    add_check(checks, s.workload, "evals", evals_are(expected), "evals " + num(expected));
    add_check(checks, s.workload, "passes_identical", every_run([](const ChildRun& r) {
                return r.rec.value("passes_identical") == 1.0;
              }),
              std::to_string(kScreenPasses) + " passes give the same results");
    add_check(checks, s.workload, "scalar_oracle_subsample", every_run([](const ChildRun& r) {
                return r.rec.value("oracle_mismatched") == 0.0 &&
                       r.rec.value("oracle_checked") > 0.0;
              }),
              "every " + std::to_string(kScreenCheckStride) +
                  "th genome vs a 1-thread scalar engine");
  }
  if (s.workload == "serve_drain4") {
    add_check(checks, s.workload, "all_jobs_done",
              every_run([](const ChildRun& r) { return r.rec.value("jobs_done") == 4.0; }),
              "4 jobs end Done");
  }
  if (s.workload == "island_shards4") {
    const double expected = 400.0 * static_cast<double>(kGenerations + 1);
    add_check(checks, s.workload, "evals", evals_are(expected), "evals " + num(expected));
  }
}

void absorb(Series& s, ChildRun run) {
  s.attempted += run.rec.value("evals") + run.rec.value("runs");
  s.failed += run.rec.value("faults") + run.rec.value("failed_runs");
  s.runs.push_back(std::move(run));
}

/// Runs one round of a series: each of its seeds once, every run followed
/// by its set-up probes. Returns false when a child failed.
bool run_round(Series& s, const fs::path& work, std::vector<Check>& checks) {
  for (const std::uint64_t seed : s.seeds) {
    ChildRun run = spawn_child(s.workload, seed, Pass::Timed, work);
    if (!run.ok) {
      add_check(checks, s.workload, "child_exit", false, run.error);
      return false;
    }
    absorb(s, std::move(run));
    for (std::size_t p = 0; p < kSetupProbesPerRun; ++p) {
      ChildRun probe = spawn_child(s.workload, seed, Pass::Setup, work);
      if (!probe.ok) {
        add_check(checks, s.workload, "child_exit", false, probe.error);
        return false;
      }
      const auto samples = probe.rec.all("setup_s");
      std::vector<double> warm;
      for (std::size_t k = 1; k < samples.size(); ++k) {
        warm.push_back(parse_num(samples[k].at(0)));
      }
      s.setup_s.push_back(median(warm));
    }
  }
  return true;
}

// --- machine fingerprint and JSON output ----------------------------------

struct Machine {
  unsigned nproc = 0;
  std::string cpu_model = "unknown";
  bool avx2 = false;
  bool avx512f = false;
};

Machine machine() {
  Machine m;
  m.nproc = std::thread::hardware_concurrency();
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  bool model = false;
  bool flags = false;
  while (std::getline(is, line) && !(model && flags)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && !model) {
      m.cpu_model = value;
      model = true;
    } else if (key == "flags" && !flags) {
      std::istringstream fs_(value);
      for (std::string f; fs_ >> f;) {
        m.avx2 = m.avx2 || f == "avx2";
        m.avx512f = m.avx512f || f == "avx512f";
      }
      flags = true;
    }
  }
  return m;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string json_num(double v) { return std::isfinite(v) ? num(v) : "null"; }

std::string metrics_json(const std::vector<Metric>& metrics, const std::string& indent) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ",\n" : "\n") + indent + "  " + quoted(m.name) + ": {\"value\": " +
           json_num(m.value) + ", \"unit\": " + quoted(m.unit) +
           ", \"better\": " + quoted(m.better) + "}";
  }
  return out + "\n" + indent + "}";
}

std::string run_json(const ChildRun& r) {
  const Record& rec = r.rec;
  const std::vector<double> steps = rec.list("steps_s");
  std::string out = "{\"seed\": " + std::to_string(r.seed) +
                    ", \"wall_s\": " + json_num(rec.value("wall_s")) +
                    ", \"cpu_s\": " + json_num(rec.value("cpu_s")) +
                    ", \"peak_rss_mb\": " + json_num(r.peak_rss_mb) +
                    ", \"evals\": " + json_num(rec.value("evals")) +
                    ", \"digest\": " + quoted(rec.text("digest"));
  if (rec.has("hv")) out += ", \"hv\": " + json_num(rec.value("hv"));
  if (!steps.empty()) {
    std::vector<double> ms;
    for (double s : steps) ms.push_back(s * 1e3);
    out += ", \"steps\": " + std::to_string(steps.size()) +
           ", \"step_ms_p50\": " + json_num(median(ms)) +
           ", \"step_ms_p90\": " + json_num(quantile(ms, 0.9));
  }
  return out + "}";
}

std::string samples_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_num(v[i]);
  return out + "]";
}

/// `rounds` is the number of timed rounds run; the traced mode has none.
std::string header_json(const Options& opt, std::optional<std::size_t> rounds, bool correct) {
  const Machine m = machine();
  std::string out = "{\n  \"schema\": \"anadex-bench-e2e/v1\",\n  \"mode\": " +
                    quoted(rounds ? "timed" : "traced") +
                    ",\n  \"seed\": " + std::to_string(opt.seed);
  if (rounds) {
    out += ",\n  \"rounds\": " + std::to_string(*rounds) +
           ",\n  \"seconds\": " + json_num(opt.seconds);
  }
  out += std::string(",\n  \"correct\": ") + (correct ? "true" : "false") +
                    ",\n  \"machine\": {\"nproc\": " + std::to_string(m.nproc) +
                    ", \"cpu_model\": " + quoted(m.cpu_model) +
                    ", \"avx2\": " + (m.avx2 ? "true" : "false") +
                    ", \"avx512f\": " + (m.avx512f ? "true" : "false") +
                    ", \"compiler\": " + quoted(ANADEX_E2E_COMPILER) +
                    ", \"build_type\": " + quoted(ANADEX_E2E_BUILD_TYPE) +
                    ", \"cxx_flags\": " + quoted(ANADEX_E2E_CXX_FLAGS) + "}";
  return out;
}

std::string checks_json(const std::vector<Check>& checks) {
  std::string out = ",\n  \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const Check& c = checks[i];
    out += std::string(i ? ",\n" : "\n") + "    {\"workload\": " + quoted(c.workload) +
           ", \"name\": " + quoted(c.name) + ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + quoted(c.detail) + "}";
  }
  return out + "\n  ]";
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  ANADEX_REQUIRE(os.good(), "e2e_run: cannot write " + path.string());
  std::cout << "wrote " << path.string() << "\n";
}

void print_metrics(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << workload << " " << m.name << " " << num(m.value) << " " << m.unit << "\n";
  }
}

// --- timed mode -----------------------------------------------------------

bool run_timed(const Options& opt, const fs::path& work) {
  std::vector<Series> series;
  for (const auto& w : opt.workloads) {
    series.push_back(Series{w, round_seeds(w, opt.seed), {}, {}, 0.0, 0.0});
  }
  std::vector<Check> checks;
  bool children_ok = true;
  std::size_t rounds = 0;
  const auto start = Clock::now();
  for (;;) {
    for (Series& s : series) {
      children_ok = children_ok && run_round(s, work, checks);
    }
    if (!children_ok) break;
    ++rounds;
    // With --seconds the time budget alone decides, so a run lasts about
    // that long however fast the machine is at the moment.
    const double elapsed = seconds_between(start, Clock::now());
    const double per_round = elapsed / static_cast<double>(rounds);
    const bool more = opt.seconds > 0.0 ? elapsed + per_round <= opt.seconds
                                        : rounds < opt.rounds;
    if (!more) break;
  }

  std::string body;
  for (const Series& s : series) {
    if (s.runs.empty()) continue;
    check_series(s, checks);
    const std::vector<Metric> metrics = timed_metrics(s);
    print_metrics(s.workload, metrics);
    body += std::string(body.empty() ? "" : ",\n") + "    " + quoted(s.workload) +
            ": {\n      \"attempted\": " + json_num(s.attempted) +
            ",\n      \"failed\": " + json_num(s.failed) +
            ",\n      \"metrics\": " + metrics_json(metrics, "      ") +
            ",\n      \"setup_child_s\": " + samples_json(s.setup_s) +
            ",\n      \"runs\": [";
    for (std::size_t i = 0; i < s.runs.size(); ++i) {
      body += std::string(i ? ",\n" : "\n") + "        " + run_json(s.runs[i]);
    }
    body += "\n      ]\n    }";
  }
  bool correct = children_ok;
  for (const Check& c : checks) correct = correct && c.ok;
  write_file(opt.out / "BENCH_e2e.json", header_json(opt, rounds, correct) +
                                             checks_json(checks) + ",\n  \"workloads\": {\n" +
                                             body + "\n  }\n}\n");
  return correct;
}

// --- traced mode ----------------------------------------------------------

struct SpanRow {
  std::string name;
  long parent = -1;
  double t0 = 0.0;
  double t1 = 0.0;
  double busy = 0.0;
};

/// Per span name: count, total time, and self time (duration minus the
/// child spans it covers and minus the engine busy time not already
/// attributed to a child).
std::string span_summary_json(const std::vector<SpanRow>& spans) {
  std::vector<double> child_time(spans.size(), 0.0);
  std::vector<double> child_busy(spans.size(), 0.0);
  for (const SpanRow& s : spans) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
      child_busy[static_cast<std::size_t>(s.parent)] += s.busy;
    }
  }
  struct Agg {
    double count = 0, total = 0, self = 0;
  };
  std::map<std::string, Agg> agg;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRow& s = spans[i];
    Agg& a = agg[s.name];
    a.count += 1;
    a.total += s.t1 - s.t0;
    a.self += (s.t1 - s.t0) - child_time[i] - (s.busy - child_busy[i]);
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, a] : agg) {
    out += std::string(first ? "\n" : ",\n") + "        " + quoted(name) +
           ": {\"count\": " + json_num(a.count) + ", \"total_s\": " + json_num(a.total) +
           ", \"self_s\": " + json_num(a.self) + "}";
    first = false;
  }
  return out + "\n      }";
}

bool run_traced(const Options& opt, const fs::path& work) {
  std::vector<Check> checks;
  bool children_ok = true;
  std::string body;
  std::ofstream spans_out(opt.out / "BENCH_e2e_spans.jsonl");
  for (const auto& w : opt.workloads) {
    ChildRun timed = spawn_child(w, opt.seed, Pass::Timed, work);
    ChildRun traced = timed.ok ? spawn_child(w, opt.seed, Pass::Traced, work) : ChildRun{};
    if (!timed.ok || !traced.ok) {
      add_check(checks, w, "child_exit", false, timed.ok ? traced.error : timed.error);
      children_ok = false;
      continue;
    }
    const Record& rec = traced.rec;
    add_check(checks, w, "traced_matches_timed",
              rec.text("digest") == timed.rec.text("digest"),
              "traced " + rec.text("digest") + ", timed " + timed.rec.text("digest"));
    if (w == "island_shards4") {
      add_check(checks, w, "shards_match_threads4_ref",
                rec.text("ref_digest") == rec.text("digest"),
                "sharded " + rec.text("digest") + ", threads4 " + rec.text("ref_digest"));
    }
    if (w == "batch_screen") {
      add_check(checks, w, "passes_identical", rec.value("passes_identical") == 1.0,
                std::to_string(kScreenPasses) + " passes give the same results");
      add_check(checks, w, "scalar_oracle_subsample",
                rec.value("oracle_mismatched") == 0.0 && rec.value("oracle_checked") > 0.0,
                "every " + std::to_string(kScreenCheckStride) + "th genome");
    }
    if (w == "serve_drain4") {
      add_check(checks, w, "all_jobs_done", rec.value("jobs_done") == 4.0, "4 jobs end Done");
    }
    const double failed = rec.value("faults") + rec.value("failed_runs") +
                          timed.rec.value("faults") + timed.rec.value("failed_runs");
    add_check(checks, w, "no_faults", failed == 0.0, "failed " + num(failed));

    std::vector<Metric> metrics;
    for (const auto& t : rec.all("metric")) {
      metrics.push_back({t[0], parse_num(t[1]), t[2], t[3]});
    }
    metrics.push_back({"trace.overhead_frac",
                       rec.value("wall_s") / timed.rec.value("wall_s") - 1.0, "1", "lower"});
    print_metrics(w, metrics);

    std::vector<SpanRow> spans;
    for (const auto& t : rec.all("span")) {
      spans.push_back(
          {t[0], std::stol(t[1]), parse_num(t[2]), parse_num(t[3]), parse_num(t[4])});
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRow& s = spans[i];
      spans_out << "{\"workload\": " << quoted(w) << ", \"id\": " << i
                << ", \"name\": " << quoted(s.name) << ", \"parent\": " << s.parent
                << ", \"start_s\": " << json_num(s.t0) << ", \"end_s\": " << json_num(s.t1)
                << ", \"engine_busy_s\": " << json_num(s.busy) << "}\n";
    }
    body += std::string(body.empty() ? "" : ",\n") + "    " + quoted(w) +
            ": {\n      \"attempted\": " +
            json_num(rec.value("evals") + rec.value("runs") + timed.rec.value("evals") +
                     timed.rec.value("runs")) +
            ",\n      \"failed\": " + json_num(failed) +
            ",\n      \"metrics\": " + metrics_json(metrics, "      ") +
            ",\n      \"spans\": " + span_summary_json(spans) +
            ",\n      \"runs\": {\"timed\": " + run_json(timed) +
            ", \"traced\": " + run_json(traced) + "}\n    }";
  }
  bool correct = children_ok;
  for (const Check& c : checks) correct = correct && c.ok;
  std::cout << "wrote " << (opt.out / "BENCH_e2e_spans.jsonl").string() << "\n";
  write_file(opt.out / "BENCH_e2e_traced.json",
             header_json(opt, std::nullopt, correct) + checks_json(checks) +
                 ",\n  \"workloads\": {\n" + body + "\n  }\n}\n");
  return correct;
}

int usage() {
  std::cerr << "usage: e2e_run [--workload all|paper_mesacga|batch_screen|serve_drain4|"
               "island_shards4] [--seed S] [--rounds R] [--seconds T] [--traced] "
               "[--out DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto entry = Clock::now();
  try {
    if (argc > 1 && std::string(argv[1]) == "--child") return child_main(argc, argv, entry);

    Options opt;
    std::string workload = "all";
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--workload" && has_value) {
        workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (arg == "--rounds" && has_value) {
        opt.rounds = std::stoul(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (arg == "--out" && has_value) {
        opt.out = argv[++i];
      } else if (arg == "--traced") {
        opt.traced = true;
      } else {
        return usage();
      }
    }
    for (const auto name : kWorkloads) {
      if (workload == "all" || workload == name) opt.workloads.emplace_back(name);
    }
    if (opt.workloads.empty() || opt.rounds == 0) return usage();

    fs::create_directories(opt.out);
    const fs::path work = opt.out / "e2e_work";
    fs::remove_all(work);
    fs::create_directories(work);
    const bool ok = opt.traced ? run_traced(opt, work) : run_timed(opt, work);
    fs::remove_all(work);
    std::cout << (ok ? "e2e_run: all checks passed\n" : "e2e_run: CHECKS FAILED\n");
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "e2e_run: " << e.what() << "\n";
    return 1;
  }
}
