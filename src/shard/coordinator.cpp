#include "shard/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/textio.hpp"
#include "moga/metrics.hpp"
#include "moga/nsga2.hpp"
#include "robust/checkpoint.hpp"
#include "shard/migrants.hpp"
#include "shard/topology.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define ANADEX_SHARD_HAVE_FORK 1
#else
#define ANADEX_SHARD_HAVE_FORK 0
#endif

namespace anadex::shard {

namespace {

namespace fs = std::filesystem;

/// True for files this subsystem owns inside the spool: migrant files,
/// partial chains (+ rotated slots and temps), finals and stats.
bool is_shard_artifact(const std::string& name) {
  if (name.rfind("shard", 0) == 0) return true;
  return name.rfind("epoch", 0) == 0 && name.find(".mig") != std::string::npos;
}

/// Removes spool artifacts, optionally keeping the migrant files (a resume
/// from intact partials replays against the original exchange history).
void wipe_spool(const fs::path& dir, bool keep_migrants) {
  std::vector<fs::path> doomed;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!is_shard_artifact(name)) continue;
    if (keep_migrants && name.rfind("epoch", 0) == 0) continue;
    doomed.push_back(entry.path());
  }
  std::sort(doomed.begin(), doomed.end());
  for (const auto& path : doomed) fs::remove(path);
}

/// Removes only the completion signals; stale finals/stats must never
/// satisfy a new run.
void wipe_completion_artifacts(const fs::path& dir, std::size_t shards) {
  for (std::size_t k = 0; k < shards; ++k) {
    std::error_code ec;
    fs::remove(dir / shard_final_name(k), ec);
    fs::remove(dir / shard_stats_name(k), ec);
  }
}

struct StartPlan {
  bool resumed = false;
  std::size_t resumed_generation = 0;
  std::string resumed_path;
};

/// Decides how the shards start (fresh / own partials / re-sliced canonical
/// checkpoint) and prepares the spool accordingly.
StartPlan prepare_spool(const expt::RunSettings& settings, const Topology& topo,
                        const fs::path& dir, bool fsync) {
  wipe_completion_artifacts(dir, topo.shards);
  if (settings.resume == expt::ResumeMode::Off) {
    wipe_spool(dir, /*keep_migrants=*/false);
    return {};
  }

  // First preference: every shard's own partial chain is intact for THIS
  // topology (meta carries the shard-salted digest). The partials are at
  // least as new as any canonical snapshot of the same run, and the
  // workers' built-in auto-resume picks them up untouched.
  bool partials_ok = true;
  std::size_t newest = 0, oldest = SIZE_MAX;
  for (std::size_t k = 0; k < topo.shards && partials_ok; ++k) {
    const auto recovered =
        robust::recover_checkpoint((dir / shard_checkpoint_name(k)).string());
    if (!recovered.has_value() || !recovered->checkpoint.island.has_value() ||
        recovered->checkpoint.meta.config != shard_config_digest(settings, topo, k) ||
        recovered->checkpoint.meta.seed != settings.seed ||
        recovered->checkpoint.island->islands.size() != topo.islands_of(k).size()) {
      partials_ok = false;
      break;
    }
    newest = std::max(newest, recovered->checkpoint.island->next_generation);
    oldest = std::min(oldest, recovered->checkpoint.island->next_generation);
  }
  if (partials_ok && settings.resume == expt::ResumeMode::Auto) {
    StartPlan plan;
    plan.resumed = oldest > 0;
    plan.resumed_generation = oldest;
    plan.resumed_path = (dir / shard_checkpoint_name(0)).string();
    return plan;
  }

  // Second preference: the canonical checkpoint chain. Its state covers the
  // FULL island ring, so it can be re-sliced for the current topology — a
  // checkpoint written at 2 shards seeds a 4-shard resume.
  robust::Checkpoint canonical;
  std::string canonical_path;
  if (settings.resume == expt::ResumeMode::Strict) {
    canonical = robust::read_checkpoint_file(settings.checkpoint_path);
    canonical_path = settings.checkpoint_path;
  } else {
    auto recovered = robust::recover_checkpoint(settings.checkpoint_path);
    if (!recovered.has_value()) {
      wipe_spool(dir, /*keep_migrants=*/false);
      return {};  // Auto with nothing usable: start fresh
    }
    canonical = std::move(recovered->checkpoint);
    canonical_path = recovered->path;
  }

  robust::CheckpointMeta solo_meta;
  solo_meta.algo = expt::algo_name(settings.algo);
  solo_meta.seed = settings.seed;
  solo_meta.population = settings.population;
  solo_meta.generations = settings.generations;
  solo_meta.config = expt::run_config_digest(settings);
  ANADEX_REQUIRE(canonical.meta == solo_meta,
                 "sharded resume: canonical checkpoint '" + canonical_path +
                     "' was written by a different run configuration");
  ANADEX_REQUIRE(canonical.island.has_value(),
                 "sharded resume: canonical checkpoint '" + canonical_path +
                     "' holds no island state (wrong algorithm?)");
  const sacga::IslandState& whole = *canonical.island;
  ANADEX_REQUIRE(whole.islands.size() == topo.islands &&
                     whole.rngs.size() == topo.islands,
                 "sharded resume: canonical island count does not match --islands");

  // Re-slice: every shard gets its owned islands (+ their RNG streams) and
  // the shard-local counter shares; the full fault report rides with shard
  // 0 so the eventual merge reproduces solo totals exactly once.
  wipe_spool(dir, /*keep_migrants=*/false);
  robust::CheckpointWriteOptions seed_options;
  seed_options.fsync = fsync;
  for (std::size_t k = 0; k < topo.shards; ++k) {
    robust::Checkpoint partial;
    partial.meta = solo_meta;
    partial.meta.config = shard_config_digest(settings, topo, k);
    if (k == 0) partial.faults = canonical.faults;
    sacga::IslandState slice;
    for (std::size_t island : topo.islands_of(k)) {
      slice.islands.push_back(whole.islands[island]);
      slice.rngs.push_back(whole.rngs[island]);
    }
    slice.next_generation = whole.next_generation;
    slice.migrations = whole.migrations;
    // Evaluation counters: the solo total splits as "shard 0 carries the
    // remainder". Any split summing to the total merges back identically;
    // this one is deterministic and topology-independent to re-slice.
    slice.evaluations = (k == 0) ? whole.evaluations : 0;
    partial.island = std::move(slice);
    robust::write_checkpoint_file((dir / shard_checkpoint_name(k)).string(), partial,
                                  seed_options);
  }
  StartPlan plan;
  plan.resumed = true;
  plan.resumed_generation = whole.next_generation;
  plan.resumed_path = canonical_path;
  return plan;
}

WorkerContext make_context(const expt::RunSettings& settings, const Topology& topo,
                           std::size_t shard, const fs::path& dir,
                           const ShardOptions& options, bool first_life) {
  WorkerContext ctx;
  ctx.settings = settings;
  ctx.topology = topo;
  ctx.shard = shard;
  ctx.dir = dir;
  ctx.poll = options.poll;
  ctx.stop_after_epoch = options.stop_after_epoch;
  ctx.fsync = options.fsync;
  if (first_life) ctx.chaos = options.chaos;
  return ctx;
}

void run_workers_in_threads(const problems::IntegratorProblem& problem,
                            const expt::RunSettings& settings, const Topology& topo,
                            const fs::path& dir, const ShardOptions& options) {
  std::vector<std::string> errors(topo.shards);
  std::mutex io_mutex;
  {
    std::vector<std::thread> supervisors;
    supervisors.reserve(topo.shards);
    for (std::size_t k = 0; k < topo.shards; ++k) {
      supervisors.emplace_back([&, k] {
        for (std::size_t life = 0;; ++life) {
          try {
            run_shard_worker(problem,
                             make_context(settings, topo, k, dir, options, life == 0));
            return;
          } catch (const std::exception& e) {
            if (life >= options.max_restarts_per_shard) {
              errors[k] = e.what();
              return;
            }
            const std::lock_guard<std::mutex> lock(io_mutex);
            std::cout << "restarted shard " << k << " (attempt " << (life + 1) << "/"
                      << options.max_restarts_per_shard << ") after: " << e.what()
                      << "\n";
          }
        }
      });
    }
    for (auto& t : supervisors) t.join();
  }
  for (std::size_t k = 0; k < topo.shards; ++k) {
    ANADEX_REQUIRE(errors[k].empty(), "shard " + std::to_string(k) +
                                          " failed past its restart budget: " +
                                          errors[k]);
  }
}

#if ANADEX_SHARD_HAVE_FORK

std::vector<std::string> worker_argv(const expt::RunSettings& settings,
                                     const fs::path& dir, std::size_t shard,
                                     const ShardOptions& options,
                                     const std::string& binary) {
  std::vector<std::string> argv{binary, "shard-worker"};
  const auto add = [&argv](const std::string& key, const std::string& value) {
    argv.push_back("--" + key);
    argv.push_back(value);
  };
  add("dir", dir.string());
  add("shard", std::to_string(shard));
  add("shards", std::to_string(settings.shards));
  add("spec", options.spec_arg);
  add("population", std::to_string(settings.population));
  add("generations", std::to_string(settings.generations));
  add("partitions", std::to_string(settings.partitions));
  add("islands", std::to_string(settings.islands));
  add("migration-interval", std::to_string(settings.migration_interval));
  add("seed", std::to_string(settings.seed));
  add("threads", std::to_string(settings.threads));
  add("eval-cache", std::to_string(settings.eval_cache));
  add("batch-eval", engine::to_string(settings.batch_eval));
  add("checkpoint-every", std::to_string(settings.checkpoint_every));
  add("checkpoint-keep", std::to_string(settings.checkpoint_keep));
  if (settings.eval_deadline_s.has_value()) {
    add("eval-deadline", textio::exact(*settings.eval_deadline_s));
  }
  return argv;
}

pid_t spawn_worker(const std::vector<std::string>& argv_strings) {
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const auto& arg : argv_strings) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  ANADEX_REQUIRE(pid >= 0, "fork failed for shard worker");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    // Only reached when exec failed; the child must die without running the
    // parent's destructors or buffered IO.
    ::_exit(127);  // anadex-lint: allow(process-control)
  }
  return pid;
}

void run_workers_in_processes(const expt::RunSettings& settings, const Topology& topo,
                              const fs::path& dir, const ShardOptions& options) {
  ANADEX_REQUIRE(!options.spec_arg.empty(),
                 "process shard mode needs ShardOptions::spec_arg (the CLI "
                 "--spec value) so workers can rebuild the problem");
  ANADEX_REQUIRE(!settings.fault_injection.has_value() &&
                     !settings.checkpoint_write_hook,
                 "process shard mode cannot forward fault-injection configs "
                 "or write hooks across exec; use thread mode");
  const robust::GuardPolicy defaults;
  ANADEX_REQUIRE(settings.guard.max_retries == defaults.max_retries &&
                     settings.guard.perturbation == defaults.perturbation &&
                     settings.guard.penalty_objective == defaults.penalty_objective &&
                     settings.guard.penalty_violation == defaults.penalty_violation &&
                     settings.guard.seed == defaults.seed,
                 "process shard mode cannot forward a non-default guard "
                 "policy across exec; use thread mode");

  std::string binary = options.worker_binary;
  if (binary.empty()) {
    std::error_code ec;
    binary = fs::read_symlink("/proc/self/exe", ec).string();
    ANADEX_REQUIRE(!ec && !binary.empty(),
                   "cannot resolve /proc/self/exe for the worker binary; set "
                   "ShardOptions::worker_binary");
  }

  std::map<pid_t, std::size_t> children;  // ordered: deterministic cleanup
  std::vector<std::size_t> restarts(topo.shards, 0);
  for (std::size_t k = 0; k < topo.shards; ++k) {
    const pid_t pid = spawn_worker(worker_argv(settings, dir, k, options, binary));
    children.emplace(pid, k);
  }
  while (!children.empty()) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    ANADEX_REQUIRE(pid > 0, "waitpid failed while supervising shard workers");
    const auto it = children.find(pid);
    if (it == children.end()) continue;  // not ours
    const std::size_t k = it->second;
    children.erase(it);
    const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const bool finished = clean_exit && fs::exists(dir / shard_final_name(k));
    if (finished) continue;
    ANADEX_REQUIRE(restarts[k] < options.max_restarts_per_shard,
                   "shard " + std::to_string(k) +
                       " failed past its restart budget (last status " +
                       std::to_string(status) + ")");
    ++restarts[k];
    std::cout << "restarted shard " << k << " (attempt " << restarts[k] << "/"
              << options.max_restarts_per_shard << ") after worker pid "
              << static_cast<long long>(pid) << " died (status " << status << ")\n";
    const pid_t again = spawn_worker(worker_argv(settings, dir, k, options, binary));
    children.emplace(again, k);
  }
}

#endif  // ANADEX_SHARD_HAVE_FORK

/// Reads "anadex-shard-stats v1\nstats <requested> <distinct> <hits>".
void accumulate_stats(const fs::path& path, expt::RunOutcome& outcome) {
  std::ifstream is(path);
  ANADEX_REQUIRE(is.good(), "missing shard stats file '" + path.string() + "'");
  textio::LineReader reader(is);
  const std::string header = reader.line("header");
  ANADEX_REQUIRE(header == "anadex-shard-stats v1",
                 "bad shard stats header in '" + path.string() + "'");
  const auto toks = reader.record("stats", 3);
  outcome.distinct_evaluations += textio::parse_u64(toks[2]);
  outcome.cache_hits += textio::parse_u64(toks[3]);
}

}  // namespace

fs::path resolve_shard_dir(const expt::RunSettings& settings) {
  if (!settings.shard_dir.empty()) return fs::path(settings.shard_dir);
  ANADEX_REQUIRE(!settings.checkpoint_path.empty(),
                 "sharded run: set shard_dir (--shard-dir) or checkpoint_path "
                 "(--checkpoint) to locate the exchange spool");
  return fs::path(settings.checkpoint_path + ".spool");
}

expt::RunOutcome run_sharded(const problems::IntegratorProblem& problem,
                             const expt::RunSettings& settings,
                             const ShardOptions& options) {
  expt::validate_run_settings(settings);
  ANADEX_REQUIRE(settings.algo == expt::Algo::Island,
                 "run_sharded: sharded execution supports the island "
                 "algorithm only (--algo island)");
  ANADEX_REQUIRE(settings.shards >= 1, "run_sharded: shards must be >= 1");
  ANADEX_REQUIRE(!settings.on_generation && settings.stop == nullptr,
                 "run_sharded: per-generation callbacks and stop tokens are "
                 "process-local and cannot span shards; interrupt the run and "
                 "--resume auto instead");
  ANADEX_REQUIRE(!settings.record_history && settings.trace_path.empty(),
                 "run_sharded: history/tracing sample the global population, "
                 "which no single shard holds");
  if (options.stop_after_epoch > 0 || options.chaos.has_value()) {
    ANADEX_REQUIRE(options.mode == LaunchMode::Threads,
                   "run_sharded: stop_after_epoch/chaos are thread-mode test "
                   "seams");
  }

  const auto start = std::chrono::steady_clock::now();
  const Topology topo =
      Topology::make(settings.islands, settings.shards, settings.seed);
  const fs::path dir = resolve_shard_dir(settings);
  fs::create_directories(dir);
  const StartPlan plan = prepare_spool(settings, topo, dir, options.fsync);

  if (options.mode == LaunchMode::Threads) {
    run_workers_in_threads(problem, settings, topo, dir, options);
  } else {
#if ANADEX_SHARD_HAVE_FORK
    run_workers_in_processes(settings, topo, dir, options);
#else
    ANADEX_REQUIRE(false,
                   "process shard mode requires fork/exec (unix); use thread "
                   "mode on this platform");
#endif
  }

  // Merge. Completed runs read the shard finals; an epoch-stopped run (test
  // seam) reads the partial chains, every one parked at the stop barrier.
  const bool interrupted = options.stop_after_epoch > 0;
  sacga::IslandState merged;
  merged.islands.resize(topo.islands);
  merged.rngs.resize(topo.islands);
  robust::FaultReport merged_faults;
  expt::RunOutcome outcome;
  bool first_shard = true;
  std::size_t migrations = 0;
  for (std::size_t k = 0; k < topo.shards; ++k) {
    robust::Checkpoint cp;
    if (interrupted) {
      auto recovered =
          robust::recover_checkpoint((dir / shard_checkpoint_name(k)).string());
      ANADEX_REQUIRE(recovered.has_value(),
                     "shard " + std::to_string(k) + " left no partial checkpoint");
      cp = std::move(recovered->checkpoint);
    } else {
      cp = robust::read_checkpoint_file((dir / shard_final_name(k)).string());
    }
    ANADEX_REQUIRE(cp.meta.config == shard_config_digest(settings, topo, k),
                   "shard " + std::to_string(k) +
                       " state belongs to a different run configuration");
    ANADEX_REQUIRE(cp.island.has_value(), "shard state holds no island block");
    sacga::IslandState& state = *cp.island;
    const std::vector<std::size_t> owned = topo.islands_of(k);
    ANADEX_REQUIRE(state.islands.size() == owned.size() &&
                       state.rngs.size() == owned.size(),
                   "shard state island count does not match the topology");
    for (std::size_t i = 0; i < owned.size(); ++i) {
      merged.islands[owned[i]] = std::move(state.islands[i]);
      merged.rngs[owned[i]] = state.rngs[i];
    }
    if (first_shard) {
      merged.next_generation = state.next_generation;
      migrations = state.migrations;
      first_shard = false;
    } else {
      ANADEX_REQUIRE(state.next_generation == merged.next_generation &&
                         state.migrations == migrations,
                     "shard states disagree on the generation barrier — the "
                     "spool mixes runs; wipe it and restart");
    }
    merged.evaluations += state.evaluations;
    merged_faults.merge(cp.faults);
    if (!interrupted) accumulate_stats(dir / shard_stats_name(k), outcome);
  }
  merged.migrations = migrations;

  // Epilogue — the math of a solo run's outcome (RunBase::outcome_at in
  // expt/runner.cpp) over the reassembled global population, so every
  // derived metric matches the solo run.
  moga::Population combined;
  for (const auto& island : merged.islands) {
    combined.insert(combined.end(), island.begin(), island.end());
  }
  const moga::Population front = moga::extract_global_front(combined);
  outcome.front = expt::to_front_samples(front);
  std::sort(outcome.front.begin(), outcome.front.end(),
            [](const expt::FrontSample& a, const expt::FrontSample& b) {
              return a.cload_f < b.cload_f;
            });
  outcome.front_area = expt::front_area_of(outcome.front);
  outcome.hypervolume_norm = expt::hypervolume_of(outcome.front);
  std::vector<double> loads;
  loads.reserve(outcome.front.size());
  for (const auto& sample : outcome.front) loads.push_back(sample.cload_f);
  outcome.clustering_4to5 = moga::clustering_fraction(loads, 4e-12, 5e-12);
  if (!loads.empty()) {
    const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
    outcome.load_span_pf = (*hi - *lo) * 1e12;
  }
  outcome.evaluations = merged.evaluations;
  outcome.generations = merged.next_generation;
  outcome.faults = merged_faults;
  outcome.interrupted = interrupted;
  outcome.resumed_from_generation = plan.resumed ? plan.resumed_generation : 0;
  if (plan.resumed) outcome.resumed_from_path = plan.resumed_path;

  // Canonical checkpoint: the UNSALTED solo digest over the merged state —
  // byte-identical to the solo run's final slot, resumable solo or sharded
  // at any shard count.
  if (!settings.checkpoint_path.empty()) {
    robust::Checkpoint canonical;
    canonical.meta.algo = expt::algo_name(settings.algo);
    canonical.meta.seed = settings.seed;
    canonical.meta.population = settings.population;
    canonical.meta.generations = settings.generations;
    canonical.meta.config = expt::run_config_digest(settings);
    canonical.faults = merged_faults;
    canonical.island = std::move(merged);
    robust::CheckpointWriteOptions cp_options;
    cp_options.keep = settings.checkpoint_keep;
    cp_options.fsync = options.fsync;
    robust::write_checkpoint_file(settings.checkpoint_path, canonical, cp_options);
  }

  outcome.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return outcome;
}

expt::RunOutcome run_sharded(const expt::RunSettings& settings,
                             const ShardOptions& options) {
  const problems::IntegratorProblem problem(settings.spec);
  return run_sharded(problem, settings, options);
}

}  // namespace anadex::shard
