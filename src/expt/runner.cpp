#include "expt/runner.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/textio.hpp"
#include "engine/evolver_common.hpp"
#include "expt/job.hpp"
#include "expt/settings_registry.hpp"
#include "moga/nsga2.hpp"
#include "moga/scalarize.hpp"
#include "moga/spea2.hpp"
#include "obs/jsonl_writer.hpp"
#include "problems/spec_suite.hpp"
#include "robust/checkpoint.hpp"
#include "sacga/island.hpp"
#include "sacga/local_only.hpp"
#include "sacga/mesacga.hpp"
#include "sacga/sacga.hpp"
#include "scint/batch_integrator.hpp"

namespace anadex::expt {

namespace {

using Clock = std::chrono::steady_clock;

/// Reference box for the normalized hypervolume: power up to 1.2 mW,
/// transformed load axis up to 5.1 pF (slightly beyond the explored box so
/// extreme points still contribute).
constexpr double kHvPowerRef = 1.2e-3;
constexpr double kHvAxisRef = 5.1e-12;

/// Per-type digest serializers: one `put` overload per DIGEST-row field
/// type, each emitting " tag=value" with a canonical, locale-free value
/// spelling (textio::exact for doubles — resume compares the digest
/// verbatim, so the encoding must be bit-faithful and stable). Empty
/// optionals emit nothing, preserving the historical "no chaos = no chaos
/// key" wire format.
class DigestWriter {
 public:
  void put(const char* tag, std::size_t v) { key(tag) << v; }
  void put(const char* tag, bool v) { key(tag) << (v ? 1 : 0); }
  void put(const char* tag, const std::vector<std::size_t>& v) {
    auto& os = key(tag);
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) os << ',';
      os << v[i];
    }
  }
  void put(const char* tag, const scint::Spec& spec) {
    // The spec defines what "satisfies" means, so resuming under a
    // different one would keep the old population but change selection —
    // every limit participates. The name rides along for diagnostics.
    key(tag) << spec.name << ',' << textio::exact(spec.dr_min_db) << ','
             << textio::exact(spec.or_min) << ',' << textio::exact(spec.st_max)
             << ',' << textio::exact(spec.se_max) << ','
             << textio::exact(spec.robustness_min) << ','
             << textio::exact(spec.area_max) << ','
             << textio::exact(spec.balance_max) << ','
             << textio::exact(spec.vov_min);
  }
  void put(const char* tag, const robust::GuardPolicy& g) {
    // Retry/penalty policy shapes the objective values a faulty evaluation
    // leaves in the population.
    key(tag) << g.max_retries << ',' << textio::exact(g.perturbation) << ','
             << textio::exact(g.penalty_objective) << ','
             << textio::exact(g.penalty_violation) << ',' << g.seed;
  }
  void put(const char* tag,
           const std::optional<robust::FaultInjectionConfig>& fi) {
    // Chaos faults change results, so a chaotic checkpoint must not resume
    // under different rates (or under no chaos at all).
    if (!fi.has_value()) return;
    key(tag) << fi->seed << ',' << textio::exact(fi->exception_rate) << ','
             << textio::exact(fi->nan_rate) << ',' << textio::exact(fi->slow_rate)
             << ',' << fi->slow_spin_iterations;
  }

  std::string str() const { return os_.str(); }

 private:
  std::ostream& key(const char* tag) {
    if (!first_) os_ << ' ';
    first_ = false;
    os_ << tag << '=';
    return os_;
  }

  std::ostringstream os_;
  bool first_ = true;
};

/// Expands every registry row into a member access, so the registry and
/// the RunSettings struct cannot drift: a field renamed or removed without
/// its registry row fails to compile right here. The converse direction —
/// a field ADDED without a row — is textual, so the Python side owns it
/// (`anadex-lint --digest-audit`). Called (as a no-op) from
/// validate_run_settings to keep it anchored in always-built code.
inline void settings_registry_static_check(const RunSettings& s) {
#define ANADEX_CHECK_META(field, flag) (void)s.field;
#define ANADEX_CHECK_DIGEST(field, tag, flag) (void)s.field;
#define ANADEX_CHECK_KNOB(field, flag) (void)s.field;
#define ANADEX_CHECK_SEAM(field) (void)s.field;
  ANADEX_RUN_SETTINGS_REGISTRY(ANADEX_CHECK_META, ANADEX_CHECK_DIGEST,
                               ANADEX_CHECK_KNOB, ANADEX_CHECK_SEAM)
#undef ANADEX_CHECK_META
#undef ANADEX_CHECK_DIGEST
#undef ANADEX_CHECK_KNOB
#undef ANADEX_CHECK_SEAM
}

}  // namespace

/// Generated from the settings registry: every DIGEST row becomes one
/// " tag=value" entry, in registry order (the wire order). Compared
/// verbatim on resume, so a checkpoint cannot silently continue under a
/// different configuration. KNOB rows (`threads`, `eval_cache`,
/// `batch_eval`, the engine handle, `shards`/`shard_dir`, ...) are
/// deliberately NOT part of the digest: results are invariant under all of
/// them (pure execution knobs — the SIMD lane path is bit-identical to the
/// scalar oracle, the sharded merge to the solo run), so a run may be
/// checkpointed under one setting and resumed under another — including a
/// checkpoint written at 2 shards resumed at 4.
std::string run_config_digest(const RunSettings& s) {
  DigestWriter w;
#define ANADEX_DIGEST_META(field, flag)
#define ANADEX_DIGEST_DIGEST(field, tag, flag) w.put(tag, s.field);
#define ANADEX_DIGEST_KNOB(field, flag)
#define ANADEX_DIGEST_SEAM(field)
  ANADEX_RUN_SETTINGS_REGISTRY(ANADEX_DIGEST_META, ANADEX_DIGEST_DIGEST,
                               ANADEX_DIGEST_KNOB, ANADEX_DIGEST_SEAM)
#undef ANADEX_DIGEST_META
#undef ANADEX_DIGEST_DIGEST
#undef ANADEX_DIGEST_KNOB
#undef ANADEX_DIGEST_SEAM
  return w.str();
}

void validate_run_settings(const RunSettings& s) {
  settings_registry_static_check(s);
  ANADEX_REQUIRE(s.population >= 4 && s.population % 2 == 0,
                 "run settings: population must be even and >= 4");
  ANADEX_REQUIRE(s.generations >= 1, "run settings: generations must be >= 1");
  // 0 means "one per hardware thread"; an explicit count is capped so a
  // typo (e.g. threads=10000) cannot exhaust the process thread limit.
  ANADEX_REQUIRE(s.threads <= engine::kMaxThreads,
                 "run settings: threads must be <= " + std::to_string(engine::kMaxThreads));
  if (s.record_history) {
    ANADEX_REQUIRE(s.history_stride > 0,
                   "run settings: history_stride must be > 0 when record_history is set");
  }
  if (s.algo == Algo::LocalOnly || s.algo == Algo::SACGA) {
    ANADEX_REQUIRE(s.partitions >= 1, "run settings: partitions must be >= 1");
  }
  if (s.algo == Algo::MESACGA) {
    const auto& sched = s.mesacga_schedule;
    ANADEX_REQUIRE(!sched.empty(), "run settings: MESACGA schedule must be non-empty");
    ANADEX_REQUIRE(sched.back() == 1,
                   "run settings: MESACGA schedule must end with a single partition");
    for (std::size_t i = 0; i + 1 < sched.size(); ++i) {
      ANADEX_REQUIRE(sched[i] > sched[i + 1],
                     "run settings: MESACGA schedule must be strictly decreasing");
    }
  }
  // Sharding (docs/sharding.md). Checked before the per-algorithm blocks so
  // a degenerate shard config gets the shard-specific message.
  ANADEX_REQUIRE(s.shards >= 1 && s.shards <= 64,
                 "run settings: shards must be in [1, 64]");
  if (s.shards > 1) {
    ANADEX_REQUIRE(s.algo == Algo::Island,
                   "run settings: --shards > 1 requires the island algorithm "
                   "(--algo island); only the island ring partitions across "
                   "processes");
    ANADEX_REQUIRE(s.shards <= s.islands,
                   "run settings: shards must not exceed islands (every shard "
                   "needs at least one island to run)");
    ANADEX_REQUIRE(s.migration_interval >= 1,
                   "run settings: migration_interval must be >= 1 when "
                   "shards > 1 (the migrant exchange is the shard barrier)");
    ANADEX_REQUIRE(!s.shard_dir.empty() || !s.checkpoint_path.empty(),
                   "run settings: a sharded run needs --shard-dir or "
                   "--checkpoint to locate the exchange spool");
    ANADEX_REQUIRE(!s.record_history,
                   "run settings: record_history is unsupported with "
                   "shards > 1 (history samples the global population, which "
                   "no single shard holds)");
    ANADEX_REQUIRE(s.trace_path.empty(),
                   "run settings: tracing is unsupported with shards > 1 "
                   "(gen-level traces sample the global population)");
    ANADEX_REQUIRE(!s.engine.shared(),
                   "run settings: a shared engine handle cannot span shard "
                   "processes; each shard builds its own engine");
  }
  if (s.algo == Algo::Island) {
    ANADEX_REQUIRE(s.islands >= 2, "run settings: island GA needs >= 2 islands");
    ANADEX_REQUIRE(s.population / s.islands >= 4,
                   "run settings: each island needs >= 4 members");
    ANADEX_REQUIRE(s.migration_interval >= 1,
                   "run settings: migration_interval must be >= 1");
  }
  if (s.algo == Algo::WeightedSum) {
    ANADEX_REQUIRE(s.weight_count >= 1, "run settings: weight_count must be >= 1");
  }
  if (!s.checkpoint_path.empty()) {
    ANADEX_REQUIRE(s.checkpoint_every > 0, "run settings: checkpoint_every must be > 0");
    ANADEX_REQUIRE(s.algo != Algo::WeightedSum,
                   "run settings: checkpointing is not supported for WeightedSum");
  }
  if (s.resume != ResumeMode::Off) {
    ANADEX_REQUIRE(!s.checkpoint_path.empty(),
                   "run settings: resume requires a checkpoint path");
  }
  ANADEX_REQUIRE(s.checkpoint_keep >= 1 && s.checkpoint_keep <= 100,
                 "run settings: checkpoint_keep must be in [1, 100]");

  // Guard-policy sanity: these are user-reachable knobs (CLI, sweep
  // configs), so a NaN penalty or an absurd retry count must fail here, at
  // startup, not corrupt selection hours into a run.
  ANADEX_REQUIRE(s.guard.max_retries <= 1000,
                 "run settings: guard max_retries must be <= 1000");
  ANADEX_REQUIRE(std::isfinite(s.guard.perturbation) && s.guard.perturbation > 0.0,
                 "run settings: guard perturbation must be finite and > 0");
  ANADEX_REQUIRE(std::isfinite(s.guard.penalty_objective),
                 "run settings: guard penalty_objective must be finite (not NaN/inf)");
  ANADEX_REQUIRE(std::isfinite(s.guard.penalty_violation),
                 "run settings: guard penalty_violation must be finite (not NaN/inf)");
  if (s.eval_deadline_s.has_value()) {
    ANADEX_REQUIRE(std::isfinite(*s.eval_deadline_s) && *s.eval_deadline_s > 0.0,
                   "run settings: eval deadline must be finite and > 0 seconds");
    // A per-run deadline is armed by the engine the run owns; on a shared
    // hub the deadline is the hub's to enforce, so Job admission rejects
    // the request rather than set a deadline that no engine of this run
    // would ever arm.
    ANADEX_REQUIRE(!s.engine.shared(),
                   "run settings: eval_deadline_s is unsupported with a shared "
                   "engine handle (configure the deadline on the hub)");
  }
  if (!s.trace_path.empty()) {
    // Fail before the run starts, not after hours of optimization when the
    // writer first tries to open the file.
    const std::filesystem::path parent =
        std::filesystem::path(s.trace_path).parent_path();
    ANADEX_REQUIRE(parent.empty() || std::filesystem::is_directory(parent),
                   "run settings: trace path parent directory does not exist: '" +
                       parent.string() + "'");
  }
}

std::string algo_name(Algo algo) {
  switch (algo) {
    case Algo::TPG: return "TPG(NSGA-II)";
    case Algo::LocalOnly: return "LocalOnly";
    case Algo::SACGA: return "SACGA";
    case Algo::MESACGA: return "MESACGA";
    case Algo::Island: return "IslandGA";
    case Algo::WeightedSum: return "WeightedSum";
    case Algo::SPEA2: return "SPEA2";
  }
  ANADEX_ASSERT(false, "unknown algorithm");
  return {};
}

Algo parse_algo(std::string_view name, std::string_view context) {
  static constexpr std::pair<std::string_view, Algo> kNames[] = {
      {"tpg", Algo::TPG},          {"nsga2", Algo::TPG},       {"localonly", Algo::LocalOnly},
      {"sacga", Algo::SACGA},      {"mesacga", Algo::MESACGA}, {"island", Algo::Island},
      {"wsum", Algo::WeightedSum}, {"spea2", Algo::SPEA2}};
  for (const auto& [known, algo] : kNames) {
    if (known == name) return algo;
  }
  ANADEX_REQUIRE(false, std::string(context) + "unknown algo \"" + std::string(name) +
                            "\" (expected tpg|nsga2|localonly|sacga|mesacga|island|"
                            "wsum|spea2)");
  return Algo::TPG;
}

scint::Spec parse_spec(std::string_view name, std::string_view context) {
  if (name == "chosen") return problems::chosen_spec();
  const std::vector<scint::Spec> suite = problems::spec_suite();
  std::size_t index = 0;
  const char* last = name.data() + name.size();
  const auto [end, error] = std::from_chars(name.data(), last, index);
  ANADEX_REQUIRE(error == std::errc{} && end == last,
                 std::string(context) +
                     "\"spec\" must be \"chosen\" or a suite index, not \"" +
                     std::string(name) + "\"");
  ANADEX_REQUIRE(index >= 1 && index <= suite.size(),
                 std::string(context) + "\"spec\" index must be in 1.." +
                     std::to_string(suite.size()));
  return suite[index - 1];
}

std::vector<FrontSample> to_front_samples(const moga::Population& front) {
  std::vector<FrontSample> samples;
  samples.reserve(front.size());
  for (const auto& ind : front) {
    ANADEX_REQUIRE(ind.eval.objectives.size() == 2, "front must be two-objective");
    FrontSample s;
    s.power_w = ind.eval.objectives[0];
    s.cload_f = problems::kLoadMax - ind.eval.objectives[1];
    samples.push_back(s);
  }
  return samples;
}

double front_area_of(const std::vector<FrontSample>& front) {
  std::vector<double> cost;
  std::vector<double> cover;
  cost.reserve(front.size());
  cover.reserve(front.size());
  for (const auto& s : front) {
    cost.push_back(s.power_w);
    cover.push_back(s.cload_f);
  }
  return moga::front_area_metric(cost, cover, moga::FrontAreaParams{});
}

double hypervolume_of(const std::vector<FrontSample>& front) {
  moga::FrontPoints points;
  points.reserve(front.size());
  for (const auto& s : front) {
    points.push_back({s.power_w, problems::kLoadMax - s.cload_f});
  }
  const std::vector<double> ref{kHvPowerRef, kHvAxisRef};
  return moga::hypervolume(points, ref) / (kHvPowerRef * kHvAxisRef);
}

sacga::IslandParams detail::island_params_from(const RunSettings& settings) {
  sacga::IslandParams params;
  params.islands = settings.islands;
  params.island_population =
      std::max<std::size_t>((settings.population / settings.islands) & ~1ULL, 4);
  params.generations = settings.generations;
  params.migration_interval = settings.migration_interval;
  return params;
}

namespace detail {
namespace {

double front_hypervolume(const moga::Population& front) {
  return hypervolume_of(to_front_samples(front));
}

/// The chaos seam: `problem` behind a deterministic fault injector when the
/// settings ask for one. The injector's slow-spin path polls `cancel`.
std::shared_ptr<const moga::Problem> with_chaos(std::shared_ptr<const moga::Problem> problem,
                                                const RunSettings& s,
                                                const CancelToken* cancel) {
  if (!s.fault_injection.has_value()) return problem;
  auto injector =
      std::make_shared<robust::FaultInjectingProblem>(std::move(problem), *s.fault_injection);
  injector->set_cancel_token(cancel);
  return injector;
}

}  // namespace

// Every evaluation flows through the fault guard, which keeps the problem
// alive. Clean evaluators pass through untouched, so guarded runs are
// bit-identical to unguarded ones. The watchdog token is shared between the
// engine (which arms its deadline around each batch), the guard (fail-fast
// poller) and the injector's cooperative slow-spin path.
EvalStack::EvalStack(std::shared_ptr<const moga::Problem> problem, const RunSettings& s,
                     obs::EventSink* sink)
    : guarded_(with_chaos(std::move(problem), s,
                          s.eval_deadline_s.has_value() ? &cancel_ : nullptr),
               s.guard),
      handle_(s.engine) {
  engine::EvalWatchdog watchdog;
  if (s.eval_deadline_s.has_value()) {
    guarded_.set_cancel_token(&cancel_);
    watchdog = engine::EvalWatchdog{&cancel_, *s.eval_deadline_s};
  }
  if (handle_.shared()) return;
  owned_.emplace(guarded_, s.threads, sink, s.eval_cache, watchdog);
  owned_->set_batch_eval(s.batch_eval);
  handle_ = engine::EngineHandle{&*owned_, 0};
}

namespace {

/// What every live run owns besides its evolver: the trace writer, the
/// evaluation stack, the checkpoint chain's identity, the resume source and
/// the history. Built once per run, on the heap, and kept for the run's
/// life.
class RunBase : public LiveRun {
 protected:
  RunBase(std::shared_ptr<const problems::IntegratorProblem> problem, RunSettings settings)
      : settings_(std::move(settings)) {
    // Telemetry sink for the whole run. Stays null (and costs one pointer
    // test per instrumentation site) unless a trace file was requested.
    if (!settings_.trace_path.empty() && settings_.trace_level != obs::TraceLevel::Off) {
      trace_.emplace(settings_.trace_path, settings_.trace_level);
      sink_ = &*trace_;
    }
    stack_.emplace(std::move(problem), settings_, sink_);
    if (sink_ != nullptr && sink_->enabled(obs::TraceLevel::Gen)) {
      // Deliberately no thread count or timestamps here: the gen-level trace
      // must be bit-identical across thread counts (docs/observability.md).
      const std::string algo = algo_name(settings_.algo);
      const obs::Field fields[] = {
          obs::str("algo", algo),
          obs::str("spec", settings_.spec.name),
          obs::u64("population", settings_.population),
          obs::u64("generations", settings_.generations),
          obs::u64("seed", settings_.seed),
      };
      sink_->record(obs::Event{"run_start", obs::TraceLevel::Gen, false, fields});
    }
    if (sink_ != nullptr && sink_->enabled(obs::TraceLevel::Eval)) {
      // The engine that evaluates (the run's own, or the serve hub) and the
      // instruction-set level its lane kernels run on.
      const engine::EvalEngine& engine = stack_->engine();
      const obs::Field fields[] = {
          obs::u64("threads", engine.threads()),
          obs::u64("hardware_concurrency", std::thread::hardware_concurrency()),
          obs::str("batch_eval", engine::to_string(engine.batch_eval())),
          obs::str("lane_isa", scint::lane_isa_name()),
      };
      sink_->record(obs::Event{"env", obs::TraceLevel::Eval, true, fields});
    }

    meta_.algo = algo_name(settings_.algo);
    meta_.seed = settings_.seed;
    meta_.population = settings_.population;
    meta_.generations = settings_.generations;
    meta_.config = run_config_digest(settings_);
    cp_options_.keep = settings_.checkpoint_keep;
    cp_options_.hook = settings_.checkpoint_write_hook;

    if (settings_.resume == ResumeMode::Strict) {
      resume_ = robust::read_checkpoint_file(settings_.checkpoint_path);
      resumed_from_path_ = settings_.checkpoint_path;
    } else if (settings_.resume == ResumeMode::Auto) {
      // Crash recovery: fall back past corrupt/truncated slots to the newest
      // one that checksum-verifies; with no usable slot, start fresh — so
      // the same `--resume auto` invocation works on the very first run.
      auto recovered = robust::recover_checkpoint(settings_.checkpoint_path);
      if (recovered.has_value()) {
        resume_ = std::move(recovered->checkpoint);
        resumed_from_path_ = recovered->path;
      }
    }
    if (resume_.has_value()) {
      ANADEX_REQUIRE(resume_->meta == meta_, "checkpoint '" + resumed_from_path_ +
                                                 "' was written by a different run "
                                                 "configuration");
      stack_->guarded().set_report(resume_->faults);
      for (const auto& s : resume_->history) {
        history_.push_back({s.generation, s.front_area, s.front_size});
      }
    }
    run_timer_.emplace(sink_, "run", obs::TraceLevel::Eval);
  }

  const moga::Problem& problem() { return stack_->guarded(); }
  const engine::EngineHandle& engine() const { return stack_->handle(); }

  /// `params` with the knobs every checkpointing algorithm shares wired
  /// in: seed, the run's engine, telemetry, stop token, the snapshot hook
  /// writing into the algorithm's Checkpoint slot, and the resume source.
  template <class Params, class State>
  Params wired(Params params, std::optional<State> robust::Checkpoint::*slot) {
    engine::EvolverCommon<State>& common = params;
    common.seed = settings_.seed;
    common.engine = engine();
    common.sink = sink_;
    common.stop = settings_.stop;
    if (sink_ != nullptr) common.trace_hypervolume = front_hypervolume;
    if (!settings_.checkpoint_path.empty()) {
      common.snapshot_every = settings_.checkpoint_every;
      common.on_snapshot = [this, slot](const State& state) {
        robust::Checkpoint cp;
        cp.*slot = state;
        write_checkpoint(std::move(cp));
      };
    }
    if (resume_.has_value()) {
      const std::optional<State>& stored = *resume_.*slot;
      ANADEX_REQUIRE(stored.has_value(),
                     "checkpoint state does not match the requested algorithm");
      common.resume = &*stored;
    }
    return params;
  }

  /// The on_generation observer: the history recorder, then the caller's.
  moga::GenerationCallback observer() {
    const std::size_t stride = settings_.history_stride;  // validated > 0
    const bool record = settings_.record_history;
    return [this, stride, record, user = settings_.on_generation](
               std::size_t gen, const moga::Population& population) {
      if (record && (gen + 1) % stride == 0) {
        const moga::Population front = moga::extract_global_front(population);
        history_.push_back({gen + 1, front_area_of(to_front_samples(front)), front.size()});
      }
      if (user) user(gen, population);
    };
  }

  /// Starts and stops the clock behind RunOutcome::seconds, which counts
  /// the run's own time: building it and every advance(), not the pauses
  /// between slices.
  void start_clock() { clock_start_ = Clock::now(); }
  void stop_clock() {
    seconds_ += std::chrono::duration<double>(Clock::now() - clock_start_).count();
  }

  /// The outcome at `barrier` from the algorithm's result: accounting,
  /// metrics, history, faults and provenance. Closes the trace (`fault`,
  /// `shutdown`, `run_end` records) when the run finished or the stop token
  /// ended it.
  RunOutcome outcome_at(moga::Barrier barrier, const moga::EvolverResult& result) {
    stop_clock();
    RunOutcome outcome;
    outcome.evaluations = result.evaluations;
    outcome.distinct_evaluations = result.eval_stats.evaluated;
    outcome.cache_hits = result.eval_stats.cache_hits();
    outcome.generations = result.generations_run;
    outcome.interrupted = barrier != moga::Barrier::Finished;
    outcome.seconds = seconds_;
    outcome.history = history_;
    outcome.faults = stack_->guarded().report();
    outcome.resumed_from_generation = resumed_generation_;
    outcome.resumed_from_path = resumed_from_path_;
    outcome.front = to_front_samples(result.front);
    std::sort(outcome.front.begin(), outcome.front.end(),
              [](const FrontSample& a, const FrontSample& b) {
                return a.cload_f < b.cload_f;
              });
    outcome.front_area = front_area_of(outcome.front);
    outcome.hypervolume_norm = hypervolume_of(outcome.front);
    std::vector<double> loads;
    loads.reserve(outcome.front.size());
    for (const auto& s : outcome.front) loads.push_back(s.cload_f);
    outcome.clustering_4to5 = moga::clustering_fraction(loads, 4e-12, 5e-12);
    if (!loads.empty()) {
      const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
      outcome.load_span_pf = (*hi - *lo) * 1e12;
    }

    if (barrier == moga::Barrier::Paused) return outcome;
    run_timer_->stop();
    if (sink_ == nullptr || !sink_->enabled(obs::TraceLevel::Gen)) return outcome;
    // Absent in clean runs: a `fault` record summarizing every evaluation
    // fault the guard absorbed, and a `shutdown` record when the stop token
    // ended the run early. Both are pure observation.
    if (outcome.faults.total_faults() > 0) {
      const obs::Field fault_fields[] = {
          obs::u64("exceptions", outcome.faults.exceptions),
          obs::u64("non_finite", outcome.faults.non_finite),
          obs::u64("wrong_arity", outcome.faults.wrong_arity),
          obs::u64("timeouts", outcome.faults.timeouts),
          obs::u64("retries", outcome.faults.retries),
          obs::u64("recovered", outcome.faults.recovered),
          obs::u64("penalized", outcome.faults.penalized),
      };
      sink_->record(obs::Event{"fault", obs::TraceLevel::Gen, false, fault_fields});
    }
    if (barrier == moga::Barrier::Stopped) {
      const obs::Field stop_fields[] = {obs::u64("generation", outcome.generations)};
      sink_->record(obs::Event{"shutdown", obs::TraceLevel::Gen, false, stop_fields});
    }
    const obs::Field fields[] = {
        obs::u64("evaluations", outcome.evaluations),
        obs::u64("generations", outcome.generations),
        obs::u64("front_size", outcome.front.size()),
        obs::f64("front_area", outcome.front_area),
        obs::f64("hv", outcome.hypervolume_norm),
        obs::u64("faults", outcome.faults.total_faults()),
    };
    sink_->record(obs::Event{"run_end", obs::TraceLevel::Gen, false, fields});
    return outcome;
  }

  const RunSettings settings_;
  obs::EventSink* sink_ = nullptr;
  /// The generation the run was restored at (0 for a fresh run); set by
  /// the algorithm's run once its evolver is built.
  std::size_t resumed_generation_ = 0;

 private:
  /// Attaches the run identity, cumulative faults and history to `cp`, then
  /// writes it atomically (with rotation and the chaos harness's crash
  /// seam).
  void write_checkpoint(robust::Checkpoint cp) {
    cp.meta = meta_;
    cp.faults = stack_->guarded().report();
    for (const auto& h : history_) {
      cp.history.push_back({h.generation, h.front_area, h.front_size});
    }
    robust::write_checkpoint_file(settings_.checkpoint_path, cp, cp_options_);
  }

  Clock::time_point clock_start_ = Clock::now();
  double seconds_ = 0.0;  ///< time spent building and advancing the run
  std::optional<obs::JsonlTraceWriter> trace_;
  robust::CheckpointMeta meta_;
  robust::CheckpointWriteOptions cp_options_;
  /// The restored checkpoint; the evolver reads its state when built.
  std::optional<robust::Checkpoint> resume_;
  std::string resumed_from_path_;
  std::vector<HistoryPoint> history_;
  std::optional<obs::ScopedTimer> run_timer_;
  /// Declared last so the run's own engine is destroyed first, recording
  /// its `eval_engine` totals after `run_end` and before `trace_end`.
  std::optional<EvalStack> stack_;
};

/// A checkpointing algorithm's live run: its step object under a
/// GenerationDriver.
template <class Evolver>
class EvolverRun final : public RunBase {
 public:
  template <class Params>
  EvolverRun(std::shared_ptr<const problems::IntegratorProblem> problem,
             const RunSettings& settings, Params params,
             std::optional<typename Evolver::State> robust::Checkpoint::*slot)
      : RunBase(std::move(problem), settings),
        evolver_(RunBase::problem(), wired(std::move(params), slot)),
        driver_(evolver_, observer()) {
    if (evolver_.params().resume != nullptr) resumed_generation_ = evolver_.generation();
    stop_clock();
  }

  RunOutcome advance(std::size_t budget) override {
    start_clock();
    const moga::Barrier barrier = driver_.run(budget);
    // A finished run is released next, so its result may move out of it.
    const auto result = barrier == moga::Barrier::Finished ? std::move(evolver_).result()
                                                           : evolver_.result();
    RunOutcome outcome = outcome_at(barrier, result);
    if constexpr (requires { result.phases; }) {
      for (const auto& phase : result.phases) {
        outcome.phases.push_back({phase.phase, phase.partitions,
                                  front_area_of(to_front_samples(phase.front))});
      }
    }
    return outcome;
  }

  void halt() override { driver_.halt(); }
  void snapshot() override { driver_.snapshot(); }

 private:
  Evolver evolver_;
  moga::GenerationDriver<Evolver> driver_;
};

/// WeightedSum never checkpoints, so it runs whole in its first advance().
class WeightedSumRun final : public RunBase {
 public:
  WeightedSumRun(std::shared_ptr<const problems::IntegratorProblem> problem,
                 const RunSettings& settings)
      : RunBase(std::move(problem), settings) {}

  RunOutcome advance(std::size_t) override {
    moga::WeightedSumParams params;
    params.weight_count = settings_.weight_count;
    params.population_size = std::max<std::size_t>(settings_.population / 2, 4) & ~1ULL;
    // Match the evaluation budget of a population-GA run of the same
    // settings: weights * pop/2 * gens_per_weight ~= pop * generations.
    params.generations_per_weight =
        std::max<std::size_t>(2 * settings_.generations / settings_.weight_count, 1);
    params.engine = engine();
    params.seed = settings_.seed;
    params.sink = sink_;
    if (sink_ != nullptr) params.trace_hypervolume = front_hypervolume;
    auto weighted = moga::run_weighted_sum(problem(), params);
    moga::EvolverResult result;
    result.front = std::move(weighted.front);
    result.evaluations = weighted.evaluations;
    result.generations_run = settings_.generations;
    result.eval_stats = weighted.eval_stats;
    return outcome_at(moga::Barrier::Finished, result);
  }

  void halt() override {}
  void snapshot() override {}
};

}  // namespace

std::unique_ptr<LiveRun> start_run(std::shared_ptr<const problems::IntegratorProblem> problem,
                                   const RunSettings& settings) {
  switch (settings.algo) {
    case Algo::TPG: {
      moga::Nsga2Params params;
      params.population_size = settings.population;
      params.generations = settings.generations;
      return std::make_unique<EvolverRun<moga::Nsga2>>(std::move(problem), settings, params,
                                                       &robust::Checkpoint::nsga2);
    }
    case Algo::LocalOnly: {
      sacga::LocalOnlyParams params;
      params.population_size = settings.population;
      params.partitions = settings.partitions;
      params.axis_hi = problems::kLoadMax;
      params.generations = settings.generations;
      return std::make_unique<EvolverRun<sacga::LocalOnly>>(
          std::move(problem), settings, params, &robust::Checkpoint::local_only);
    }
    case Algo::SACGA: {
      sacga::SacgaParams params;
      params.population_size = settings.population;
      params.partitions = settings.partitions;
      params.axis_hi = problems::kLoadMax;
      // Keep the phase-I cap sensible for small total budgets.
      params.phase1_max_generations = std::min<std::size_t>(
          settings.phase1_cap, std::max<std::size_t>(settings.generations / 4, 1));
      params.span = settings.generations;
      params.span_is_total_budget = true;
      return std::make_unique<EvolverRun<sacga::Sacga>>(std::move(problem), settings, params,
                                                        &robust::Checkpoint::sacga);
    }
    case Algo::MESACGA: {
      sacga::MesacgaParams params;
      params.population_size = settings.population;
      params.partition_schedule = settings.mesacga_schedule;
      params.axis_hi = problems::kLoadMax;
      params.phase1_max_generations = settings.phase1_cap;
      if (settings.span > 0) {
        params.span = settings.span;
      } else {
        params.phase1_max_generations = std::min<std::size_t>(
            settings.phase1_cap, std::max<std::size_t>(settings.generations / 4, 1));
        ANADEX_REQUIRE(settings.generations > params.phase1_max_generations,
                       "MESACGA budget must exceed the phase-I cap");
        params.total_budget = settings.generations;
      }
      return std::make_unique<EvolverRun<sacga::Mesacga>>(std::move(problem), settings,
                                                          std::move(params),
                                                          &robust::Checkpoint::mesacga);
    }
    case Algo::Island:
      return std::make_unique<EvolverRun<sacga::IslandGa>>(std::move(problem), settings,
                                                           island_params_from(settings),
                                                           &robust::Checkpoint::island);
    case Algo::WeightedSum:
      return std::make_unique<WeightedSumRun>(std::move(problem), settings);
    case Algo::SPEA2: {
      moga::Spea2Params params;
      params.population_size = settings.population;
      params.archive_size = settings.population;
      params.generations = settings.generations;
      return std::make_unique<EvolverRun<moga::Spea2>>(std::move(problem), settings, params,
                                                       &robust::Checkpoint::spea2);
    }
  }
  ANADEX_ASSERT(false, "unknown algorithm");
  return nullptr;
}

}  // namespace detail

RunOutcome run(const problems::IntegratorProblem& problem, const RunSettings& settings) {
  Job job(problem, settings);
  return job.run();
}

RunOutcome run(const RunSettings& settings) {
  Job job = Job::from_settings(settings);
  return job.run();
}

}  // namespace anadex::expt
