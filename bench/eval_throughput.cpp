// EvalEngine throughput: evaluations/second of IntegratorProblem batches
// versus worker-thread count, plus a bit-identity cross-check of every
// parallel run against the serial reference, plus the dedup-cache section:
// throughput with the memo cache on vs off at controlled duplicate rates.
// Emits BENCH_eval_throughput.json next to the working directory for the
// CI artifact collector.
//
// Expect near-linear speedup up to the machine's core count; on a
// single-core runner every row collapses to ~1x, which the JSON records
// honestly via "hardware_threads". The cache section's acceptance check is
// duplicate-rate driven, not core-count driven: at a 50% duplicate rate
// the cached engine must deliver >= 1.3x the uncached throughput
// (docs/performance.md).
//
// The scalar-vs-SIMD section times a default (Auto-mode) serial engine (SoA
// lane groups across genomes, docs/performance.md) against the scalar model:
// the five-corner scint::evaluate() loop of
// tests/support/reference_evaluate.hpp, the oracle, run per item. It also
// times a Scalar-mode engine, whose per-genome evaluate() runs one genome's
// corners as lanes. Both lane paths must match the oracle bit for bit on
// every build; the single-thread speedup gate (cross-genome lanes over the
// scalar model) applies only under --simd-gate, which CI's bench job passes
// on the default build. That build runs the x86-64-v4 (AVX-512) lane
// kernels on a CPU that has them and the baseline ones elsewhere; the JSON
// records which as "lane_isa" (docs/performance.md, "Kernel variants"), and
// the gate's floor follows it: >= 4x at x86-64-v4, >= 2x at the baseline.
//
// Flags / environment:
//   --duplicate-rate R   run the cache section at the single rate R (0..1)
//                        instead of the default {0, 0.2, 0.5} sweep
//   --simd-gate          enforce the scalar-to-SIMD speedup floor of the
//                        run's lane_isa (exit 1 below it); JSON records
//                        "simd_gate_enforced" and "simd_gate_floor"
//   --shard-gate         enforce the >= 2x 4-shard scale-out speedup (exit
//                        1 below it); JSON records "shard_gate_enforced"
//   ANADEX_BENCH_QUICK   shrink batch/repeat budgets for the CI smoke run
//
// The sharded section times a full island exploration executed by
// shard::run_sharded at 1 worker shard vs 4 (thread mode, fsync off so the
// ratio measures scale-out rather than disk flushes). The 4-shard run must
// reproduce the 1-shard front and evaluation totals EXACTLY — byte
// identity is the sharding contract (docs/sharding.md) — and under
// --shard-gate must finish at least 2x faster.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../tests/support/reference_evaluate.hpp"
#include "circuit/batch_opamp.hpp"
#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "engine/eval_engine.hpp"
#include "expt/runner.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"
#include "robust/guarded_problem.hpp"
#include "shard/coordinator.hpp"

namespace {

using namespace anadex;
using Clock = std::chrono::steady_clock;

bool quick_mode() {
  // Quick-mode is a CI pacing switch, not a result input: it only
  // scales iteration budgets. anadex-lint: allow(env-read)
  const char* v = std::getenv("ANADEX_BENCH_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::vector<engine::Genome> make_genomes(const moga::Problem& problem,
                                         std::size_t count) {
  const auto bounds = problem.bounds();
  Rng rng(42);
  std::vector<engine::Genome> genomes(count);
  for (auto& genes : genomes) {
    genes.resize(bounds.size());
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      genes[k] = rng.uniform(bounds[k].lower, bounds[k].upper);
    }
  }
  return genomes;
}

/// Builds `count` batches of `batch_size` genomes, all distinct ACROSS
/// batches, with `rate` of each batch rewritten into copies of earlier
/// members of the SAME batch — modelling the clone/elitism duplication of
/// a real generation while keeping successive generations fresh, so the
/// measured speedup isolates the duplicate-rate knob rather than the
/// repeat-the-same-batch LRU effect.
std::vector<std::vector<engine::Genome>> duplicated_batches(const moga::Problem& problem,
                                                            std::size_t count,
                                                            std::size_t batch_size,
                                                            double rate) {
  const auto pool = make_genomes(problem, count * batch_size);
  Rng rng(77);
  std::vector<std::vector<engine::Genome>> batches(count);
  for (std::size_t b = 0; b < count; ++b) {
    auto& batch = batches[b];
    batch.assign(pool.begin() + static_cast<std::ptrdiff_t>(b * batch_size),
                 pool.begin() + static_cast<std::ptrdiff_t>((b + 1) * batch_size));
    for (std::size_t i = 1; i < batch.size(); ++i) {
      if (rng.uniform() < rate) {
        batch[i] = batch[rng.uniform_index(i)];  // copy an earlier member
      }
    }
  }
  return batches;
}

bool identical(const std::vector<moga::Evaluation>& a,
               const std::vector<moga::Evaluation>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].objectives != b[i].objectives) return false;
    if (a[i].violations != b[i].violations) return false;
  }
  return true;
}

struct Row {
  std::size_t requested = 0;
  std::size_t effective = 0;
  double evals_per_sec = 0.0;
  double speedup = 1.0;
  bool bit_identical = true;
};

struct CacheRow {
  double rate = 0.0;
  double nocache_evals_per_sec = 0.0;
  double cache_evals_per_sec = 0.0;
  double speedup = 0.0;
  std::size_t distinct = 0;
  std::size_t cache_hits = 0;
  bool bit_identical = true;
};

double timed_evals_per_sec(const engine::EvalEngine& eval,
                           const std::vector<engine::Genome>& genomes,
                           std::vector<moga::Evaluation>& out, std::size_t repeats) {
  eval.evaluate_batch(genomes, out);  // warm-up (first touch, page-in)
  const auto start = Clock::now();
  for (std::size_t r = 0; r < repeats; ++r) {
    eval.evaluate_batch(genomes, out);
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start;
  return static_cast<double>(genomes.size() * repeats) / elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = quick_mode();
  const std::size_t batch_size = quick ? 64 : 256;
  const std::size_t repeats = quick ? 3 : 8;
  // Default engines evaluate in cross-genome lane groups, about twice as
  // fast per batch as the per-genome path on which the cache, robustness
  // and shard bars were set. Those sections time twice the work, so their
  // timed windows stay as long as they were then.
  const std::size_t lane_window_scale = 2;

  std::vector<double> duplicate_rates{0.0, 0.2, 0.5};
  bool simd_gate = false;
  bool shard_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--duplicate-rate") == 0 && i + 1 < argc) {
      duplicate_rates = {std::atof(argv[i + 1])};
    }
    if (std::strcmp(argv[i], "--simd-gate") == 0) simd_gate = true;
    if (std::strcmp(argv[i], "--shard-gate") == 0) shard_gate = true;
  }

  const problems::IntegratorProblem problem(problems::chosen_spec());
  const auto genomes = make_genomes(problem, batch_size);

  std::vector<moga::Evaluation> reference(batch_size);
  std::vector<moga::Evaluation> out(batch_size);

  std::printf("EvalEngine throughput, %zu-genome batches of '%s' (%zu repeats)%s\n\n",
              batch_size, problem.name().c_str(), repeats, quick ? " [quick]" : "");
  std::printf("  threads  effective  evals/sec     speedup  bit-identical\n");

  std::vector<Row> rows;
  for (const std::size_t requested : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                      std::size_t{8}, std::size_t{0}}) {
    const engine::EvalEngine eval(problem, requested);
    Row row;
    row.requested = requested;
    row.effective = eval.threads();
    row.evals_per_sec = timed_evals_per_sec(eval, genomes, out, repeats);
    if (requested == 1) {
      reference = out;
    } else {
      row.speedup = row.evals_per_sec / rows.front().evals_per_sec;
      row.bit_identical = identical(out, reference);
    }
    rows.push_back(row);
    std::printf("  %7zu  %9zu  %11.0f  %6.2fx  %s\n", row.requested, row.effective,
                row.evals_per_sec, row.speedup, row.bit_identical ? "yes" : "NO");
  }

  // --- scalar model vs SIMD lane kernels (single worker thread) ---
  // IntegratorProblem implements engine::LaneEvaluator, so a default serial
  // engine maps each batch onto SoA groups of preferred_lane_width()
  // genomes (five corners each), while the Scalar-mode engine evaluates
  // item by item, one genome's corners per lane call. The baseline runs
  // the scalar model's corner loop item by item. The lane kernels are
  // op-for-op transliterations of the scalar expression trees, so the
  // outputs must match bit for bit on every build; trials are PAIRED (the
  // three back-to-back, acceptance on the best paired ratio) so
  // multiplicative scheduler noise cancels out of the speedup.
  const std::size_t simd_trials = quick ? 4 : 6;
  const std::size_t lane_width = problem.preferred_lane_width();
  const testing_support::ReferenceProblem scalar_model(problem);
  const engine::EvalEngine scalar_serial(scalar_model, 1);
  engine::EvalEngine per_genome_engine(problem, 1);
  per_genome_engine.set_batch_eval(engine::BatchEval::Scalar);
  const engine::EvalEngine& per_genome_serial = per_genome_engine;
  const engine::EvalEngine simd_serial(problem, 1);
  std::vector<moga::Evaluation> scalar_out(batch_size);
  std::vector<moga::Evaluation> per_genome_out(batch_size);
  std::vector<moga::Evaluation> simd_out(batch_size);

  double scalar_eps = 0.0;
  double per_genome_eps = 0.0;
  double simd_eps = 0.0;
  double simd_speedup = 0.0;
  for (std::size_t t = 0; t < simd_trials; ++t) {
    const double p = timed_evals_per_sec(scalar_serial, genomes, scalar_out, repeats);
    const double g = timed_evals_per_sec(per_genome_serial, genomes, per_genome_out, repeats);
    const double s = timed_evals_per_sec(simd_serial, genomes, simd_out, repeats);
    scalar_eps = std::max(scalar_eps, p);
    per_genome_eps = std::max(per_genome_eps, g);
    simd_eps = std::max(simd_eps, s);
    simd_speedup = std::max(simd_speedup, s / p);
  }
  const bool simd_identical =
      identical(simd_out, scalar_out) && identical(per_genome_out, scalar_out);
  // The gate is meaningless if the lane path never actually engaged. Its
  // floor follows the kernels the run used: the x86-64-v4 ones measured
  // 6.5-8.0x over the scalar model, the baseline ones 2.7-3.4x.
  const std::uint64_t simd_lane_groups = simd_serial.lane_groups();
  const double simd_floor = circuit::lane_isa() == circuit::LaneIsa::X86_64_V4 ? 4.0 : 2.0;
  const bool simd_ok = simd_identical && simd_lane_groups > 0 &&
                       (!simd_gate || simd_speedup >= simd_floor);
  std::printf("\nscalar model vs SIMD (1 thread, lane width %zu, %s kernels): %.0f -> %.0f "
              "evals/sec (%.2fx, gate >= %.0fx %s, lane groups %llu, bit-identical %s) "
              "-> %s\n",
              lane_width, std::string(circuit::to_string(circuit::lane_isa())).c_str(),
              scalar_eps, simd_eps, simd_speedup, simd_floor,
              simd_gate ? "ENFORCED" : "advisory",
              static_cast<unsigned long long>(simd_lane_groups),
              simd_identical ? "yes" : "NO", simd_ok ? "ok" : "FAIL");
  std::printf("per-genome lanes (BatchEval::Scalar): %.0f evals/sec, %.2fx the scalar "
              "model; cross-genome lanes %.2fx per-genome\n",
              per_genome_eps, per_genome_eps / scalar_eps, simd_eps / per_genome_eps);

  // --- dedup cache vs duplicate rate (serial engine: isolates the cache) ---
  std::printf(
      "\n  dup-rate  no-cache e/s   cached e/s   speedup  distinct  hits  bit-identical\n");
  std::vector<CacheRow> cache_rows;
  for (const double rate : duplicate_rates) {
    // Batch 0 is warm-up only (page-in, first-touch); the others are
    // timed. Distinct-across-batches genomes keep the warm-up from
    // pre-filling the LRU with timed work.
    const auto batches =
        duplicated_batches(problem, lane_window_scale * repeats + 1, batch_size, rate);
    CacheRow row;
    row.rate = rate;
    const auto run_all = [&](const engine::EvalEngine& eval,
                             std::vector<std::vector<moga::Evaluation>>& outs) {
      eval.evaluate_batch(batches.front(), outs.front());  // warm-up
      const auto start = Clock::now();
      for (std::size_t b = 1; b < batches.size(); ++b) {
        eval.evaluate_batch(batches[b], outs[b]);
      }
      const std::chrono::duration<double> elapsed = Clock::now() - start;
      return static_cast<double>(batch_size * (batches.size() - 1)) / elapsed.count();
    };

    const engine::EvalEngine plain(problem, 1);
    std::vector<std::vector<moga::Evaluation>> plain_outs(
        batches.size(), std::vector<moga::Evaluation>(batch_size));
    row.nocache_evals_per_sec = run_all(plain, plain_outs);

    const engine::EvalEngine cached(problem, 1, nullptr, /*cache_capacity=*/batch_size);
    std::vector<std::vector<moga::Evaluation>> cached_outs(
        batches.size(), std::vector<moga::Evaluation>(batch_size));
    row.cache_evals_per_sec = run_all(cached, cached_outs);

    row.speedup = row.cache_evals_per_sec / row.nocache_evals_per_sec;
    row.distinct = cached.stats().evaluated;
    row.cache_hits = cached.stats().cache_hits();
    row.bit_identical = true;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      row.bit_identical = row.bit_identical && identical(cached_outs[b], plain_outs[b]);
    }
    cache_rows.push_back(row);
    std::printf("  %7.0f%%  %12.0f  %11.0f  %6.2fx  %8zu  %4zu  %s\n", rate * 100.0,
                row.nocache_evals_per_sec, row.cache_evals_per_sec, row.speedup,
                row.distinct, row.cache_hits, row.bit_identical ? "yes" : "NO");
  }

  // --- robustness-layer overhead (watchdog + retry backoff, no faults) ---
  // The crash-safety layer must be free when nothing goes wrong: a serial
  // engine with the eval watchdog armed (generous deadline) driving a
  // backoff-enabled GuardedProblem must stay within 1% of the plain
  // engine's throughput, bit-identically. Checkpoint rotation is off the
  // evaluation hot path entirely (one rename chain per snapshot cadence),
  // so the eval-side knobs are the whole overhead story. Best-of-N timing
  // damps scheduler noise on shared CI runners.
  // Trials are PAIRED — plain then robust back-to-back, acceptance on the
  // best paired ratio — so slow multiplicative noise (frequency scaling,
  // co-tenants) cancels instead of failing the 1% gate spuriously.
  const std::size_t overhead_trials = quick ? 4 : 6;
  const std::size_t overhead_repeats = repeats * 4 * lane_window_scale;

  const engine::EvalEngine plain_serial(problem, 1);
  std::vector<moga::Evaluation> plain_out(batch_size);

  CancelToken watchdog_token;
  robust::GuardPolicy backoff_policy;
  backoff_policy.backoff_spin_base = 4096;
  robust::GuardedProblem guarded(
      std::shared_ptr<const moga::Problem>(std::shared_ptr<void>(), &problem),
      backoff_policy);
  const engine::EvalEngine robust_serial(
      guarded, 1, nullptr, 0, engine::EvalWatchdog{&watchdog_token, 3600.0});
  std::vector<moga::Evaluation> robust_out(batch_size);

  double plain_eps = 0.0;
  double robust_eps = 0.0;
  double robust_ratio = 0.0;
  for (std::size_t t = 0; t < overhead_trials; ++t) {
    const double p =
        timed_evals_per_sec(plain_serial, genomes, plain_out, overhead_repeats);
    const double r =
        timed_evals_per_sec(robust_serial, genomes, robust_out, overhead_repeats);
    plain_eps = std::max(plain_eps, p);
    robust_eps = std::max(robust_eps, r);
    robust_ratio = std::max(robust_ratio, r / p);
  }
  const bool robust_identical = identical(robust_out, plain_out);
  const bool robust_ok = robust_ratio >= 0.99 && robust_identical &&
                         guarded.report().total_faults() == 0;
  std::printf("\nrobustness overhead: %.0f -> %.0f evals/sec (ratio %.3f, "
              "required >= 0.99, faults %zu) -> %s\n",
              plain_eps, robust_eps, robust_ratio,
              guarded.report().total_faults(), robust_ok ? "ok" : "FAIL");

  // --- sharded exploration scale-out (4 worker shards vs 1) ---
  // A real island workload through shard::run_sharded, thread mode. Both
  // legs run the SAME settings; only the shard count differs, so the wide
  // leg must land on the identical front and eval totals — determinism and
  // scale-out are measured together. Trials are PAIRED (1-shard then
  // 4-shard back-to-back, acceptance on the best paired ratio) like the
  // SIMD and robustness sections.
  const std::size_t shard_workers = 4;
  const std::size_t shard_trials = quick ? 2 : 3;
  expt::RunSettings shard_base;
  shard_base.algo = expt::Algo::Island;
  shard_base.spec = problems::chosen_spec();
  shard_base.population = 64;
  shard_base.islands = 8;
  shard_base.migration_interval = 15;
  shard_base.generations = (quick ? 60 : 150) * lane_window_scale;
  shard_base.checkpoint_every = shard_base.generations;  // no mid-run snapshots
  shard_base.seed = 9;
  shard_base.threads = 1;  // per-shard eval threads; shards ARE the parallelism

  const auto run_shards = [&problem, &shard_base](std::size_t shards,
                                                  const char* dir) {
    expt::RunSettings s = shard_base;
    s.shards = shards;
    s.shard_dir = dir;
    shard::ShardOptions options;  // thread mode
    options.fsync = false;
    const auto start = Clock::now();
    expt::RunOutcome outcome = shard::run_sharded(problem, s, options);
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    return std::make_pair(std::move(outcome), elapsed.count());
  };
  const auto same_outcome = [](const expt::RunOutcome& a, const expt::RunOutcome& b) {
    if (a.evaluations != b.evaluations) return false;
    if (a.front.size() != b.front.size()) return false;
    for (std::size_t i = 0; i < a.front.size(); ++i) {
      if (a.front[i].power_w != b.front[i].power_w) return false;
      if (a.front[i].cload_f != b.front[i].cload_f) return false;
    }
    return true;
  };

  double shard_solo_seconds = 0.0;
  double shard_seconds = 0.0;
  double shard_speedup = 0.0;
  bool shard_identical = true;
  for (std::size_t t = 0; t < shard_trials; ++t) {
    const auto [solo_outcome, solo_s] = run_shards(1, "bench_shard_spool_1");
    const auto [wide_outcome, wide_s] = run_shards(shard_workers, "bench_shard_spool_4");
    shard_identical = shard_identical && same_outcome(solo_outcome, wide_outcome);
    if (t == 0 || solo_s < shard_solo_seconds) shard_solo_seconds = solo_s;
    if (t == 0 || wide_s < shard_seconds) shard_seconds = wide_s;
    shard_speedup = std::max(shard_speedup, solo_s / wide_s);
  }
  std::filesystem::remove_all("bench_shard_spool_1");
  std::filesystem::remove_all("bench_shard_spool_4");
  const bool shard_ok = shard_identical && (!shard_gate || shard_speedup >= 2.0);
  std::printf("\nsharded scale-out (%zu islands, %zu generations, %zu shards): "
              "%.3fs -> %.3fs (%.2fx, gate >= 2x %s, bit-identical %s) -> %s\n",
              shard_base.islands, shard_base.generations, shard_workers,
              shard_solo_seconds, shard_seconds, shard_speedup,
              shard_gate ? "ENFORCED" : "advisory",
              shard_identical ? "yes" : "NO", shard_ok ? "ok" : "FAIL");

  // Acceptance: at the 50% duplicate rate the cache must pay for itself
  // with at least 1.3x throughput (skipped when --duplicate-rate excluded
  // the 50% row).
  bool cache_ok = true;
  double cache_speedup_at_50 = 0.0;
  for (const CacheRow& row : cache_rows) {
    if (row.rate == 0.5) {
      cache_speedup_at_50 = row.speedup;
      cache_ok = row.speedup >= 1.3;
    }
  }
  if (cache_speedup_at_50 > 0.0) {
    std::printf("\ncache speedup at 50%% duplicates: %.2fx (required >= 1.3x) -> %s\n",
                cache_speedup_at_50, cache_ok ? "ok" : "FAIL");
  }

  std::ofstream json("BENCH_eval_throughput.json");
  json << "{\n"
       << "  \"bench\": \"eval_throughput\",\n"
       << "  \"problem\": \"" << problem.name() << "\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"batch_size\": " << batch_size << ",\n"
       << "  \"repeats\": " << repeats << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"lane_isa\": \"" << circuit::to_string(circuit::lane_isa()) << "\",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json << "    {\"threads_requested\": " << row.requested
         << ", \"threads_effective\": " << row.effective
         << ", \"evals_per_sec\": " << row.evals_per_sec
         << ", \"speedup_vs_serial\": " << row.speedup
         << ", \"bit_identical\": " << (row.bit_identical ? "true" : "false") << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"duplicate_rates\": [\n";
  for (std::size_t i = 0; i < cache_rows.size(); ++i) {
    const CacheRow& row = cache_rows[i];
    json << "    {\"rate\": " << row.rate
         << ", \"nocache_evals_per_sec\": " << row.nocache_evals_per_sec
         << ", \"cache_evals_per_sec\": " << row.cache_evals_per_sec
         << ", \"speedup\": " << row.speedup << ", \"distinct\": " << row.distinct
         << ", \"cache_hits\": " << row.cache_hits
         << ", \"bit_identical\": " << (row.bit_identical ? "true" : "false") << "}"
         << (i + 1 < cache_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"simd_lane_width\": " << lane_width << ",\n"
       << "  \"simd_scalar_evals_per_sec\": " << scalar_eps << ",\n"
       << "  \"simd_per_genome_evals_per_sec\": " << per_genome_eps << ",\n"
       << "  \"simd_evals_per_sec\": " << simd_eps << ",\n"
       << "  \"simd_speedup\": " << simd_speedup << ",\n"
       << "  \"simd_lane_groups\": " << simd_lane_groups << ",\n"
       << "  \"simd_bit_identical\": " << (simd_identical ? "true" : "false") << ",\n"
       << "  \"simd_gate_enforced\": " << (simd_gate ? "true" : "false") << ",\n"
       << "  \"simd_gate_floor\": " << simd_floor << ",\n"
       << "  \"simd_ok\": " << (simd_ok ? "true" : "false") << ",\n"
       << "  \"cache_speedup_at_50\": " << cache_speedup_at_50 << ",\n"
       << "  \"cache_ok\": " << (cache_ok ? "true" : "false") << ",\n"
       << "  \"robust_overhead_ratio\": " << robust_ratio << ",\n"
       << "  \"robust_bit_identical\": " << (robust_identical ? "true" : "false")
       << ",\n"
       << "  \"robust_ok\": " << (robust_ok ? "true" : "false") << ",\n"
       << "  \"shard_workers\": " << shard_workers << ",\n"
       << "  \"shard_solo_seconds\": " << shard_solo_seconds << ",\n"
       << "  \"shard_seconds\": " << shard_seconds << ",\n"
       << "  \"shard_speedup\": " << shard_speedup << ",\n"
       << "  \"shard_bit_identical\": " << (shard_identical ? "true" : "false")
       << ",\n"
       << "  \"shard_gate_enforced\": " << (shard_gate ? "true" : "false") << ",\n"
       << "  \"shard_ok\": " << (shard_ok ? "true" : "false") << "\n"
       << "}\n";
  std::printf("\nwrote BENCH_eval_throughput.json\n");

  bool all_identical = simd_identical && shard_identical;
  for (const Row& row : rows) all_identical = all_identical && row.bit_identical;
  for (const CacheRow& row : cache_rows) {
    all_identical = all_identical && row.bit_identical;
  }
  if (!all_identical) {
    std::printf("ERROR: a run diverged from its reference\n");
    return 1;
  }
  return (cache_ok && robust_ok && simd_ok && shard_ok) ? 0 : 1;
}
