// Micro-benchmarks of the evaluation and ranking kernels: the costs that
// determine an optimization run's wall-clock. Plain chrono timing; emits
// BENCH_kernels.json for the CI artifact collector and enforces the
// documented acceptance check — the O(n log n) sweep kernel must beat the
// legacy pairwise sort by >= 5x at n = 512 (docs/performance.md).
//
// The lane-kernel rows time circuit::analyze_lanes at W = 8 and 16 on every
// instruction-set level compiled into the binary that this CPU can run
// (docs/performance.md, "Kernel variants"); the JSON names the level the
// dispatcher picked as "lane_isa".
//
// ANADEX_BENCH_QUICK=1 shrinks the iteration budgets so the CI smoke run
// stays fast; the speedup check still applies (the ratio is budget-free).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "../tests/support/reference_design.hpp"
#include "circuit/batch_opamp.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "engine/eval_cache.hpp"
#include "moga/hypervolume.hpp"
#include "moga/nds.hpp"
#include "moga/operators.hpp"
#include "problems/integrator_problem.hpp"
#include "problems/spec_suite.hpp"
#include "scint/integrator.hpp"
#include "yield/robustness.hpp"

namespace {

using namespace anadex;
using Clock = std::chrono::steady_clock;

bool quick_mode() {
  // Quick-mode is a CI pacing switch, not a result input: it only
  // scales iteration budgets. anadex-lint: allow(env-read)
  const char* v = std::getenv("ANADEX_BENCH_QUICK");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Best-of-3 timing: runs `fn` `iters` times per round and reports the
/// fastest round's nanoseconds per iteration (minimum filters scheduler
/// noise better than the mean on shared CI runners).
template <class Fn>
double ns_per_op(std::size_t iters, Fn&& fn) {
  double best = 1e300;
  for (int round = 0; round < 3; ++round) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const std::chrono::duration<double, std::nano> elapsed = Clock::now() - start;
    best = std::min(best, elapsed.count() / static_cast<double>(iters));
  }
  return best;
}

struct Row {
  std::string kernel;
  std::size_t n = 0;
  double ns = 0.0;
};

/// Random bi-objective population with a sprinkle of duplicates and
/// infeasible members — the shape the selection loop actually ranks.
moga::Population ranking_population(std::size_t n) {
  Rng rng(7);
  moga::Population pop(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& ind = pop[i];
    if (i % 16 == 15) {
      ind.eval = pop[i - 1].eval;  // exact duplicate vector
      continue;
    }
    ind.eval.objectives.resize(2);
    for (auto& f : ind.eval.objectives) f = rng.uniform();
    if (i % 8 == 7) ind.eval.violations = {rng.uniform(0.5, 2.0)};
  }
  return pop;
}

volatile double g_sink = 0.0;  // keeps the optimizer from deleting kernels

}  // namespace

int main() {
  const bool quick = quick_mode();
  const std::size_t scale = quick ? 1 : 8;
  std::vector<Row> rows;
  const auto record = [&rows](std::string kernel, std::size_t n, double ns) {
    std::printf("  %-22s n=%-5zu %12.1f ns/op\n", kernel.c_str(), n, ns);
    rows.push_back({std::move(kernel), n, ns});
  };

  std::printf("anadex kernel micro-benchmarks%s\n\n", quick ? " (quick mode)" : "");

  // --- evaluation kernels --------------------------------------------------
  {
    const auto proc = device::Process::typical();
    const device::Geometry g{20e-6, 0.5e-6};
    double vgs = 0.7;
    record("mosfet_op", 1, ns_per_op(1000 * scale, [&] {
             const auto op = device::solve_op(proc.nmos, g, device::Bias{vgs, 1.0, 0.0});
             g_sink = op.gm;
             vgs = 0.7 + (vgs - 0.69);  // keep the optimizer honest
           }));

    scint::IntegratorDesign d;  // defaults are a mid-box design
    record("integrator_corner", 1, ns_per_op(500 * scale, [&] {
             g_sink = scint::evaluate(proc, d, scint::IntegratorContext{}).settling_time;
           }));
  }
  {
    const problems::IntegratorProblem problem(problems::chosen_spec());
    Rng rng(1);
    const auto genes = moga::random_genome(problem.bounds(), rng);
    moga::Evaluation eval;
    // A random genome almost never passes the typical corner, so this is
    // the five corners alone: one W = 8 lane call.
    record("problem_evaluate", 1, ns_per_op(200 * scale, [&] {
             problem.evaluate(genes, eval);
             g_sink = eval.objectives[0];
           }));

    // The yield Monte Carlo a design pays once it passes the typical
    // corner (a GA design almost always does, a random genome rarely): one
    // lane group of MonteCarloParams{}.samples processes.
    const scint::IntegratorDesign passing = testing_support::reference_design();
    record("yield_robustness", yield::MonteCarloParams{}.samples,
           ns_per_op(100 * scale, [&] { g_sink = problem.design_robustness(passing); }));

    // One GA design: the corners and then the Monte Carlo.
    const auto passing_genes = problems::IntegratorProblem::encode(passing);
    record("problem_evaluate_ga", 1, ns_per_op(100 * scale, [&] {
             problem.evaluate(passing_genes, eval);
             g_sink = eval.objectives[0];
           }));

    // Cache kernels: the per-item costs the memo layer adds to a batch.
    record("hash_genes", genes.size(), ns_per_op(20000 * scale, [&] {
             g_sink = static_cast<double>(hash_genes(genes, 0));
           }));
    engine::EvalCache cache(1024);
    const std::uint64_t h = hash_genes(genes, 0);
    cache.insert(genes, h, eval);
    moga::Evaluation out;
    record("eval_cache_hit", 1, ns_per_op(20000 * scale, [&] {
             (void)cache.lookup(genes, h, out);
             g_sink = out.objectives[0];
           }));
  }

  // --- lane kernels, per instruction-set level -----------------------------
  {
    // Random designs inside the problem's bounds on the five corners, lane
    // k on corner k mod 5: W = 8 is one design's corner check, W = 16 the
    // width of a Monte Carlo or of a cross-genome group.
    const problems::IntegratorProblem problem(problems::chosen_spec());
    const auto bounds = problem.bounds();
    Rng rng(5);
    std::vector<double> genes(bounds.size());
    circuit::OpAmpDesign designs[circuit::kMaxLaneWidth];
    for (auto& design : designs) {
      for (std::size_t k = 0; k < bounds.size(); ++k) {
        genes[k] = rng.uniform(bounds[k].lower, bounds[k].upper);
      }
      design = problems::IntegratorProblem::decode(genes).opamp;
    }
    const auto typical = device::Process::typical();
    std::vector<device::Process> corners;
    for (const device::Corner corner : device::kAllCorners) {
      corners.push_back(typical.at_corner(corner));
    }
    const device::Process* processes[circuit::kMaxLaneWidth];
    for (std::size_t k = 0; k < circuit::kMaxLaneWidth; ++k) {
      processes[k] = &corners[k % corners.size()];
    }
    circuit::OpAmpAnalysis out[circuit::kMaxLaneWidth];
    const circuit::OpAmpContext context;

    for (const circuit::LaneIsa isa : circuit::detail::compiled_lane_isas()) {
      const std::string name = "analyze_lanes_" + std::string(circuit::to_string(isa));
      if (!circuit::detail::cpu_supports(isa)) {
        std::printf("  %-22s skipped: this CPU cannot run it\n", name.c_str());
        continue;
      }
      const auto time_width = [&](auto width) {
        constexpr std::size_t W = decltype(width)::value;
        record(name, W, ns_per_op(200 * scale, [&] {
                 circuit::detail::analyze_lanes_as<W>(
                     isa, std::span<const device::Process* const, W>(processes, W),
                     std::span<const circuit::OpAmpDesign, W>(designs, W), context,
                     std::span<circuit::OpAmpAnalysis, W>(out, W));
                 g_sink = out[0].a0;
               }));
      };
      time_width(std::integral_constant<std::size_t, 8>{});
      time_width(std::integral_constant<std::size_t, 16>{});
    }
  }

  // --- ranking kernels: legacy vs sweep (m = 2) ----------------------------
  double legacy_512 = 0.0;
  double sweep_512 = 0.0;
  for (const std::size_t n : {std::size_t{128}, std::size_t{256}, std::size_t{512},
                              std::size_t{1024}}) {
    moga::Population pop = ranking_population(n);
    const std::size_t iters = std::max<std::size_t>(scale * 40960 / n, 2);

    moga::NdsArena arena;
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    const double legacy = ns_per_op(iters, [&] {
      g_sink = static_cast<double>(moga::legacy_nondominated_sort(pop, all, arena).size());
    });
    record("nds_legacy", n, legacy);

    moga::RankingScratch scratch;
    const double sweep = ns_per_op(iters, [&] {
      g_sink = static_cast<double>(scratch.sweep_sort(pop, all).size());
    });
    record("nds_sweep", n, sweep);

    // Cheap golden check while we are here: both kernels on this exact
    // population must agree (the full randomized suite lives in tests).
    if (scratch.sweep_sort(pop, all) != moga::legacy_nondominated_sort(pop, all, arena)) {
      std::printf("ERROR: sweep kernel diverged from legacy at n=%zu\n", n);
      return 1;
    }
    if (n == 512) {
      legacy_512 = legacy;
      sweep_512 = sweep;
    }
  }

  // --- crowding + hypervolume ----------------------------------------------
  {
    const std::size_t n = 512;
    moga::Population pop = ranking_population(n);
    moga::RankingScratch scratch;
    const auto fronts = scratch.sort(pop);
    record("crowding", n, ns_per_op(std::max<std::size_t>(scale * 64, 2), [&] {
             for (const auto& front : fronts) scratch.crowding(pop, front);
             g_sink = pop[0].crowding;
           }));
  }
  for (const std::size_t n : {std::size_t{256}, std::size_t{1024}}) {
    Rng rng(9);
    std::vector<double> flat;
    moga::FrontPoints nested;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = rng.uniform();
      const double y = 1.0 - x + 0.01 * rng.uniform();
      flat.insert(flat.end(), {x, y});
      nested.push_back({x, y});
    }
    const std::vector<double> ref{1.2, 1.2};
    const std::size_t iters = std::max<std::size_t>(scale * 8192 / n, 2);
    record("hv2d_nested", n,
           ns_per_op(iters, [&] { g_sink = moga::hypervolume(nested, ref); }));
    record("hv2d_flat", n,
           ns_per_op(iters, [&] { g_sink = moga::hypervolume_2d(flat, ref); }));
  }

  const double sweep_speedup = legacy_512 / sweep_512;
  const bool sweep_ok = sweep_speedup >= 5.0;
  std::printf("\nsweep speedup at n=512: %.1fx (required >= 5x) -> %s\n", sweep_speedup,
              sweep_ok ? "ok" : "FAIL");

  std::ofstream json("BENCH_kernels.json");
  json << "{\n"
       << "  \"bench\": \"kernels\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"lane_isa\": \"" << circuit::to_string(circuit::lane_isa()) << "\",\n"
       << "  \"sweep_speedup_at_512\": " << sweep_speedup << ",\n"
       << "  \"sweep_ok\": " << (sweep_ok ? "true" : "false") << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << "    {\"kernel\": \"" << rows[i].kernel << "\", \"n\": " << rows[i].n
         << ", \"ns_per_op\": " << rows[i].ns << "}" << (i + 1 < rows.size() ? "," : "")
         << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_kernels.json\n");

  return sweep_ok ? 0 : 1;
}
