// LaneEvaluator — the SoA batch-evaluation seam between EvalEngine and a
// Problem's vectorized kernels.
//
// A Problem that can evaluate several genomes per call (the SC-integrator
// model does, via the circuit/batch_opamp SoA kernels) additionally derives
// from this interface. EvalEngine discovers the capability per batch with a
// dynamic_cast of the batch's problem and, in its default mode
// (BatchEval::Auto), claims items in GROUPS of up to preferred_lane_width()
// instead of one at a time (narrower when a worker pool would otherwise
// leave workers without a group), mapping each group onto the SIMD lanes
// of one evaluate_lanes() call.
//
// Determinism contract (docs/performance.md): evaluate_lanes() must produce
// BIT-IDENTICAL Evaluations to per-genome Problem::evaluate() for every
// genome, every group size, and every position within a group. The engine's
// per-item path (BatchEval::Scalar) stays intact as the oracle; the mode is
// a pure execution setting excluded from the checkpoint config digest, so
// fronts, traces and checkpoint bytes agree across modes and thread counts.
//
// Error contract: if any lane cannot be evaluated (a genome the scalar path
// would reject by throwing), evaluate_lanes() must throw WITHOUT writing to
// any output slot. The engine then falls back to the per-item scalar path
// for every member of the group, which reproduces the scalar behavior
// exactly — including which exception surfaces and the lowest-index-error
// rethrow semantics.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "moga/problem.hpp"

namespace anadex::engine {

/// How a batch reaches a problem's kernels. A pure execution setting:
/// results are bit-identical in both modes (enforced by the golden
/// equivalence suite), so it is excluded from the checkpoint config digest
/// and may differ across a snapshot/resume boundary.
enum class BatchEval {
  /// Per-genome Problem::evaluate() only — the reference path.
  Scalar,
  /// Lane groups for every batch of two or more items whose problem
  /// supports them (the short remainder group included), narrowed so each
  /// worker of a pool gets one; the default.
  Auto,
};

/// Optional capability interface for problems with an SoA batch kernel.
/// Implementations are discovered by EvalEngine via dynamic_cast, so a
/// Problem opts in simply by additionally deriving from LaneEvaluator.
class LaneEvaluator {
 public:
  virtual ~LaneEvaluator() = default;

  /// Whether lane evaluation is actually available. Wrappers (e.g.
  /// GuardedProblem) forward this so a capable inner problem shines
  /// through, and chains broken by a lane-unaware layer report false.
  virtual bool lanes_supported() const = 0;

  /// Widest group the engine claims per evaluate_lanes() call: the group
  /// width the problem's kernels run fastest per item (IntegratorProblem
  /// returns 16). A pool with more workers than full groups in a batch gets
  /// narrower groups instead. Must be >= 2.
  virtual std::size_t preferred_lane_width() const = 0;

  /// Evaluates genes[i] into *outs[i] for every i. The spans are the same
  /// size, between 1 and preferred_lane_width() entries (the engine hands
  /// short groups at batch remainders and to wide pools). Must be
  /// bit-identical to the scalar path and safe to call from several
  /// threads concurrently.
  /// On failure of ANY lane: throw without writing any output (see the
  /// error contract above).
  virtual void evaluate_lanes(std::span<const std::span<const double>> genes,
                              std::span<moga::Evaluation* const> outs) const = 0;
};

/// Round-trip helpers for trace records and the shard-worker command line.
const char* to_string(BatchEval mode);
/// Parses "scalar" / "auto"; throws PreconditionError otherwise.
BatchEval parse_batch_eval(std::string_view text);

}  // namespace anadex::engine
