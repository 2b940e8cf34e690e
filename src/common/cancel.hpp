// Cooperative cancellation for long-running work.
//
// A CancelToken is a flag shared between a requester (a signal handler, a
// service scheduler) and any number of pollers (evolver generation
// barriers, slow evaluators). It can also carry a deadline, which the
// evaluation engine arms around each batch: the token then reads as
// requested once the deadline has passed, with no thread raising it. It
// lives in common/ — below engine and robust in the link graph — so both
// layers can share one token type without a dependency cycle.
//
// request() is a lock-free atomic store and therefore async-signal-safe:
// the shutdown handler in robust/shutdown.cpp calls it directly from a
// SIGINT/SIGTERM context. Polling costs one atomic load, plus a
// steady_clock read while a deadline is armed.
//
// Cancellation never participates in any RNG or result computation — a
// token only decides WHEN a run stops, and the stopped run's snapshot is a
// regular generation-barrier snapshot, so resuming it replays the exact
// uninterrupted byte stream (see docs/robustness.md).
#pragma once

#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>

namespace anadex {

/// Thrown by cooperative evaluators (e.g. the chaos harness's slow-eval
/// spin) when they observe a cancellation request mid-evaluation. The
/// guard layer maps it to FaultKind::Timeout rather than a generic
/// evaluator exception.
class OperationCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One-way (until reset) cancellation flag with an optional deadline. All
/// members are safe to call concurrently; request() is additionally
/// async-signal-safe.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Raises the flag. Safe from signal handlers and any thread.
  void request() noexcept { requested_.store(true, std::memory_order_release); }

  /// Makes the token read as requested from `deadline` on.
  void arm(Clock::time_point deadline) noexcept {
    deadline_.store(deadline.time_since_epoch().count(), std::memory_order_release);
  }

  /// True once request() has been called or the armed deadline has passed
  /// (and until reset()).
  bool requested() const noexcept {
    if (requested_.load(std::memory_order_acquire)) return true;
    const Clock::rep deadline = deadline_.load(std::memory_order_acquire);
    return deadline != kUnarmed && Clock::now().time_since_epoch().count() >= deadline;
  }

  /// Lowers the flag and disarms the deadline (the engine reuses one token
  /// per batch).
  void reset() noexcept {
    deadline_.store(kUnarmed, std::memory_order_release);
    requested_.store(false, std::memory_order_release);
  }

 private:
  static constexpr Clock::rep kUnarmed = std::numeric_limits<Clock::rep>::max();

  std::atomic<bool> requested_{false};
  std::atomic<Clock::rep> deadline_{kUnarmed};
};

}  // namespace anadex
