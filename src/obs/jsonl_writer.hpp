// JSONL trace sink: one self-describing JSON object per event, streamed to
// a file. The format is documented in docs/observability.md and validated
// in CI by scripts/check_trace.py.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

#include "obs/event_sink.hpp"

namespace anadex::obs {

/// Current trace format identifier, written by the trace_start header line.
inline constexpr std::string_view kTraceSchema = "anadex-trace/v1";

/// EventSink that appends one JSON object per line to `path`.
///
///   {"ev":"gen","gen":12,"evals":1300,"feasible":88,...}
///
/// The first line is a `trace_start` header carrying the schema version and
/// configured level; the last (written on destruction) is a `trace_end`
/// with the event count, after which the stream is flushed and closed.
/// Doubles are serialized with shortest-round-trip formatting, so a
/// deterministic run produces a byte-identical trace. Events marked `timed`
/// get a "t" field: monotonic seconds since writer construction.
///
/// `record` is internally synchronized and may be called from several
/// threads, though the library's instrumentation only drives it from the
/// run thread.
class JsonlTraceWriter final : public EventSink {
 public:
  /// Opens `path` (truncating, or appending when `append` is set); requires
  /// the parent directory to exist and `level` != Off. Writes the
  /// trace_start header immediately either way, so an appended trace is a
  /// sequence of self-delimiting header..trailer SEGMENTS — one per writer
  /// lifetime. `anadex serve` appends one segment per daemon run to its
  /// service trace; scripts/check_trace.py --segments validates the framing.
  JsonlTraceWriter(const std::string& path, TraceLevel level, bool append = false);
  ~JsonlTraceWriter() override;

  JsonlTraceWriter(const JsonlTraceWriter&) = delete;
  JsonlTraceWriter& operator=(const JsonlTraceWriter&) = delete;

  bool enabled(TraceLevel level) const override {
    return level != TraceLevel::Off && static_cast<int>(level) <= static_cast<int>(level_);
  }

  void record(const Event& event) override;
  void flush() override;

  TraceLevel level() const { return level_; }

  /// Events written so far (header and trailer lines included).
  std::uint64_t events_written() const;

 private:
  void write_line(const std::string& line);

  std::string path_;
  TraceLevel level_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::ofstream out_;
  std::uint64_t events_ = 0;
};

/// Appends `value` to `out` as a JSON string literal (quotes included),
/// escaping backslash, quote and control characters. Exposed for tests.
void append_json_string(std::string& out, std::string_view value);

/// Appends `value` with shortest round-trip formatting (std::to_chars);
/// non-finite values are serialized as JSON strings ("inf", "-inf", "nan").
/// Exposed for tests.
void append_json_double(std::string& out, double value);

}  // namespace anadex::obs
