// Span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around the calls it makes
// into each layer's public functions: name, start, end, parent span and op id.
// They are kept in memory and written once, at exit, as Chrome trace-event
// JSON (opens offline in Perfetto or chrome://tracing). Per-name totals are
// aggregated as spans close, so the per-layer table never re-reads the
// buffer. Single-threaded: every span is opened and closed on the thread
// that drives the workload.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Event {
    const char* name = nullptr;
    int64_t id = 0;
    int64_t parent = 0;  // 0 = root span of its op
    int64_t op = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  struct Totals {
    int64_t calls = 0;
    double total_us = 0.0;
  };

  // Spans beyond this many are still aggregated but not kept for export,
  // which bounds a long traced run's memory.
  static constexpr size_t kMaxKeptEvents = 200000;

  Tracer();

  // Opens a span under the innermost open span; returns its id.
  int64_t Begin(const char* name, int64_t op);
  // Closes the innermost open span (which must be `id`); returns its
  // duration in microseconds.
  double End(int64_t id);

  // Per-name call counts and total microseconds.
  const Totals& TotalsFor(const std::string& name) const;

  // Writes every kept span as Chrome trace-event JSON, plus `metadata`
  // (string key -> preformatted JSON value) in the file's top-level
  // "metadata" object. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path,
                        const std::map<std::string, std::string>& metadata) const;

  size_t dropped_events() const { return dropped_; }

 private:
  double NowUs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Event> events_;   // closed spans, in closing order
  std::vector<Event> open_;     // stack of open spans
  std::map<std::string, Totals> totals_;
  int64_t next_id_ = 1;
  size_t dropped_ = 0;
};

// RAII span: opens on construction, closes on destruction (or at End()).
// A null tracer makes it a no-op, so untraced code paths share the call
// sites of traced ones.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t op)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name, op) : 0) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Closes the span early; returns its duration in microseconds (0 when
  // untraced or already closed).
  double End() {
    if (tracer_ == nullptr) {
      return 0.0;
    }
    double us = tracer_->End(id_);
    tracer_ = nullptr;
    return us;
  }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
