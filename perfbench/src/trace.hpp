// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a library layer, timed from the benchmark's side
// of the boundary: name, start, end, the span that caused it, and the id of
// the request (compress call, ladder, remote session) it belongs to.  Spans
// are kept in memory and written out once, when the run ends.  Untraced runs
// pass a null Tracer and Span then only keeps its own stopwatch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::uint64_t request = 0;
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
  unsigned thread = 0;
};

/// Part of [lo, hi) covered by the union of `intervals` (each clipped to it).
double covered_seconds(double lo, double hi,
                       std::vector<std::pair<double, double>> intervals);

/// Self time of every span: its duration minus the part of its interval the
/// union of its children covers.  Children running concurrently on several
/// threads are counted once.
std::map<std::uint64_t, double> self_seconds(const std::vector<SpanRecord>& spans);

/// Thread contract: internally-synchronized; spans may begin and end on any
/// thread.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : origin_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  std::uint64_t next_id();
  void record(SpanRecord r);

  /// The innermost open span on the calling thread (0 when none).
  static std::uint64_t current();
  static void set_current(std::uint64_t id);

  std::vector<SpanRecord> spans() const;

  /// Sum of the durations of the spans named `name`.
  double total(const std::string& name) const;
  /// Per-span durations of the spans named `name`, in record order.
  std::vector<double> durations(const std::string& name) const;

  /// Writes every span, with its self time, as a JSON array.
  void dump(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;      // guarded by mu_
};

/// RAII span.  Always measures its own duration; records into `tracer` only
/// when one is given.  The parent defaults to the calling thread's innermost
/// open span; work handed to other threads passes it explicitly.
class Span {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  Span(Tracer* tracer, std::string name, std::uint64_t request,
       std::uint64_t parent = kInherit);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span now (idempotent) and returns its duration in seconds.
  double close();
  std::uint64_t id() const { return rec_.id; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  std::uint64_t saved_current_ = 0;
  Tracer::Clock::time_point t0_;
  double seconds_ = -1.0;
};

}  // namespace perfbench
