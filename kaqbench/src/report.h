// Result reporting: named metrics with units, run facts, the correctness
// tally, and the final one-line JSON result.

#ifndef KARL_KAQBENCH_SRC_REPORT_H_
#define KARL_KAQBENCH_SRC_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace kaqbench {

class Report {
 public:
  /// Records metric `name` (unit `unit`); a repeated name overwrites.
  void Add(const std::string& name, double value, const std::string& unit);

  /// Records a run fact printed as "# name: value" (not a metric).
  void Info(const std::string& name, const std::string& value);
  void InfoValue(const std::string& name, double value, const std::string& unit);

  /// Tallies `attempted` queries of which `failed` were not answered or
  /// answered wrongly.
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double OkRatio() const;

  /// Prints the facts, a metric table, and last the JSON result line
  /// {"correct","attempted","failed","metrics"} on stdout.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span recorder of the traced run. Spans are recorded from
/// the benchmark's own code around calls into the program's modules;
/// they are kept in memory and written once, at exit, as Chrome
/// trace-event JSON (loadable in Perfetto or chrome://tracing).
///
/// Not thread-safe: every span is recorded on the thread driving the
/// benchmark. Work that ran on other threads (a pool batch, a server
/// round trip) is recorded with its measured interval via Add().
class SpanTracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int64_t parent = -1;  ///< Index of the enclosing span; -1 for roots.
    uint64_t id = 0;      ///< Query / request id; 0 when not per-query.
  };

  /// RAII span: opens on construction, closes on destruction. A null
  /// tracer makes it a no-op, so untraced runs pay one branch.
  class Scope {
   public:
    Scope(SpanTracer* tracer, const char* name, uint64_t id = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTracer* tracer_;
    int64_t index_ = -1;
  };

  /// Records a closed span with explicit bounds under the innermost
  /// open scope.
  void Add(const char* name, double start_us, double end_us, uint64_t id = 0);

  /// Per span name: count, total duration, and self time (duration minus
  /// the union of its direct children's intervals), in order of first
  /// appearance.
  struct SelfTime {
    std::string name;
    uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::vector<SelfTime> SelfTimes() const;

  size_t size() const { return spans_.size(); }

  /// Writes {"traceEvents":[...]} with one complete ("X") event per span;
  /// args carry the parent index and the id. Returns false on I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // Stack of open span indices.
};

}  // namespace kaqbench

#endif  // KARL_KAQBENCH_SRC_REPORT_H_
