// The three benchmark workloads (untraced runs) and the traced layer
// ladder. Each entry point generates its inputs from the seed, sets up,
// measures for the requested seconds in short interleaved rounds,
// verifies every answer outside the timed windows, and fills a Report.

#ifndef KARL_KAQBENCH_SRC_WORKLOADS_H_
#define KARL_KAQBENCH_SRC_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "common.h"
#include "report.h"

namespace kaqbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir;  ///< Scratch files (snapshots, logs, traces).
};

/// The workload names: BENCHMARK.json lists the first two; kde-home-churn
/// runs by name only (kaqbench/README.md, "Measured spread").
inline constexpr const char* kWorkloads[] = {"kde-home-batch", "svm-a9a-serve",
                                             "kde-home-churn"};

void RunKdeHomeBatch(const RunOptions& options, Report* report);
void RunSvmA9aServe(const RunOptions& options, Report* report);
void RunKdeHomeChurn(const RunOptions& options, Report* report);

/// Traced run: every rung of the layer ladder on the workload's model,
/// with spans around each call into the program; fills the per-layer
/// metrics and writes the spans as Chrome trace JSON into the workdir.
void RunLadder(const RunOptions& options, Report* report);

// Fixed workload parameters (documented in kaqbench/README.md).
inline constexpr double kEkaqEps = 0.2;         // Table VII I-ε default.
inline constexpr size_t kBatchQueries = 2048;   // One batch round.
inline constexpr size_t kServeQueries = 1024;   // Distinct request lines.
inline constexpr size_t kChurnQueries = 1024;   // Distinct churn queries.
inline constexpr double kOpenLoopRate = 5000;   // Phase-1 arrivals / s.
inline constexpr size_t kClosedWindow = 16;     // Phase-2 requests in flight.
inline constexpr size_t kConnections = 2;       // Load-generator sockets.
inline constexpr size_t kSetups = 9;            // Set-ups timed per run.
inline constexpr double kRoundTrim = 0.1;       // Rounds dropped per end.

// Seed stream salts: one per independent input stream.
inline constexpr uint64_t kQuerySalt = 1;
inline constexpr uint64_t kScheduleSalt = 2;
inline constexpr uint64_t kChurnOrderSalt = 3;

/// Executors of the batch evaluator (pool workers + the caller): half the
/// CPUs, so the other half absorbs the host's stolen time and any other
/// load instead of stalling a batch on its slowest executor.
inline size_t BatchThreads() { return std::max<size_t>(1, Nproc() / 2); }

/// Spreads `count` events evenly over a window: event j falls due at
/// (j + 0.5) / count of it. Due() reports one pending event at a time.
class EventSpacer {
 public:
  EventSpacer(size_t count, double window_us)
      : count_(count), window_us_(window_us) {}
  bool Due(double elapsed_us) {
    if (next_ >= count_) return false;
    const double at = (static_cast<double>(next_) + 0.5) /
                      static_cast<double>(count_) * window_us_;
    if (elapsed_us < at) return false;
    ++next_;
    return true;
  }
  size_t remaining() const { return count_ - next_; }

 private:
  size_t count_;
  double window_us_;
  size_t next_ = 0;
};

}  // namespace kaqbench

#endif  // KARL_KAQBENCH_SRC_WORKLOADS_H_
