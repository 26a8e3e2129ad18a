// Shared pieces of the kaqbench binary: clocks, order statistics, the
// Poisson arrival schedule, host probes (/proc, getrusage), and the
// seeded workload inputs (models, query sets, request lines).
//
// Everything a workload feeds the program is derived from the --seed
// argument through SeedFor(); the models themselves are the repository's
// fixed dataset simulacra, so a seed changes which queries run (and in
// which order points churn), not what the model is.

#ifndef KARL_KAQBENCH_SRC_COMMON_H_
#define KARL_KAQBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/karl.h"
#include "data/matrix.h"

namespace kaqbench {

// ---------------------------------------------------------------- clock

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- stats

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Percentile `p` in [0, 100] of an ascending-sorted sample, linearly
/// interpolated between closest ranks (numpy's default); 0 when empty.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Same, sorting a copy first.
double Percentile(std::vector<double> values, double p);

/// Percentile of an ascending-sorted sample quantized to multiples of
/// `width` (e.g. whole microseconds): each value v stands for the class
/// [v - width/2, v + width/2), and the rank is interpolated within its
/// class (the grouped-data median formula), so the result is not pinned
/// to the quantization grid.
double GroupedPercentileSorted(const std::vector<double>& sorted, double p,
                               double width);

double Mean(const std::vector<double>& values);

/// Mean of `values` without the lowest and highest `trim` share of them
/// (floor(trim · n) values at each end; trim < 0.5). Between the mean,
/// which a single stalled round moves, and the median, which snaps to
/// whichever host speed held more than half the rounds.
double TrimmedMean(std::vector<double> values, double trim);

/// Open-loop arrival schedule: `count` Poisson arrivals at `rate_per_s`,
/// as offsets in microseconds from the schedule start (strictly
/// increasing, exponential gaps). Deterministic in `seed`.
std::vector<double> PoissonSchedule(double rate_per_s, size_t count,
                                    uint64_t seed);

// ----------------------------------------------------------------- host

/// User + system CPU seconds of this process (all threads).
double ProcessCpuSeconds();

/// User + system CPU seconds of the calling thread.
double ThreadCpuSeconds();

/// Resident set size of this process in MiB (/proc/self/statm), read
/// after malloc_trim(0) has returned free heap pages to the system — so
/// heap the allocator would have kept after frees does not count.
double ResidentMb();

/// Online CPU count.
size_t Nproc();

/// Cumulative /proc/stat "cpu" jiffies, for steal/iowait shares.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t iowait = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();

/// Percentages of the interval between two readings spent stolen by the
/// hypervisor and waiting on I/O.
struct HostShares {
  double steal_pct = 0.0;
  double iowait_pct = 0.0;
};
HostShares SharesBetween(const CpuJiffies& begin, const CpuJiffies& end);

// ----------------------------------------------------------------- seeds

/// Seed of one input stream: splitmix64 of (seed, stream salt).
uint64_t SeedFor(uint64_t seed, uint64_t salt);

/// FNV-1a of a byte string (identity checks in the self-tests).
uint64_t Fnv1a(std::span<const char> bytes);
uint64_t Fnv1a(std::span<const double> values);

// ---------------------------------------------------------------- models

/// One benchmark model: the points, weights and kernel an Engine is
/// built from, plus the paper's default threshold τ = μ.
struct Model {
  std::string name;
  karl::data::Matrix points;
  std::vector<double> weights;
  karl::EngineOptions options;
  double tau = 0.0;  ///< Mean F over a fixed probe sample.
};

/// Type-I Gaussian KDE on the `home` simulacrum (100k × 10): Scott
/// bandwidth, uniform weights 1/n.
Model MakeHomeKde();

/// Type-III 2-class SVM on the `a9a` simulacrum (6000 × 123): signed
/// coefficients by side of a fixed hyperplane, γ = 1/d (LIBSVM default).
Model MakeA9aSvm();

/// Builds the model's Engine; aborts with a message on failure.
karl::Engine BuildEngine(const Model& model);
karl::Engine BuildEngine(const Model& model, karl::core::BoundKind bounds);

/// `count` distinct rows of `points` chosen by `seed` (the paper samples
/// its queries from the dataset, §V-A2).
karl::data::Matrix SampleQueries(const karl::data::Matrix& points,
                                 size_t count, uint64_t seed);

/// A permutation of 0..n-1 (Fisher–Yates), deterministic in `seed`.
std::vector<size_t> ShuffledRows(size_t n, uint64_t seed);

/// Exact F(q) for every query row by brute-force scan
/// (core::ExactAggregate), split over `threads` threads.
std::vector<double> ExactScan(const Model& model,
                              const karl::data::Matrix& queries,
                              size_t threads);

/// Wire request line of one single-row query minus its id: the caller
/// appends the id digits and kRequestLineSuffix.
std::string RequestLinePrefix(std::span<const double> q,
                              const std::string& kind, double param);
inline constexpr const char* kRequestLineSuffix = "\"}\n";

/// Creates `path` (and parents); aborts on failure.
void MakeDirs(const std::string& path);

/// Prints "kaqbench: <msg>" to stderr and exits with code 2.
[[noreturn]] void Die(const std::string& msg);

}  // namespace kaqbench

#endif  // KARL_KAQBENCH_SRC_COMMON_H_
