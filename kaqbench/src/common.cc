#include "common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.h"
#include "core/evaluator.h"
#include "server/json.h"
#include "util/rng.h"

namespace kaqbench {

using karl::data::Matrix;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, p);
}

double GroupedPercentileSorted(const std::vector<double>& sorted, double p,
                               double width) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * n;  // In [0, n].
  const size_t at = static_cast<size_t>(
      std::clamp(std::ceil(rank) - 1.0, 0.0, n - 1.0));
  const double v = sorted[at];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v);
  const double below = static_cast<double>(lo - sorted.begin());
  const double count = static_cast<double>(hi - lo);
  return v - 0.5 * width + (rank - below) / count * width;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double TrimmedMean(std::vector<double> values, double trim) {
  const size_t cut = static_cast<size_t>(
      std::floor(trim * static_cast<double>(values.size())));
  if (values.empty() || 2 * cut >= values.size()) return Median(values);
  std::sort(values.begin(), values.end());
  return Mean(std::vector<double>(values.begin() + static_cast<long>(cut),
                                  values.end() - static_cast<long>(cut)));
}

std::vector<double> PoissonSchedule(double rate_per_s, size_t count,
                                    uint64_t seed) {
  karl::util::Rng rng(seed);
  std::vector<double> offsets(count);
  const double mean_gap_us = 1e6 / rate_per_s;
  double t = 0.0;
  for (double& offset : offsets) {
    // 1 - U lies in (0, 1], so the log is finite and the gap positive.
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_us;
    offset = t;
  }
  return offsets;
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ResidentMb() {
  // Hand free heap pages back first. Otherwise the figure follows where
  // the allocator happened to leave a few multi-MiB blocks freed during
  // set-up: kde-home-churn read 40.8 or 47.8 MiB depending on the seed,
  // with the same bytes in use.
  ::malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double ThreadCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

size_t Nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

CpuJiffies ReadCpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string line;
  std::getline(stat, line);
  std::istringstream in(line);
  std::string label;
  in >> label;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  uint64_t fields[8] = {};
  CpuJiffies out;
  for (int i = 0; i < 8 && (in >> fields[i]); ++i) out.total += fields[i];
  out.iowait = fields[4];
  out.steal = fields[7];
  return out;
}

HostShares SharesBetween(const CpuJiffies& begin, const CpuJiffies& end) {
  HostShares shares;
  if (end.total <= begin.total) return shares;
  const double total = static_cast<double>(end.total - begin.total);
  shares.steal_pct = 100.0 * static_cast<double>(end.steal - begin.steal) / total;
  shares.iowait_pct =
      100.0 * static_cast<double>(end.iowait - begin.iowait) / total;
  return shares;
}

uint64_t SeedFor(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(std::span<const char> bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return h;
}

uint64_t Fnv1a(std::span<const double> values) {
  return Fnv1a(std::span<const char>(
      reinterpret_cast<const char*>(values.data()),
      values.size() * sizeof(double)));
}

namespace {

// The models are seed-independent: they are part of the workload's
// definition, like a dataset file. They are the Table VII harness's
// workloads (bench/bench_common.h) — same simulacrum, weights, kernel and
// τ = μ over its probe queries — so the numbers line up with its results.
// The harness's own query sample is dropped: the benchmark samples its
// queries from the seed.
constexpr size_t kHarnessQueries = 150;

Model FromWorkload(karl::bench::Workload workload) {
  Model model;
  model.name = workload.dataset;
  model.points = std::move(workload.points);
  model.weights = std::move(workload.weights);
  model.options.kernel = workload.kernel;
  model.tau = workload.tau;
  return model;
}

}  // namespace

Model MakeHomeKde() {
  return FromWorkload(karl::bench::MakeTypeIWorkload("home", kHarnessQueries));
}

Model MakeA9aSvm() {
  return FromWorkload(karl::bench::MakeTypeIIIWorkload("a9a", kHarnessQueries));
}

karl::Engine BuildEngine(const Model& model) {
  return BuildEngine(model, model.options.bounds);
}

karl::Engine BuildEngine(const Model& model, karl::core::BoundKind bounds) {
  karl::EngineOptions options = model.options;
  options.bounds = bounds;
  auto engine = karl::Engine::Build(model.points, model.weights, options);
  if (!engine.ok()) Die("Engine::Build: " + engine.status().ToString());
  return std::move(engine).ValueOrDie();
}

Matrix SampleQueries(const Matrix& points, size_t count, uint64_t seed) {
  karl::util::Rng rng(seed);
  return points.SelectRows(
      rng.SampleWithoutReplacement(points.rows(), std::min(count, points.rows())));
}

std::vector<size_t> ShuffledRows(size_t n, uint64_t seed) {
  karl::util::Rng rng(seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.UniformInt(i))]);
  }
  return order;
}

std::vector<double> ExactScan(const Model& model, const Matrix& queries,
                              size_t threads) {
  std::vector<double> exact(queries.rows());
  threads = std::max<size_t>(1, std::min(threads, queries.rows()));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < queries.rows(); i += threads) {
        exact[i] = karl::core::ExactAggregate(model.points, model.weights,
                                              model.options.kernel,
                                              queries.Row(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  return exact;
}

std::string RequestLinePrefix(std::span<const double> q,
                              const std::string& kind, double param) {
  using karl::server::Json;
  Json row = Json::Array();
  for (const double v : q) row.Append(Json::Number(v));
  Json request = Json::Object();
  request.Set("op", Json::Str("query"));
  request.Set("kind", Json::Str(kind));
  request.Set("q", std::move(row));
  if (kind == "tkaq") request.Set("tau", Json::Number(param));
  if (kind == "ekaq") request.Set("eps", Json::Number(param));
  // Dump() closes the object; reopen it for the trailing "id" field.
  std::string line = request.Dump();
  line.pop_back();
  line += ",\"id\":\"";
  return line;
}

void MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) Die("cannot create " + path + ": " + ec.message());
}

void Die(const std::string& msg) {
  std::fprintf(stderr, "kaqbench: %s\n", msg.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

}  // namespace kaqbench
