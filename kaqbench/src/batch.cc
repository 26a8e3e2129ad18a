// kde-home-batch: offline library use. Type-I Gaussian KDE on `home`,
// eKAQ at ε = 0.2 through the batch evaluator on a thread pool (the
// caller runs as one executor, so workers + caller = BatchThreads()).

#include <algorithm>
#include <cmath>
#include <memory>

#include "common.h"
#include "core/batch.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace kaqbench {

void RunKdeHomeBatch(const RunOptions& options, Report* report) {
  const Model model = MakeHomeKde();
  const size_t threads = BatchThreads();
  const karl::data::Matrix queries = SampleQueries(
      model.points, kBatchQueries, SeedFor(options.seed, kQuerySalt));
  const size_t n = queries.rows();
  const std::vector<double> exact = ExactScan(model, queries, threads);

  // Set-up: the index build plus the pool. Repeated set-ups rebuild the
  // engine between rounds, spread over the window; the first one's
  // engine serves every round.
  std::vector<double> setup_s;
  std::unique_ptr<karl::util::ThreadPool> pool;
  auto set_up = [&]() {
    const double t0 = NowUs();
    auto engine = std::make_unique<karl::Engine>(BuildEngine(model));
    if (pool == nullptr && threads > 1) {
      pool = std::make_unique<karl::util::ThreadPool>(threads - 1);
    }
    setup_s.push_back((NowUs() - t0) * 1e-6);
    return engine;
  };
  const std::unique_ptr<karl::Engine> engine = set_up();
  const double memory_mb = ResidentMb();

  std::vector<double> row_us(n);
  karl::core::BatchOptions batch_options;
  batch_options.pool = pool.get();
  batch_options.row_observer = [&row_us](size_t row, uint64_t begin_us,
                                         uint64_t end_us,
                                         const karl::core::EvalStats&) {
    row_us[row] = static_cast<double>(end_us - begin_us);
  };
  const karl::core::BatchEvaluator evaluator(*engine, batch_options);

  auto verify = [&](const std::vector<double>& got) {
    uint64_t failed = 0;
    for (size_t i = 0; i < n; ++i) {
      const bool ok = std::isfinite(got[i]) &&
                      std::fabs(got[i] - exact[i]) <= kEkaqEps * exact[i];
      failed += ok ? 0 : 1;
    }
    report->Count(n, failed);
  };

  for (int warm = 0; warm < 2; ++warm) verify(evaluator.Ekaq(queries, kEkaqEps));

  std::vector<double> round_qps;
  std::vector<double> latencies;
  double cpu_s = 0.0;
  uint64_t measured = 0;
  EventSpacer setups(kSetups - 1, options.seconds * 1e6);
  const double start = NowUs();
  while (NowUs() - start < options.seconds * 1e6 || setups.remaining() > 0) {
    if (setups.Due(NowUs() - start)) {
      set_up();
      continue;
    }
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowUs();
    const std::vector<double> got = evaluator.Ekaq(queries, kEkaqEps);
    const double t1 = NowUs();
    cpu_s += ProcessCpuSeconds() - cpu0;
    round_qps.push_back(static_cast<double>(n) / ((t1 - t0) * 1e-6));
    latencies.insert(latencies.end(), row_us.begin(), row_us.end());
    measured += n;
    verify(got);
  }

  std::sort(latencies.begin(), latencies.end());
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("throughput_qps", TrimmedMean(round_qps, kRoundTrim), "q/s");
  // The batch evaluator stamps rows in whole microseconds.
  report->Add("latency_p50_us", GroupedPercentileSorted(latencies, 50, 1.0), "us");
  report->InfoValue("latency_p99_us", GroupedPercentileSorted(latencies, 99, 1.0), "us");
  report->Add("cpu_us_per_query", cpu_s * 1e6 / static_cast<double>(measured),
              "us");
  report->Add("memory_mb", memory_mb, "MiB");
  report->Add("ok_ratio", report->OkRatio(), "ratio");
  report->Info("rounds", std::to_string(round_qps.size()) + " of " +
                             std::to_string(n) + " queries, " +
                             std::to_string(threads) + " threads");
}

}  // namespace kaqbench
