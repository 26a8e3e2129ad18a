// kde-home-churn: writes beside reads on one evaluator. A DynamicEngine
// over the `home` Type-I model, seeded with half the points; one thread
// runs fixed steps — Insert a new point, Remove the oldest live one, then
// TKAQ at τ = μ — under the default rebuild_fraction, so the delta buffer
// grows step by step and a rebuild resets it every cycle.
//
// The cost of a step follows that sawtooth, so the timed window is made of
// whole rebuild cycles: throughput is the reciprocal of the per-cycle mean
// step time, averaged over cycles without the slowest and fastest tenth.
//
// Every answer is verified: the reference keeps, per distinct query, the
// exact sum over the live multiset, updated on each write by a replay of
// the recorded steps (outside the timed steps), and re-derived by a
// brute-force scan of the live multiset at the checkpoints that open and
// close the window.

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "churn_loop.h"
#include "common.h"
#include "core/kernel.h"
#include "workloads.h"

namespace kaqbench {

namespace {

constexpr size_t kSegmentSteps = 256;

}  // namespace

void RunKdeHomeChurn(const RunOptions& options, Report* report) {
  const Model model = MakeHomeKde();
  const size_t n = model.points.rows();
  const double tau = model.tau;
  const auto& kernel = model.options.kernel;

  const std::vector<size_t> order =
      ShuffledRows(n, SeedFor(options.seed, kChurnOrderSalt));
  const karl::data::Matrix queries = SampleQueries(
      model.points, kChurnQueries, SeedFor(options.seed, kQuerySalt));
  const size_t nq = queries.rows();

  std::vector<double> setup_s;
  auto timed_setup = [&]() {
    const double t0 = NowUs();
    auto churn = std::make_unique<ChurnLoop>(model, order);
    setup_s.push_back((NowUs() - t0) * 1e-6);
    return churn;
  };
  const std::unique_ptr<ChurnLoop> churn = timed_setup();
  const double memory_mb = ResidentMb();

  // Reference sums per distinct query over the live multiset.
  std::vector<long double> reference(nq, 0.0L);
  // Brute force over the live multiset, on every CPU (outside the timed
  // steps).
  auto brute_force = [&]() {
    std::vector<long double> sums(nq);
    std::vector<std::thread> workers;
    const size_t threads = Nproc();
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t j = t; j < nq; j += threads) {
          sums[j] = churn->BruteForce(queries.Row(j));
        }
      });
    }
    for (auto& w : workers) w.join();
    return sums;
  };
  uint64_t checkpoint_failures = 0;
  auto checkpoint = [&]() {
    const std::vector<long double> fresh = brute_force();
    for (size_t j = 0; j < nq; ++j) {
      const long double drift = std::fabs(fresh[j] - reference[j]);
      if (drift > 1e-12L * (fresh[j] + churn->Weight(order[0]))) ++checkpoint_failures;
    }
    reference = fresh;
  };
  reference = brute_force();

  // Replays a segment's writes against the reference, then checks its
  // answers.
  auto verify_segment = [&](const std::vector<ChurnStep>& steps) {
    uint64_t failed = 0;
    for (const ChurnStep& s : steps) {
      const double w_in = churn->Weight(s.inserted_row);
      const double w_out = churn->Weight(s.removed_row);
      for (size_t j = 0; j < nq; ++j) {
        const auto q = queries.Row(j);
        reference[j] +=
            w_in * karl::core::KernelValue(kernel, q, model.points.Row(s.inserted_row)) -
            w_out * karl::core::KernelValue(kernel, q, model.points.Row(s.removed_row));
      }
      const bool want = reference[s.query] > tau;
      failed += (s.write_ok && s.above == want) ? 0 : 1;
    }
    report->Count(steps.size(), failed);
  };

  // Warm-up: run to the first rebuild so the window starts on a cycle
  // boundary.
  std::vector<ChurnStep> segment;
  for (bool rebuilt = false; !rebuilt;) {
    churn->Run(queries, tau, 1, &segment);
    verify_segment(segment);
    rebuilt = segment[0].rebuilt();
  }
  checkpoint();

  // Timed window: whole cycles until the budget is spent.
  std::vector<std::vector<ChurnStep>> cycles(1);
  double cpu_s = 0.0;
  uint64_t cpu_steps = 0;
  EventSpacer setups(kSetups - 1, options.seconds * 1e6);
  const double start = NowUs();
  double last_cycle_end = start;
  std::vector<double> cycle_us;
  for (;;) {
    if (setups.Due(NowUs() - start)) {
      timed_setup();  // Discarded: only its time is kept.
      continue;
    }
    const double cpu0 = ProcessCpuSeconds();
    churn->Run(queries, tau, kSegmentSteps, &segment);
    cpu_s += ProcessCpuSeconds() - cpu0;
    cpu_steps += segment.size();
    verify_segment(segment);
    for (const ChurnStep& s : segment) {
      cycles.back().push_back(s);
      if (!s.rebuilt()) continue;
      const double now = NowUs();
      cycle_us.push_back(now - last_cycle_end);
      last_cycle_end = now;
      cycles.emplace_back();
    }
    // Stop on a cycle boundary once another cycle would overrun.
    const double elapsed = NowUs() - start;
    const double typical = cycle_us.empty() ? 0.0 : Median(cycle_us);
    if (cycles.size() > 1 && setups.remaining() == 0 &&
        elapsed + 0.5 * typical >= options.seconds * 1e6 &&
        cycles.back().size() < kSegmentSteps) {
      break;
    }
  }
  // Steps after the last rebuild are a partial cycle: verified, not timed.
  cycles.pop_back();
  checkpoint();
  report->Count(0, checkpoint_failures);

  // Per cycle: the mean time of a step and of a write.
  std::vector<double> step_us;
  std::vector<double> write_us;
  std::vector<double> latencies;
  uint64_t measured = 0;
  for (const auto& cycle : cycles) {
    double step_sum = 0.0;
    double write_sum = 0.0;
    for (const ChurnStep& s : cycle) {
      step_sum += s.insert_us + s.remove_us + s.query_us;
      write_sum += s.insert_us + s.remove_us;
      latencies.push_back(s.query_us);
    }
    const double steps = static_cast<double>(cycle.size());
    step_us.push_back(step_sum / steps);
    write_us.push_back(write_sum / (2.0 * steps));
    measured += cycle.size();
  }

  std::sort(latencies.begin(), latencies.end());
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("throughput_qps", 1e6 / TrimmedMean(step_us, kRoundTrim), "q/s");
  report->Add("latency_p50_us", PercentileSorted(latencies, 50), "us");
  report->InfoValue("latency_p99_us", PercentileSorted(latencies, 99), "us");
  // CPU of every timed segment, including steps of the trailing partial
  // cycle, per query of those segments.
  report->Add("cpu_us_per_query",
              cpu_s * 1e6 / static_cast<double>(cpu_steps), "us");
  report->Add("memory_mb", memory_mb, "MiB");
  report->Add("ok_ratio", report->OkRatio(), "ratio");
  report->InfoValue("write_mean_us", TrimmedMean(write_us, kRoundTrim), "us");
  report->Info("rounds", std::to_string(cycles.size()) + " rebuild cycles of " +
                             std::to_string(cycles.empty() ? 0 : cycles[0].size()) +
                             " steps, " + std::to_string(measured) + " timed steps");
}

}  // namespace kaqbench
