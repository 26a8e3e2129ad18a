// kaqbench --self-test: unit checks of the benchmark's own machinery —
// order statistics, the Poisson schedule, seed discipline of every input
// stream, request-line rendering, span self time, event spacing. Prints
// one line per failed check and exits non-zero if any failed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common.h"
#include "report.h"
#include "server/protocol.h"
#include "workloads.h"

namespace kaqbench {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::printf("FAIL: %s\n", what.c_str());
}

void ExpectNear(double got, double want, double tol, const std::string& what) {
  Expect(std::fabs(got - want) <= tol,
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void TestOrderStatistics() {
  ExpectNear(Median({3, 1, 2}), 2, 0, "median of odd count");
  ExpectNear(Median({4, 1, 3, 2}), 2.5, 0, "median of even count");
  ExpectNear(Median({}), 0, 0, "median of empty");
  ExpectNear(Percentile({1, 2, 3, 4, 5}, 0), 1, 0, "p0 is the minimum");
  ExpectNear(Percentile({1, 2, 3, 4, 5}, 100), 5, 0, "p100 is the maximum");
  ExpectNear(Percentile({1, 2, 3, 4, 5}, 50), 3, 0, "p50 of 1..5");
  ExpectNear(Percentile({10, 20}, 25), 12.5, 1e-12, "p25 interpolates");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  ExpectNear(Percentile(hundred, 99), 99.01, 1e-9, "p99 of 1..100");
  // Grouped percentiles: {1,1,2,2} as classes [0.5,1.5) and [1.5,2.5).
  ExpectNear(GroupedPercentileSorted({1, 1, 2, 2}, 50, 1.0), 1.5, 1e-12,
             "grouped median between classes");
  ExpectNear(GroupedPercentileSorted({1, 1, 2, 2}, 25, 1.0), 1.0, 1e-12,
             "grouped p25 inside the first class");
  ExpectNear(GroupedPercentileSorted({5, 5, 5, 5}, 99, 1.0), 5.49, 1e-12,
             "grouped p99 of a constant sample stays in its class");
  ExpectNear(Mean({1, 2, 3, 6}), 3, 0, "mean");
  ExpectNear(TrimmedMean({100, 1, 2, 3, 4, 5, 6, 7, 8, -50}, 0.1), 4.5, 1e-12,
             "trimmed mean drops one value at each end of ten");
  ExpectNear(TrimmedMean({1, 2, 3, 10}, 0.2), 4, 1e-12,
             "trimmed mean keeps all when floor(trim n) is 0");
  ExpectNear(TrimmedMean({1, 2, 30}, 0.4), 2, 0,
             "trimmed mean of one remaining value");
}

void TestPoissonSchedule() {
  const std::vector<double> a = PoissonSchedule(2000, 20000, 7);
  const std::vector<double> b = PoissonSchedule(2000, 20000, 7);
  const std::vector<double> c = PoissonSchedule(2000, 20000, 8);
  Expect(Fnv1a(a) == Fnv1a(b), "same seed gives the same schedule");
  Expect(Fnv1a(a) != Fnv1a(c), "another seed changes the schedule");
  bool increasing = a[0] > 0;
  size_t short_gaps = 0;
  for (size_t i = 1; i < a.size(); ++i) {
    increasing = increasing && a[i] > a[i - 1];
    // Exponential gaps: half of them lie below mean · ln 2.
    short_gaps += (a[i] - a[i - 1]) < 500.0 * std::log(2.0) ? 1 : 0;
  }
  Expect(increasing, "arrival offsets strictly increase");
  ExpectNear(a.back() / static_cast<double>(a.size()), 500.0, 15.0,
             "mean gap is 1/rate (500 us at 2000/s)");
  ExpectNear(static_cast<double>(short_gaps) / static_cast<double>(a.size() - 1), 0.5,
             0.02, "gap median is mean * ln 2");
}

void TestSeedDiscipline() {
  const karl::data::Matrix points = [] {
    std::vector<double> flat(500 * 3);
    for (size_t i = 0; i < flat.size(); ++i) flat[i] = static_cast<double>(i) * 0.001;
    return karl::data::Matrix(500, 3, flat);
  }();
  auto queries = [&](uint64_t seed) {
    return SampleQueries(points, 64, SeedFor(seed, kQuerySalt));
  };
  auto lines = [&](uint64_t seed) {
    const karl::data::Matrix q = queries(seed);
    std::string all;
    for (size_t i = 0; i < q.rows(); ++i) all += RequestLinePrefix(q.Row(i), "tkaq", 0.25);
    return Fnv1a(std::span<const char>(all.data(), all.size()));
  };
  Expect(Fnv1a(queries(1).Flat()) == Fnv1a(queries(1).Flat()),
         "same seed gives byte-identical query sets");
  Expect(Fnv1a(queries(1).Flat()) != Fnv1a(queries(2).Flat()),
         "another seed changes the query set");
  Expect(lines(1) == lines(1), "same seed gives byte-identical request lines");
  Expect(lines(1) != lines(2), "another seed changes the request lines");
  const std::vector<size_t> o1 = ShuffledRows(1000, SeedFor(1, kChurnOrderSalt));
  const std::vector<size_t> o2 = ShuffledRows(1000, SeedFor(2, kChurnOrderSalt));
  Expect(o1 == ShuffledRows(1000, SeedFor(1, kChurnOrderSalt)),
         "same seed gives the same churn order");
  Expect(o1 != o2, "another seed changes the churn order");
  std::vector<size_t> sorted = o1;
  std::sort(sorted.begin(), sorted.end());
  bool permutation = true;
  for (size_t i = 0; i < sorted.size(); ++i) permutation = permutation && sorted[i] == i;
  Expect(permutation, "churn order is a permutation");
  Expect(SeedFor(1, kQuerySalt) != SeedFor(1, kScheduleSalt),
         "input streams of one seed are independent");
}

void TestRequestLine() {
  const std::vector<double> q = {0.1, 1.0 / 3.0, 2e-300};
  const std::string line = RequestLinePrefix(q, "tkaq", 0.7) + "42" + "\"}";
  auto request = karl::server::ParseRequest(line);
  Expect(request.ok(), "request line parses: " + line);
  if (!request.ok()) return;
  const auto row = request.value().queries.Row(0);
  Expect(std::equal(row.begin(), row.end(), q.begin(), q.end()),
         "query round-trips bit for bit");
  Expect(request.value().id == "42", "id round-trips");
  Expect(request.value().param == 0.7, "tau round-trips");
  Expect(request.value().kind == karl::server::QueryKind::kTkaq, "kind is tkaq");
}

void TestSpanSelfTime() {
  SpanTracer tracer;
  {
    SpanTracer::Scope parent(&tracer, "parent");
    const double s = NowUs();
    // Children [10, 30], [20, 50], [60, 70] µs after s: their union
    // covers 50 µs of the parent. One more lies wholly before the parent
    // and is clipped away.
    tracer.Add("child", s + 10, s + 30);
    tracer.Add("child", s + 20, s + 50);
    tracer.Add("child", s + 60, s + 70);
    tracer.Add("child", s - 1e6, s - 1e6 + 5);
    while (NowUs() < s + 100) {
    }
  }
  const std::vector<SpanTracer::SelfTime> times = tracer.SelfTimes();
  Expect(times.size() == 2, "two span names");
  for (const auto& t : times) {
    if (t.name == "parent") {
      Expect(t.count == 1 && t.total_us >= 100, "parent span covers the wait");
      ExpectNear(t.self_us, t.total_us - 50, 1e-3, "parent self time excludes children");
    } else {
      Expect(t.count == 4, "four children");
      ExpectNear(t.self_us, 20 + 30 + 10 + 5, 1e-3, "childless spans are all self time");
    }
  }
}

void TestEventSpacer() {
  EventSpacer spacer(4, 100.0);
  std::vector<double> fired;
  for (double t = 0; t <= 100.0; t += 0.5) {
    if (spacer.Due(t)) fired.push_back(t);
  }
  Expect(fired == std::vector<double>{12.5, 37.5, 62.5, 87.5},
         "events fall due at (j + 0.5) / count of the window");
  Expect(spacer.remaining() == 0, "all events consumed");
}

}  // namespace

int RunSelfTests() {
  TestOrderStatistics();
  TestPoissonSchedule();
  TestSeedDiscipline();
  TestRequestLine();
  TestSpanSelfTime();
  TestEventSpacer();
  std::printf("kaqbench self-test: %s (%d failed checks)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace kaqbench
