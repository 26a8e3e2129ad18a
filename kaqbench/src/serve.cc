// svm-a9a-serve: the serving path. A Type-III 2-class SVM on `a9a`,
// TKAQ at τ = μ, sent as single NDJSON queries over loopback to an
// in-process server started over a model registry that maps a KSNP
// snapshot. Default telemetry (flight recorder, SLO,
// labeled metrics; no access log, no tracer).
//
// Rounds alternate two phases: an open-loop Poisson phase at a fixed
// rate well under capacity (timed from intended send; reported as run
// facts) and a closed-loop phase with a fixed window in flight, where the
// coalescer forms multi-row groups, which gives throughput and the gated
// latency. The open-loop latency is not gated: it is made of cross-CPU
// wake-ups, whose cost follows the hypervisor's steal — its median moved
// from 205 to 436 us between runs of one 10-run set.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common.h"
#include "loadgen.h"
#include "registry/registry.h"
#include "registry/snapshot.h"
#include "server/server.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace kaqbench {

namespace {

constexpr double kRoundUs = 250e3;
constexpr double kDrainUs = 2e6;

struct Serving {
  std::unique_ptr<karl::registry::ModelRegistry> models;
  std::unique_ptr<karl::server::Server> server;
};

// Opens a registry over the snapshot in `dir`, maps the model (cold
// acquire), starts the server, and waits for one health round trip.
Serving StartServing(const std::string& dir, size_t pool_threads) {
  karl::registry::RegistryOptions registry_options;
  registry_options.default_model = "a9a";
  registry_options.metrics = &karl::telemetry::GlobalRegistry();
  auto models = karl::registry::ModelRegistry::Open(dir, registry_options);
  if (!models.ok()) Die("registry: " + models.status().ToString());
  Serving serving;
  serving.models = std::move(models).ValueOrDie();
  if (auto handle = serving.models->Acquire("a9a"); !handle.ok()) {
    Die("acquire: " + handle.status().ToString());
  }
  karl::server::ServerOptions server_options;
  server_options.threads = pool_threads;
  auto server = karl::server::Server::StartWithRegistry(serving.models.get(),
                                                        server_options);
  if (!server.ok()) Die("server: " + server.status().ToString());
  serving.server = std::move(server).ValueOrDie();
  LoadGenerator probe(serving.server->port(), 1);
  if (probe.HealthRoundTrip() < 0) Die("server failed its health check");
  return serving;
}

// CPU seconds of every thread but the calling one, which runs the load
// generator: the server's share of the process.
double ServerCpuSeconds() { return ProcessCpuSeconds() - ThreadCpuSeconds(); }

void StopServing(Serving* serving) {
  serving->server->Shutdown();
  serving->server.reset();
  serving->models.reset();
}

}  // namespace

void RunSvmA9aServe(const RunOptions& options, Report* report) {
  const size_t nproc = Nproc();
  // Event loop + coalescer dispatcher + pool workers + load generator.
  const size_t pool_threads = nproc > 3 ? nproc - 3 : 1;
  const std::string model_dir = options.workdir + "/serve";
  const std::string source = options.workdir + "/a9a-source.snap";

  // Outside any timed window: the request lines, the reference answers
  // (the in-process Engine and its agreement with the exact scan), and
  // the snapshot the server maps. The model and the reference Engine are
  // dropped before set-up, so the resident set is the server's.
  std::vector<int8_t> expected;
  std::vector<std::string> lines;
  {
    const Model model = MakeA9aSvm();
    const karl::data::Matrix queries = SampleQueries(
        model.points, kServeQueries, SeedFor(options.seed, kQuerySalt));
    const karl::Engine engine = BuildEngine(model);
    const std::vector<double> exact = ExactScan(model, queries, nproc);
    for (size_t i = 0; i < queries.rows(); ++i) {
      const bool above = engine.Tkaq(queries.Row(i), model.tau);
      // A query whose in-process answer disagrees with the exact decision
      // can never verify: mark it so every request for it counts failed.
      expected.push_back(above == (exact[i] > model.tau) ? (above ? 1 : 0) : -2);
      lines.push_back(RequestLinePrefix(queries.Row(i), "tkaq", model.tau));
    }
    if (auto st = karl::registry::WriteSnapshot(source, engine); !st.ok()) {
      Die("WriteSnapshot: " + st.ToString());
    }
  }
  MakeDirs(model_dir);
  std::filesystem::copy_file(source, model_dir + "/a9a.snap",
                             std::filesystem::copy_options::overwrite_existing);

  std::vector<double> setup_s;
  auto timed_setup = [&]() {
    const double t0 = NowUs();
    Serving serving = StartServing(model_dir, pool_threads);
    setup_s.push_back((NowUs() - t0) * 1e-6);
    return serving;
  };
  Serving serving = timed_setup();
  const double memory_mb = ResidentMb();

  // A write to a served model is a hot reload: a new snapshot file
  // renamed over the old one, a registry rescan, and the cold map of the
  // new generation.
  std::vector<double> write_us;
  auto reload = [&]() {
    const double t0 = NowUs();
    const std::string tmp = model_dir + "/a9a.snap.tmp";
    std::filesystem::copy_file(source, tmp,
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::rename(tmp, model_dir + "/a9a.snap");
    if (auto st = serving.models->Reload(); !st.ok()) {
      Die("reload: " + st.ToString());
    }
    if (auto h = serving.models->Acquire("a9a"); !h.ok()) {
      Die("acquire: " + h.status().ToString());
    }
    write_us.push_back(NowUs() - t0);
  };

  LoadGenerator load(serving.server->port(), kConnections);
  size_t cursor = 0;
  // Twice the expected arrivals of a round: never exhausted in practice.
  const size_t per_round = static_cast<size_t>(kOpenLoopRate * kRoundUs * 1e-6 * 2 + 64);
  const uint64_t schedule_seed = SeedFor(options.seed, kScheduleSalt);
  uint64_t schedule_round = 0;
  auto open_round = [&]() {
    const std::vector<double> offsets = PoissonSchedule(
        kOpenLoopRate, per_round, SeedFor(schedule_seed, schedule_round++));
    return load.OpenLoop(lines, &cursor, offsets, kRoundUs, kDrainUs);
  };
  auto closed_round = [&]() {
    return load.ClosedLoop(lines, &cursor, kClosedWindow, kRoundUs, kDrainUs);
  };
  auto tally = [&](const LoadGenerator::Range& range) {
    uint64_t failed = 0;
    uint64_t done = 0;
    for (size_t id = range.first; id < range.last; ++id) {
      const LoadGenerator::Record& r = load.records()[id];
      const bool ok = r.done_us != 0.0 && r.ok && r.above == expected[r.query];
      failed += ok ? 0 : 1;
      done += r.done_us != 0.0 ? 1 : 0;
    }
    report->Count(range.last - range.first, failed);
    return done;
  };

  tally(open_round());  // Warm-up, discarded.
  tally(closed_round());

  std::vector<double> latencies;         // Closed loop.
  std::vector<double> open_latencies;
  std::vector<double> round_qps;
  double cpu_s = 0.0;
  uint64_t completed = 0;
  EventSpacer setups(kSetups - 1, options.seconds * 1e6);
  EventSpacer reloads(kSetups, options.seconds * 1e6);
  const size_t lag_begin = load.lag_us().size();
  const double start = NowUs();
  while (NowUs() - start < options.seconds * 1e6 || setups.remaining() > 0 ||
         reloads.remaining() > 0) {
    const double elapsed = NowUs() - start;
    if (setups.Due(elapsed)) {
      Serving extra = timed_setup();
      StopServing(&extra);
      continue;
    }
    if (reloads.Due(elapsed)) {
      reload();
      continue;
    }
    double cpu0 = ServerCpuSeconds();
    const LoadGenerator::Range open = open_round();
    cpu_s += ServerCpuSeconds() - cpu0;
    completed += tally(open);
    for (size_t id = open.first; id < open.last; ++id) {
      const LoadGenerator::Record& r = load.records()[id];
      if (r.done_us != 0.0) open_latencies.push_back(r.done_us - r.intended_us);
    }
    cpu0 = ServerCpuSeconds();
    const LoadGenerator::Range closed = closed_round();
    cpu_s += ServerCpuSeconds() - cpu0;
    const uint64_t closed_done = tally(closed);
    completed += closed_done;
    for (size_t id = closed.first; id < closed.last; ++id) {
      const LoadGenerator::Record& r = load.records()[id];
      if (r.done_us != 0.0) latencies.push_back(r.done_us - r.intended_us);
    }
    round_qps.push_back(static_cast<double>(closed_done) /
                        ((closed.end_us - closed.start_us) * 1e-6));
  }
  StopServing(&serving);
  std::filesystem::remove_all(model_dir);
  std::filesystem::remove(source);

  std::sort(latencies.begin(), latencies.end());
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("throughput_qps", TrimmedMean(round_qps, kRoundTrim), "q/s");
  report->Add("latency_p50_us", PercentileSorted(latencies, 50), "us");
  report->InfoValue("latency_p99_us", PercentileSorted(latencies, 99), "us");
  std::sort(open_latencies.begin(), open_latencies.end());
  report->InfoValue("open_loop.latency_p50_us", PercentileSorted(open_latencies, 50), "us");
  report->InfoValue("open_loop.latency_p99_us", PercentileSorted(open_latencies, 99), "us");
  report->Add("cpu_us_per_query",
              cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(1, completed)),
              "us");
  report->Add("memory_mb", memory_mb, "MiB");
  report->Add("ok_ratio", report->OkRatio(), "ratio");
  report->InfoValue("write_mean_us", Mean(write_us), "us");

  std::vector<double> lag(load.lag_us().begin() + static_cast<long>(lag_begin),
                          load.lag_us().end());
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%.1f us (p50 %.1f us) over %zu sends",
                Percentile(lag, 99), Percentile(lag, 50), lag.size());
  report->Info("loadgen.lag_p99_us", buf);
  std::snprintf(buf, sizeof(buf), "%zu open-loop and %zu closed-loop latencies, "
                "%zu closed rounds, %zu pool threads", open_latencies.size(),
                latencies.size(), round_qps.size(), pool_threads);
  report->Info("rounds", buf);
}

}  // namespace kaqbench
