// The traced run (--trace 1): the layer ladder on the workload's model.
//
// Every rung times calls into one module's public functions from the
// outside, inside spans recorded by the benchmark (report.h SpanTracer),
// so the cost each rung adds is a subtraction:
//
//   index      Engine::Build, Engine::MemoryUsageBytes
//   core       Engine::Ekaq / Tkaq per query, EvalStats counts
//   simd       simd::LeafAggregate over the engine's SoA leaf blocks
//   bounds     the same queries under BoundKind::kSota and Engine::Exact
//   batch      BatchEvaluator on 1 thread and on the pool (util::ThreadPool)
//   dynamic    the churn workload's step loop (churn_loop.h): DynamicEngine
//              Insert / Remove / Tkaq across rebuilds
//   registry   WriteSnapshot, MappedSnapshot::Map, ModelRegistry
//   protocol   ParseRequest, Ok*Response
//   coalescer  Coalescer::Enqueue → completion sink
//   server     loopback health and query round trips, default telemetry
//              against access log + tracer on
//   loadgen    one open-loop phase: generator lateness, sent, failed
//
// Timed variants of one rung run in interleaved rounds after a discarded
// warm-up round; exact counts come from fixed work and repeat run to run
// at a fixed seed. The spans are written once, at exit, as Chrome trace
// JSON; the self-time table (span time minus its children) is printed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>

#include "churn_loop.h"
#include "common.h"
#include "core/batch.h"
#include "core/dynamic_engine.h"
#include "core/kernel.h"
#include "core/simd/simd.h"
#include "loadgen.h"
#include "registry/registry.h"
#include "registry/snapshot.h"
#include "server/coalescer.h"
#include "server/protocol.h"
#include "server/server.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/log.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace kaqbench {

namespace {

using karl::data::Matrix;

constexpr size_t kLadderQueries = 256;  // Fixed work of the count rungs.
constexpr size_t kBoundQueries = 64;    // Per KARL/SOTA/SCAN round.
constexpr size_t kLeafQueries = 8;      // Per SIMD leaf round.
constexpr size_t kBurst = 16;           // Pipelined coalescer items.

// The query form a workload asks: eKAQ at ε or TKAQ at τ.
struct Spec {
  Model model;
  bool ekaq = false;
  double param = 0.0;
  std::string kind;   // Wire name.
  std::string label;  // Table VII row, e.g. "home I-eps".
};

Spec SpecFor(const std::string& workload) {
  Spec spec;
  if (workload == "svm-a9a-serve") {
    spec.model = MakeA9aSvm();
    spec.param = spec.model.tau;
    spec.label = "a9a III-tau";
  } else {
    spec.model = MakeHomeKde();
    spec.ekaq = workload == "kde-home-batch";
    spec.param = spec.ekaq ? kEkaqEps : spec.model.tau;
    spec.label = spec.ekaq ? "home I-eps" : "home I-tau";
  }
  spec.kind = spec.ekaq ? "ekaq" : "tkaq";
  return spec;
}

// One answer of either query form, comparable bit for bit.
double Answer(const Spec& spec, const karl::Engine& engine,
              std::span<const double> q, karl::core::EvalStats* stats = nullptr) {
  return spec.ekaq ? engine.Ekaq(q, spec.param, stats)
                   : (engine.Tkaq(q, spec.param, stats) ? 1.0 : 0.0);
}

bool MatchesExact(const Spec& spec, double answer, double exact) {
  return spec.ekaq ? std::fabs(answer - exact) <= kEkaqEps * exact
                   : (answer == 1.0) == (exact > spec.param);
}

std::string OkResponse(const Spec& spec, const std::string& id, double answer) {
  return spec.ekaq ? karl::server::OkValueResponse(id, answer)
                   : karl::server::OkBoolResponse(id, answer == 1.0);
}

// Runs the variants in interleaved rounds — one round of each per cycle,
// the first cycle discarded — until `budget_us` is spent and at least
// `min_cycles` cycles are kept. Returns each variant's kept round values.
std::vector<std::vector<double>> Interleave(
    double budget_us, size_t min_cycles,
    const std::vector<std::function<double()>>& variants) {
  std::vector<std::vector<double>> kept(variants.size());
  for (const auto& variant : variants) variant();
  const double start = NowUs();
  while (kept[0].size() < min_cycles || NowUs() - start < budget_us) {
    for (size_t v = 0; v < variants.size(); ++v) kept[v].push_back(variants[v]());
  }
  return kept;
}

class Ladder {
 public:
  Ladder(const RunOptions& options, Report* report)
      : options_(options),
        report_(report),
        spec_(SpecFor(options.workload)),
        queries_(SampleQueries(spec_.model.points, kLadderQueries,
                               SeedFor(options.seed, kQuerySalt))),
        threads_(BatchThreads()),
        budget_us_(options.seconds * 1e6) {
    exact_ = ExactScan(spec_.model, queries_, threads_);
    for (const double w : spec_.model.weights) mass_ += std::fabs(w);
    for (size_t i = 0; i < queries_.rows(); ++i) {
      lines_.push_back(RequestLinePrefix(queries_.Row(i), spec_.kind, spec_.param));
    }
  }

  void Run() {
    const CpuJiffies host0 = ReadCpuJiffies();
    {
      SpanTracer::Scope root(&tracer_, "ladder");
      Index();
      Core();
      Simd();
      Bounds();
      Batch();
      Dynamic();
      Registry();
      Protocol();
      Coalescer();
      Server();
    }
    const HostShares host = SharesBetween(host0, ReadCpuJiffies());
    report_->Add("host.steal_pct", host.steal_pct, "%");
    report_->Add("host.iowait_pct", host.iowait_pct, "%");
    report_->Add("trace.spans", static_cast<double>(tracer_.size()), "count");
    report_->Add("latency_p99_us", workload_p99_us_, "us");
    PrintSelfTimes();
    const std::string path = options_.workdir + "/trace-" + options_.workload +
                             "-seed" + std::to_string(options_.seed) + ".json";
    if (!tracer_.WriteChromeJson(path)) Die("cannot write " + path);
    report_->Info("trace_json", path);
  }

 private:
  // Verified answers count toward the run's tally.
  void Check(bool ok) { report_->Count(1, ok ? 0 : 1); }

  void Index() {
    SpanTracer::Scope rung(&tracer_, "rung.index");
    std::vector<double> build_s;
    for (int i = 0; i < 3; ++i) {
      SpanTracer::Scope span(&tracer_, "index.build");
      const double t0 = NowUs();
      engine_ = std::make_unique<karl::Engine>(BuildEngine(spec_.model));
      build_s.push_back((NowUs() - t0) * 1e-6);
    }
    report_->Add("index.build_s", Median(build_s), "s");
    report_->Add("index.bytes", static_cast<double>(engine_->MemoryUsageBytes()), "B");
  }

  void Core() {
    SpanTracer::Scope rung(&tracer_, "rung.core");
    // Exact counts over the fixed query set, verified against the scan.
    karl::core::EvalStats stats;
    for (size_t i = 0; i < queries_.rows(); ++i) {
      Check(MatchesExact(spec_, Answer(spec_, *engine_, queries_.Row(i), &stats),
                         exact_[i]));
    }
    const double nq = static_cast<double>(queries_.rows());
    report_->Add("core.iterations_per_query", static_cast<double>(stats.iterations) / nq, "count");
    report_->Add("core.nodes_expanded_per_query",
                 static_cast<double>(stats.nodes_expanded) / nq, "count");
    report_->Add("core.kernel_evals_per_query",
                 static_cast<double>(stats.kernel_evals) / nq, "count");
    kernel_evals_per_query_ = static_cast<double>(stats.kernel_evals) / nq;

    // Per-query time, untraced and with one span per query: the
    // difference is the tracing overhead.
    auto round = [&](bool traced) {
      const double t0 = NowUs();
      for (size_t i = 0; i < queries_.rows(); ++i) {
        SpanTracer::Scope span(traced ? &tracer_ : nullptr, "core.query", i + 1);
        Answer(spec_, *engine_, queries_.Row(i));
      }
      return (NowUs() - t0) / nq;
    };
    const auto kept = Interleave(0.15 * budget_us_, 5,
                                 {[&] { return round(false); }, [&] { return round(true); }});
    eval_us_ = Median(kept[0]);
    report_->Add("core.eval_us", eval_us_, "us");
    report_->Add("trace.overhead_pct", 100.0 * (Median(kept[1]) - eval_us_) / eval_us_, "%");
  }

  void Simd() {
    SpanTracer::Scope rung(&tracer_, "rung.simd");
    const auto& kernel = spec_.model.options.kernel;
    const auto& soa = engine_->plus_tree().soa();
    const auto rows = static_cast<uint32_t>(soa.rows());
    std::vector<double> plus(kLeafQueries);
    auto round = [&] {
      SpanTracer::Scope span(&tracer_, "simd.leaf_aggregate");
      const double t0 = NowUs();
      for (size_t i = 0; i < kLeafQueries; ++i) {
        plus[i] = karl::core::simd::LeafAggregate(kernel, soa, 0, rows, queries_.Row(i));
      }
      return (NowUs() - t0) * 1e3 / (static_cast<double>(rows) * kLeafQueries);
    };
    const auto kept = Interleave(0.05 * budget_us_, 5, {round});
    const double ns = Median(kept[0]);
    report_->Add("simd.leaf_ns_per_point", ns, "ns");
    report_->Add("core.leaf_share", kernel_evals_per_query_ * ns * 1e-3 / eval_us_, "ratio");
    // Whole-tree leaf sums: F = plus − minus, within the SIMD tiers'
    // tolerance relative to the mass Σ|w|.
    const karl::index::TreeIndex* minus_tree = engine_->minus_tree();
    for (size_t i = 0; i < kLeafQueries; ++i) {
      double minus = 0.0;
      if (minus_tree != nullptr) {
        const auto& m = minus_tree->soa();
        minus = karl::core::simd::LeafAggregate(kernel, m, 0, static_cast<uint32_t>(m.rows()),
                                                queries_.Row(i));
      }
      Check(std::fabs(plus[i] - minus - exact_[i]) <=
            karl::core::simd::kLeafSumRelTolerance * (std::fabs(exact_[i]) + mass_));
    }
  }

  void Bounds() {
    SpanTracer::Scope rung(&tracer_, "rung.bounds");
    const karl::Engine sota = BuildEngine(spec_.model, karl::core::BoundKind::kSota);
    const size_t nq = std::min(kBoundQueries, queries_.rows());
    auto round = [&](const char* name, const std::function<double(size_t)>& run) {
      SpanTracer::Scope span(&tracer_, name);
      const double t0 = NowUs();
      for (size_t i = 0; i < nq; ++i) Check(run(i));
      return static_cast<double>(nq) / ((NowUs() - t0) * 1e-6);
    };
    const auto kept = Interleave(
        0.15 * budget_us_, 3,
        {[&] {
           return round("bounds.karl", [&](size_t i) {
             return MatchesExact(spec_, Answer(spec_, *engine_, queries_.Row(i)), exact_[i]);
           });
         },
         [&] {
           return round("bounds.sota", [&](size_t i) {
             return MatchesExact(spec_, Answer(spec_, sota, queries_.Row(i)), exact_[i]);
           });
         },
         [&] {
           return round("bounds.scan", [&](size_t i) {
             // Leaf sums may differ from the scalar scan within the SIMD
             // tiers' tolerance (core/simd/simd.h), relative to the mass.
             const double f = engine_->Exact(queries_.Row(i));
             return std::fabs(f - exact_[i]) <=
                    karl::core::simd::kLeafSumRelTolerance * (std::fabs(exact_[i]) + mass_);
           });
         }});
    const double karl_qps = Median(kept[0]);
    const double sota_qps = Median(kept[1]);
    const double scan_qps = Median(kept[2]);
    report_->Add("core.karl_over_sota", karl_qps / sota_qps, "ratio");
    report_->Add("core.sota_over_scan", sota_qps / scan_qps, "ratio");
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s  KARL %.0f q/s  SOTA %.0f q/s  SCAN %.0f q/s  %s",
                  spec_.label.c_str(), karl_qps, sota_qps, scan_qps,
                  karl_qps < sota_qps   ? "FLAG: KARL < SOTA"
                  : sota_qps < scan_qps ? "FLAG: SOTA < SCAN"
                                        : "shape ok (KARL >= SOTA >= SCAN)");
    report_->Info("table7", row);
  }

  void Batch() {
    SpanTracer::Scope rung(&tracer_, "rung.batch");
    std::unique_ptr<karl::util::ThreadPool> pool;
    if (threads_ > 1) pool = std::make_unique<karl::util::ThreadPool>(threads_ - 1);
    const double nq = static_cast<double>(queries_.rows());
    // Per-row evaluation times stamped by the batch evaluator (whole µs).
    std::vector<double> row_us(queries_.rows());
    std::vector<double> nt_row_us;
    auto round = [&](const char* name, karl::util::ThreadPool* p) {
      karl::core::BatchOptions batch_options;
      batch_options.pool = p;
      batch_options.row_observer = [&row_us](size_t row, uint64_t begin_us, uint64_t end_us,
                                             const karl::core::EvalStats&) {
        row_us[row] = static_cast<double>(end_us - begin_us);
      };
      const karl::core::BatchEvaluator evaluator(*engine_, batch_options);
      SpanTracer::Scope span(&tracer_, name);
      const double t0 = NowUs();
      std::vector<double> got;
      if (spec_.ekaq) {
        got = evaluator.Ekaq(queries_, spec_.param);
      } else {
        const auto above = evaluator.Tkaq(queries_, spec_.param);
        got.assign(above.begin(), above.end());
      }
      const double qps = nq / ((NowUs() - t0) * 1e-6);
      for (size_t i = 0; i < got.size(); ++i) Check(MatchesExact(spec_, got[i], exact_[i]));
      if (p != nullptr) nt_row_us.insert(nt_row_us.end(), row_us.begin(), row_us.end());
      return qps;
    };
    const auto kept = Interleave(0.15 * budget_us_, 5,
                                 {[&] { return round("batch.call_1t", nullptr); },
                                  [&] { return round("batch.call_nt", pool.get()); }});
    const double one = Median(kept[0]);
    const double many = Median(kept[1]);
    report_->Add("batch.qps_1t", one, "q/s");
    report_->Add("batch.qps_nt", many, "q/s");
    report_->Add("batch.scaling", many / one, "ratio");
    if (options_.workload == "kde-home-batch") {
      std::sort(nt_row_us.begin(), nt_row_us.end());
      workload_p99_us_ = GroupedPercentileSorted(nt_row_us, 99, 1.0);
    }
  }

  // Fixed work: half the points live, then 2.5 rebuild cycles of
  // insert / remove-oldest / TKAQ steps, as in kde-home-churn.
  void Dynamic() {
    SpanTracer::Scope rung(&tracer_, "rung.dynamic");
    const Matrix& points = spec_.model.points;
    const std::vector<size_t> order =
        ShuffledRows(points.rows(), SeedFor(options_.seed, kChurnOrderSalt));
    std::unique_ptr<ChurnLoop> churn;
    {
      SpanTracer::Scope span(&tracer_, "dynamic.seed_half");
      churn = std::make_unique<ChurnLoop>(spec_.model, order);
    }
    // Two and a half rebuild cycles of the default rebuild_fraction.
    const size_t cycle = static_cast<size_t>(
        karl::core::DynamicEngine::Options{}.rebuild_fraction *
        static_cast<double>(points.rows() / 2) / 2.0);
    const size_t steps = cycle * 5 / 2;
    const size_t rebuilds0 = churn->engine().rebuild_count();
    // In chunks; the last step of each chunk is checked against a brute
    // force over the live multiset it was asked on.
    const size_t chunk = std::max<size_t>(1, steps / 16);
    std::vector<ChurnStep> records;
    std::vector<ChurnStep> part;
    for (size_t done = 0; done < steps; done += part.size()) {
      churn->Run(queries_, spec_.model.tau, std::min(chunk, steps - done), &part,
                 &tracer_);
      const ChurnStep& s = part.back();
      Check(s.above == (churn->BruteForce(queries_.Row(s.query)) > spec_.model.tau));
      records.insert(records.end(), part.begin(), part.end());
    }
    // A write that triggered a rebuild counts as one rebuild, not a write.
    std::vector<double> insert_us, remove_us, rebuild_ms, query_us;
    double delta_rows = 0.0;
    for (const ChurnStep& s : records) {
      (s.insert_rebuilt ? rebuild_ms : insert_us)
          .push_back(s.insert_rebuilt ? s.insert_us * 1e-3 : s.insert_us);
      (s.remove_rebuilt ? rebuild_ms : remove_us)
          .push_back(s.remove_rebuilt ? s.remove_us * 1e-3 : s.remove_us);
      query_us.push_back(s.query_us);
      delta_rows += static_cast<double>(s.delta_rows);
      Check(s.write_ok);
    }
    report_->Add("dynamic.insert_us", Median(insert_us), "us");
    report_->Add("dynamic.remove_us", Median(remove_us), "us");
    report_->Add("dynamic.rebuild_ms", Median(rebuild_ms), "ms");
    report_->Add("dynamic.rebuilds",
                 static_cast<double>(churn->engine().rebuild_count() - rebuilds0), "count");
    report_->Add("dynamic.query_us", Mean(query_us), "us");
    if (options_.workload == "kde-home-churn") workload_p99_us_ = Percentile(query_us, 99);
    report_->Add("dynamic.delta_rows_mean", delta_rows / static_cast<double>(steps), "count");
  }

  void Registry() {
    SpanTracer::Scope rung(&tracer_, "rung.registry");
    const std::string model_dir = options_.workdir + "/ladder-models";
    std::filesystem::remove_all(model_dir);
    MakeDirs(model_dir);
    const std::string path = model_dir + "/" + spec_.model.name + ".snap";
    std::vector<double> write_s, map_ms, cold_ms;
    for (int i = 0; i < 3; ++i) {
      // Unmap the previous round's model before its file is rewritten.
      handle_.reset();
      models_.reset();
      {
        SpanTracer::Scope span(&tracer_, "registry.snapshot_write");
        const double t0 = NowUs();
        if (auto st = karl::registry::WriteSnapshot(path, *engine_); !st.ok()) {
          Die("WriteSnapshot: " + st.ToString());
        }
        write_s.push_back((NowUs() - t0) * 1e-6);
      }
      {
        SpanTracer::Scope span(&tracer_, "registry.map");
        const double t0 = NowUs();
        auto mapped = karl::registry::MappedSnapshot::Map(path);
        if (!mapped.ok()) Die("Map: " + mapped.status().ToString());
        map_ms.push_back((NowUs() - t0) * 1e-3);
      }
      SpanTracer::Scope span(&tracer_, "registry.cold_acquire");
      const double t0 = NowUs();
      karl::registry::RegistryOptions registry_options;
      registry_options.default_model = spec_.model.name;
      registry_options.metrics = &karl::telemetry::GlobalRegistry();
      auto opened = karl::registry::ModelRegistry::Open(model_dir, registry_options);
      if (!opened.ok()) Die("registry: " + opened.status().ToString());
      models_ = std::move(opened).ValueOrDie();
      auto handle = models_->Acquire(spec_.model.name);
      if (!handle.ok()) Die("acquire: " + handle.status().ToString());
      cold_ms.push_back((NowUs() - t0) * 1e-3);
      handle_ = handle.value();
    }
    report_->Add("registry.snapshot_write_s", Median(write_s), "s");
    report_->Add("registry.map_ms", Median(map_ms), "ms");
    report_->Add("registry.cold_acquire_ms", Median(cold_ms), "ms");
    // The served engine answers bit-identically to the in-process one.
    for (size_t i = 0; i < queries_.rows(); ++i) {
      Check(Answer(spec_, handle_->engine(), queries_.Row(i)) ==
            Answer(spec_, *engine_, queries_.Row(i)));
    }
    auto round = [&] {
      SpanTracer::Scope span(&tracer_, "registry.acquire");
      const double t0 = NowUs();
      for (int i = 0; i < 1000; ++i) {
        if (!models_->Acquire(spec_.model.name).ok()) Die("warm acquire failed");
      }
      return (NowUs() - t0) / 1000.0;
    };
    report_->Add("registry.acquire_us", Median(Interleave(0.02 * budget_us_, 5, {round})[0]),
                 "us");
  }

  void Protocol() {
    SpanTracer::Scope rung(&tracer_, "rung.protocol");
    std::vector<std::string> full(lines_.size());
    for (size_t i = 0; i < lines_.size(); ++i) {
      full[i] = lines_[i] + std::to_string(i) + "\"}";
    }
    const double nq = static_cast<double>(full.size());
    auto parse = [&] {
      SpanTracer::Scope span(&tracer_, "protocol.parse");
      const double t0 = NowUs();
      for (const std::string& line : full) {
        if (!karl::server::ParseRequest(line).ok()) Die("ParseRequest rejected " + line);
      }
      return (NowUs() - t0) / nq;
    };
    auto encode = [&] {
      SpanTracer::Scope span(&tracer_, "protocol.encode");
      const double t0 = NowUs();
      size_t bytes = 0;
      for (size_t i = 0; i < full.size(); ++i) {
        bytes += OkResponse(spec_, std::to_string(i), spec_.ekaq ? exact_[i] : 1.0).size();
      }
      return bytes > 0 ? (NowUs() - t0) / nq : 0.0;
    };
    const auto kept = Interleave(0.05 * budget_us_, 5, {parse, encode});
    report_->Add("protocol.parse_us", Median(kept[0]), "us");
    report_->Add("protocol.encode_us", Median(kept[1]), "us");
    // The parsed query is the sent one, bit for bit.
    for (size_t i = 0; i < full.size(); ++i) {
      auto request = karl::server::ParseRequest(full[i]);
      const auto row = request.ok() ? request.value().queries.Row(0) : std::span<const double>();
      Check(request.ok() && std::equal(row.begin(), row.end(), queries_.Row(i).begin(),
                                       queries_.Row(i).end()));
    }
  }

  void Coalescer() {
    SpanTracer::Scope rung(&tracer_, "rung.coalescer");
    karl::util::ThreadPool pool(1);
    // Completions arrive on the coalescer's dispatcher thread.
    karl::util::Mutex mu;
    karl::util::CondVar cv;
    size_t groups = 0;
    std::vector<std::pair<double, karl::server::Completion>> done;
    karl::server::Coalescer coalescer(
        &pool, 1024,
        [&](std::vector<karl::server::Completion> completions) {
          const double now = NowUs();
          {
            const karl::util::MutexLock lock(&mu);
            ++groups;
            for (auto& c : completions) done.emplace_back(now, std::move(c));
          }
          cv.SignalAll();
        },
        &karl::telemetry::GlobalRegistry());
    uint64_t next_id = 1;
    const karl::server::QueryKind kind =
        spec_.ekaq ? karl::server::QueryKind::kEkaq : karl::server::QueryKind::kTkaq;
    // Enqueues `count` single-row items back to back and waits for them;
    // returns each one's Enqueue → sink latency and the number of groups
    // they formed, and verifies every response against the engine.
    auto send = [&](size_t count, size_t* formed_groups) {
      std::vector<double> sent_at(count);
      std::vector<size_t> query(count);
      const uint64_t first = next_id;
      size_t groups_before = 0;
      {
        const karl::util::MutexLock lock(&mu);
        groups_before = groups;
      }
      for (size_t k = 0; k < count; ++k) {
        const std::vector<size_t> row{next_id % queries_.rows()};
        karl::server::WorkItem item;
        item.conn_id = 1;
        item.request_id = std::to_string(next_id);
        item.kind = kind;
        item.param = spec_.param;
        item.model = spec_.model.name;
        item.handle = handle_;
        item.queries = queries_.SelectRows(row);
        item.ctx.id = next_id++;
        query[k] = row[0];
        sent_at[k] = NowUs();
        if (!coalescer.Enqueue(std::move(item))) Die("coalescer refused an item");
      }
      std::vector<std::pair<double, karl::server::Completion>> mine;
      {
        const karl::util::MutexLock lock(&mu);
        while (done.size() < count) cv.Wait(&mu);
        mine.swap(done);
        *formed_groups = groups - groups_before;
      }
      std::vector<double> latency(count);
      for (const auto& [at, c] : mine) {
        const size_t k = std::stoull(c.request_id) - first;
        latency[k] = at - sent_at[k];
        tracer_.Add("coalescer.item", sent_at[k], at, first + k);
        Check(c.response == OkResponse(spec_, c.request_id,
                                       Answer(spec_, *engine_, queries_.Row(query[k]))));
      }
      return latency;
    };
    std::vector<double> serial;
    auto serial_round = [&] {
      SpanTracer::Scope span(&tracer_, "coalescer.serial");
      std::vector<double> latency;
      size_t unused = 0;
      for (int i = 0; i < 50; ++i) latency.push_back(send(1, &unused)[0]);
      serial.insert(serial.end(), latency.begin(), latency.end());
      return Median(latency);
    };
    size_t burst_groups = 0;
    size_t burst_rows = 0;
    auto burst_round = [&] {
      SpanTracer::Scope span(&tracer_, "coalescer.burst");
      size_t formed = 0;
      send(kBurst, &formed);
      burst_groups += formed;
      burst_rows += kBurst;
      return static_cast<double>(formed);
    };
    Interleave(0.1 * budget_us_, 5, {serial_round, burst_round});
    report_->Add("coalescer.inproc_us", Median(serial), "us");
    report_->Add("coalescer.rows_per_group",
                 static_cast<double>(burst_rows) / static_cast<double>(burst_groups), "count");
  }

  void Server() {
    SpanTracer::Scope rung(&tracer_, "rung.server");
    const size_t nproc = Nproc();
    karl::server::ServerOptions base;
    base.threads = nproc > 3 ? nproc - 3 : 1;
    auto start = [&](const karl::server::ServerOptions& server_options) {
      auto server = karl::server::Server::StartWithRegistry(models_.get(), server_options);
      if (!server.ok()) Die("server: " + server.status().ToString());
      return std::move(server).ValueOrDie();
    };
    // Full telemetry: NDJSON access log and request tracer on.
    const std::string log_path = options_.workdir + "/ladder-access.log";
    std::filesystem::remove(log_path);
    karl::util::Logger::Options log_options;
    log_options.ndjson = true;
    auto access_log = karl::util::Logger::Open(log_path, log_options);
    if (!access_log.ok()) Die("access log: " + access_log.status().ToString());
    karl::telemetry::TraceRecorder server_tracer;
    karl::server::ServerOptions full = base;
    full.access_log = access_log.value().get();
    full.tracer = &server_tracer;
    auto plain_server = start(base);
    auto full_server = start(full);
    LoadGenerator plain(plain_server->port(), kConnections);
    LoadGenerator traced(full_server->port(), 1);
    std::vector<int8_t> expected(queries_.rows());
    for (size_t i = 0; i < queries_.rows(); ++i) {
      expected[i] = spec_.ekaq ? -1 : static_cast<int8_t>(Answer(spec_, *engine_, queries_.Row(i)));
    }
    // Verifies a load-generator range; returns round-trip times.
    auto settle = [&](LoadGenerator& load, const LoadGenerator::Range& range, const char* name) {
      std::vector<double> rtt;
      for (size_t id = range.first; id < range.last; ++id) {
        const LoadGenerator::Record& r = load.records()[id];
        const bool answered = r.done_us != 0.0 && r.ok;
        Check(answered && (spec_.ekaq ? MatchesExact(spec_, r.value, exact_[r.query])
                                      : r.above == expected[r.query]));
        if (r.done_us != 0.0) {
          rtt.push_back(r.done_us - r.intended_us);
          tracer_.Add(name, r.intended_us, r.done_us, id + 1);
        }
      }
      return rtt;
    };
    size_t cursor = 0;
    std::vector<double> health;
    auto health_round = [&] {
      SpanTracer::Scope span(&tracer_, "server.health");
      std::vector<double> rtt;
      for (int i = 0; i < 50; ++i) rtt.push_back(plain.HealthRoundTrip());
      health.insert(health.end(), rtt.begin(), rtt.end());
      return Median(rtt);
    };
    std::vector<double> plain_rtt, full_rtt;
    auto query_round = [&](LoadGenerator& load, std::vector<double>* into, const char* name) {
      SpanTracer::Scope span(&tracer_, name);
      const auto rtt = settle(load, load.ClosedLoop(lines_, &cursor, 1, 50e3, 2e6), "server.request");
      into->insert(into->end(), rtt.begin(), rtt.end());
      return Median(rtt);
    };
    Interleave(0.1 * budget_us_, 5,
               {health_round,
                [&] { return query_round(plain, &plain_rtt, "server.default_telemetry"); },
                [&] { return query_round(traced, &full_rtt, "server.full_telemetry"); }});
    report_->Add("server.health_rtt_us", Median(health), "us");
    report_->Add("server.telemetry_overhead_us", Median(full_rtt) - Median(plain_rtt), "us");

    // Only the default server stays up: the busy-polling generator would
    // otherwise compete with the idle full-telemetry server's threads
    // for the CPUs (generator lateness p99 rose from ~30 us to ~12 ms).
    full_server.reset();
    // One open-loop phase at the serving workload's rate. An eKAQ on
    // home costs ~8x an a9a TKAQ, so its phase runs at a fifth of the
    // rate to stay as far below capacity (and clear of load shedding).
    {
      SpanTracer::Scope span(&tracer_, "loadgen.open_loop");
      const double rate = spec_.ekaq ? kOpenLoopRate / 5 : kOpenLoopRate;
      const double duration = std::max(0.5e6, 0.1 * budget_us_);
      const auto offsets =
          PoissonSchedule(rate, static_cast<size_t>(rate * duration * 1e-6 * 2 + 64),
                          SeedFor(options_.seed, kScheduleSalt));
      const size_t lag0 = plain.lag_us().size();
      const auto range = plain.OpenLoop(lines_, &cursor, offsets, duration, 2e6);
      const uint64_t failed_before = report_->failed();
      const auto latency = settle(plain, range, "loadgen.request");
      if (options_.workload == "svm-a9a-serve") workload_p99_us_ = Percentile(latency, 99);
      report_->Add("server.open_loop_p50_us", Percentile(latency, 50), "us");
      std::vector<double> lag(plain.lag_us().begin() + static_cast<long>(lag0),
                              plain.lag_us().end());
      report_->Add("loadgen.lag_p99_us", Percentile(lag, 99), "us");
      report_->Add("loadgen.sent", static_cast<double>(range.last - range.first), "count");
      report_->Add("loadgen.failed", static_cast<double>(report_->failed() - failed_before),
                   "count");
    }
    // Stop (drain and join) the server while the load generators'
    // sockets are still open.
    plain_server.reset();
  }

  void PrintSelfTimes() const {
    std::printf("# span self time (span minus its children), %zu spans\n", tracer_.size());
    std::printf("#   %-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& t : tracer_.SelfTimes()) {
      std::printf("#   %-28s %9llu %12.3f %12.3f\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_us * 1e-3,
                  t.self_us * 1e-3);
    }
  }

  const RunOptions& options_;
  Report* report_;
  const Spec spec_;
  const Matrix queries_;
  const size_t threads_;
  const double budget_us_;
  std::vector<double> exact_;
  double mass_ = 0.0;  // Σ|w|: bounds |F| for kernels valued in [0, 1].
  std::vector<std::string> lines_;
  SpanTracer tracer_;
  std::unique_ptr<karl::Engine> engine_;
  std::unique_ptr<karl::registry::ModelRegistry> models_;
  karl::registry::ModelHandle handle_;
  double kernel_evals_per_query_ = 0.0;
  double eval_us_ = 0.0;
  // p99 latency of the workload's own request form: a query inside a
  // pool batch (batch), an open-loop round trip (serve), a DynamicEngine
  // TKAQ between writes (churn).
  double workload_p99_us_ = 0.0;
};

}  // namespace

void RunLadder(const RunOptions& options, Report* report) {
  Ladder ladder(options, report);
  ladder.Run();
}

}  // namespace kaqbench
