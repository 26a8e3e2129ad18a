// Per-model SLO tracking: rolling error budgets with fast/slow burn-rate
// evaluation over the served request stream.
//
// Model: each served model carries two objectives —
//   latency:      at least `latency_target` of requests complete within
//                 `latency_threshold_us`
//   availability: at least `availability_target` of requests succeed
// both measured over a rolling `window_s` error-budget window. A request
// that misses the threshold (or fails) consumes error budget; the budget
// is `1 - target` of the window's traffic.
//
// Burn rate (Google SRE workbook semantics): the ratio of the observed
// bad fraction to the allowed bad fraction over an evaluation window.
// burn == 1 means budget is being consumed exactly at the sustainable
// rate; burn == 14.4 over a 5-minute window means the whole budget would
// be gone in window_s / 14.4. Two windows are evaluated: "fast"
// (min(300s, window_s), catches sharp regressions within minutes) and
// "slow" (the full budget window, catches slow leaks). Crossing either
// configured threshold logs one WARN `slo.burn` line (and one INFO
// `slo.burn_clear` on recovery) — edges, not levels, so a sustained
// burn does not spam the log.
//
// Mechanics: one TimeWheel per model (telemetry/time_wheel.h: 10s
// slots spanning the budget window, the same wheel RollingHistogram
// runs on) counting {total, latency_bad, errors}; everything is guarded
// by one engine mutex. Observe() is called once per completed request
// from the server's event-loop thread — a short uncontended lock, never
// on the eval worker hot path. Burn gauges
// (`karl_slo_burn_rate{model,slo,window}`,
// `karl_slo_error_budget_remaining{model,slo}`) and the WARN edge are
// re-evaluated when a model's wheel rotates to a new 10s slot and on
// every SlozJson() render (i.e. every /sloz or pre-scrape refresh), so
// scrapes always see current burn.
//
// Cardinality follows the metrics policy: at most `max_models` tracked
// models; excess models collapse into the `__other__` tracker.

#ifndef KARL_TELEMETRY_SLO_H_
#define KARL_TELEMETRY_SLO_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "telemetry/metrics.h"
#include "telemetry/time_wheel.h"
#include "util/mutex.h"

namespace karl::util {
class Logger;
}  // namespace karl::util

namespace karl::telemetry {

/// Objectives for one model (or the default for all models).
struct SloObjective {
  /// A request is latency-good when total_us <= this.
  double latency_threshold_us = 100'000.0;
  /// Required fraction of latency-good requests, in (0, 1).
  double latency_target = 0.99;
  /// Required fraction of successful requests, in (0, 1).
  double availability_target = 0.999;
  /// Rolling error-budget window, seconds: an integer multiple of the
  /// 10s wheel slot in [60, 86400].
  uint64_t window_s = 3600;
  /// WARN when the fast-window burn rate reaches this.
  double fast_burn_threshold = 14.4;
  /// WARN when the slow-window burn rate reaches this.
  double slow_burn_threshold = 6.0;
};

/// Full SLO configuration: a default objective plus per-model overrides
/// (see server/slo_config.h for the JSON form behind --slo-config).
struct SloConfig {
  SloObjective default_objective;
  std::map<std::string, SloObjective> per_model;
  /// Distinct models tracked before collapsing into `__other__`.
  size_t max_models = 64;

  const SloObjective& ForModel(const std::string& model) const;
};

/// See file comment.
class SloEngine {
 public:
  /// Fast burn-evaluation window, seconds (clamped to window_s).
  static constexpr uint64_t kFastWindowSeconds = 300;
  /// Burn-rate gauges are clamped here so the exposition stays finite.
  static constexpr double kBurnRateCap = 1e9;

  /// Every objective's window_s must be valid (see SloObjective).
  /// `registry` receives the burn gauges (may be null: tracking and
  /// logging still work). `logger` receives the WARN edges (may be
  /// null). Both non-owning, must outlive the engine.
  SloEngine(SloConfig config, Registry* registry, util::Logger* logger);
  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;
  ~SloEngine();

  /// Accounts one completed request against `model`'s objectives.
  void Observe(const std::string& model, double total_us, bool ok);

  /// Observe with an explicit clock reading — the test seam; the clock
  /// domain is telemetry::MonotonicMicros().
  void ObserveAt(const std::string& model, double total_us, bool ok,
                 uint64_t now_us);

  /// Re-evaluates burn rates for every tracked model: updates gauges and
  /// fires WARN/clear edges. Called implicitly by SlozJson().
  void RefreshGauges();
  void RefreshGaugesAt(uint64_t now_us);

  /// JSON document behind /sloz: per model, per objective — config,
  /// window traffic, burn rates, remaining budget fraction, burning
  /// flag. Refreshes gauges as a side effect.
  std::string SlozJson();
  std::string SlozJsonAt(uint64_t now_us);

  const SloConfig& config() const { return config_; }

 private:
  // Objective axes, used to index per-tracker state.
  enum SloKind : size_t { kLatency = 0, kAvailability = 1, kNumKinds = 2 };

  // One wheel slot's traffic; plain fields, guarded by mu_.
  struct Slot {
    uint64_t total = 0;
    uint64_t latency_bad = 0;
    uint64_t errors = 0;
    void Reset() { *this = Slot{}; }
  };

  struct WindowCounts {
    uint64_t total = 0;
    uint64_t bad[kNumKinds] = {0, 0};
  };

  struct Tracker {
    explicit Tracker(const SloObjective& objective);
    SloObjective objective;
    TimeWheel<Slot> wheel;
    uint64_t last_epoch = 0;
    // Interned gauges, null without a registry; indexed by SloKind.
    Gauge* burn_fast[kNumKinds] = {nullptr, nullptr};
    Gauge* burn_slow[kNumKinds] = {nullptr, nullptr};
    Gauge* budget_remaining[kNumKinds] = {nullptr, nullptr};
    // Last evaluation, for edge detection and /sloz.
    double last_burn_fast[kNumKinds] = {0.0, 0.0};
    double last_burn_slow[kNumKinds] = {0.0, 0.0};
    double last_budget[kNumKinds] = {1.0, 1.0};
    bool burning[kNumKinds] = {false, false};
  };

  Tracker* GetTracker(const std::string& model) KARL_REQUIRES(mu_);
  WindowCounts SumWindow(const Tracker& tracker, uint64_t now_us,
                         uint64_t span_s) const KARL_REQUIRES(mu_);
  void Evaluate(const std::string& model, Tracker* tracker, uint64_t now_us)
      KARL_REQUIRES(mu_);

  const SloConfig config_;
  Registry* const registry_;
  util::Logger* const logger_;

  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Tracker>> trackers_
      KARL_GUARDED_BY(mu_);
};

}  // namespace karl::telemetry

#endif  // KARL_TELEMETRY_SLO_H_
