// Rolling-window histogram: a cumulative Histogram paired with a ring of
// bucketed sub-windows rotated on a time wheel, so one metric can answer
// both "since process start" and "over the last ~60 seconds". A
// lifetime-cumulative p95 never forgets the first minute of traffic; the
// windowed view is what alerting and autotuning want.
//
// Layout: a lifetime Histogram plus a TimeWheel<Histogram>
// (telemetry/time_wheel.h) of 10 s slots. Recording lands in both; a
// window snapshot merges the Snapshot()s of the wheel slots inside the
// last kMergedSubWindows epochs, so the reported span covers between
// (kMergedSubWindows - 1) and kMergedSubWindows sub-windows depending on
// how full the current one is.
//
// Concurrency: recording is Histogram::Record twice — relaxed atomics,
// no locks on the hot path, snapshots from any thread. The rotation race
// (a recorder stalled across a sub-window boundary lands its sample in
// the successor epoch, or a snapshot merges a slot mid-rotation)
// perturbs windowed counts by at most the in-flight samples; the
// cumulative side is exact. That tolerance is the price of a lock-free
// record path and is fine for latency quantiles.

#ifndef KARL_TELEMETRY_ROLLING_H_
#define KARL_TELEMETRY_ROLLING_H_

#include <cstdint>

#include "telemetry/metrics.h"
#include "telemetry/time_wheel.h"

namespace karl::telemetry {

/// See file comment.
class RollingHistogram {
 public:
  /// Sub-windows merged into one window snapshot: six 10s slots give
  /// the nominal 60s window reported as `_window60s` in the exposition.
  static constexpr int kMergedSubWindows = 6;

  RollingHistogram() = default;
  RollingHistogram(const RollingHistogram&) = delete;
  RollingHistogram& operator=(const RollingHistogram&) = delete;

  /// Records into both the cumulative histogram and the current
  /// sub-window (timestamped with telemetry::MonotonicMicros()).
  void Record(double value);

  /// Record with an explicit clock reading — the test seam; production
  /// callers use Record().
  void RecordAt(double value, uint64_t now_us);

  /// Lifetime distribution, identical semantics to Histogram::Snapshot.
  HistogramSnapshot CumulativeSnapshot() const;

  /// Distribution over the last window (≈ kMergedSubWindows sub-windows,
  /// ending now). Empty snapshot when nothing was recorded in-window.
  HistogramSnapshot WindowSnapshot() const;

  /// WindowSnapshot with an explicit clock reading — the test seam.
  HistogramSnapshot WindowSnapshotAt(uint64_t now_us) const;

  /// Nominal window span in seconds (the "60" of `_window60s`).
  static constexpr uint64_t WindowSpanSeconds() {
    return kMergedSubWindows * kTimeWheelSlotUs / 1'000'000;
  }

  /// Cumulative sample count.
  uint64_t count() const { return cumulative_.count(); }

 private:
  Histogram cumulative_;
  TimeWheel<Histogram> wheel_{kMergedSubWindows};
};

}  // namespace karl::telemetry

#endif  // KARL_TELEMETRY_ROLLING_H_
