#include "telemetry/rolling.h"

#include "telemetry/context.h"

namespace karl::telemetry {

void RollingHistogram::Record(double value) {
  RecordAt(value, MonotonicMicros());
}

void RollingHistogram::RecordAt(double value, uint64_t now_us) {
  cumulative_.Record(value);
  wheel_.Current(now_us).Record(value);
}

HistogramSnapshot RollingHistogram::CumulativeSnapshot() const {
  return cumulative_.Snapshot();
}

HistogramSnapshot RollingHistogram::WindowSnapshot() const {
  return WindowSnapshotAt(MonotonicMicros());
}

HistogramSnapshot RollingHistogram::WindowSnapshotAt(uint64_t now_us) const {
  HistogramSnapshot snap;
  wheel_.ForEachInWindow(now_us, kMergedSubWindows,
                         [&snap](const Histogram& slot) {
                           snap.Merge(slot.Snapshot());
                         });
  return snap;
}

}  // namespace karl::telemetry
