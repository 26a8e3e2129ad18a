#include "telemetry/rolling.h"

#include <limits>

#include "telemetry/context.h"

namespace karl::telemetry {

namespace {

void AtomicAdd(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

RollingHistogram::RollingHistogram()
    : slots_(std::make_unique<Slot[]>(kWheelSlots)) {
  for (int i = 0; i < kWheelSlots; ++i) {
    slots_[static_cast<size_t>(i)].min.store(
        std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
    slots_[static_cast<size_t>(i)].max.store(
        -std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  }
}

void RollingHistogram::Record(double value) {
  RecordAt(value, MonotonicMicros());
}

void RollingHistogram::RecordAt(double value, uint64_t now_us) {
  cumulative_.Record(value);
  const uint64_t epoch = now_us / kSubWindowUs;
  Slot& slot = slots_[static_cast<size_t>(epoch % kWheelSlots)];
  if (slot.epoch.load(std::memory_order_acquire) != epoch) {
    Rotate(&slot, epoch);
  }
  slot.counts[static_cast<size_t>(HistogramBucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  AtomicAdd(slot.sum, value);
  AtomicMin(slot.min, value);
  AtomicMax(slot.max, value);
  slot.count.fetch_add(1, std::memory_order_relaxed);
}

void RollingHistogram::Rotate(Slot* slot, uint64_t epoch) {
  const util::MutexLock lock(&rotate_mu_);
  if (slot->epoch.load(std::memory_order_relaxed) == epoch) {
    return;  // Another recorder already rotated this slot.
  }
  for (auto& c : slot->counts) c.store(0, std::memory_order_relaxed);
  slot->count.store(0, std::memory_order_relaxed);
  slot->sum.store(0.0, std::memory_order_relaxed);
  slot->min.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
  slot->max.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
  slot->epoch.store(epoch, std::memory_order_release);
}

HistogramSnapshot RollingHistogram::CumulativeSnapshot() const {
  return cumulative_.Snapshot();
}

HistogramSnapshot RollingHistogram::WindowSnapshot() const {
  return WindowSnapshotAt(MonotonicMicros());
}

HistogramSnapshot RollingHistogram::WindowSnapshotAt(uint64_t now_us) const {
  const uint64_t cur_epoch = now_us / kSubWindowUs;
  const uint64_t lo_epoch =
      cur_epoch >= static_cast<uint64_t>(kMergedSubWindows - 1)
          ? cur_epoch - static_cast<uint64_t>(kMergedSubWindows - 1)
          : 0;
  HistogramSnapshot snap;
  for (int i = 0; i < kWheelSlots; ++i) {
    const Slot& slot = slots_[static_cast<size_t>(i)];
    const uint64_t epoch = slot.epoch.load(std::memory_order_acquire);
    if (epoch == Slot::kNeverUsed || epoch < lo_epoch || epoch > cur_epoch) {
      continue;  // Idle or expired sub-window.
    }
    HistogramSnapshot sub;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      sub.buckets[static_cast<size_t>(b)] =
          slot.counts[static_cast<size_t>(b)].load(std::memory_order_relaxed);
    }
    sub.count = slot.count.load(std::memory_order_relaxed);
    sub.sum = slot.sum.load(std::memory_order_relaxed);
    sub.min = slot.min.load(std::memory_order_relaxed);
    sub.max = slot.max.load(std::memory_order_relaxed);
    snap.Merge(sub);
  }
  return snap;
}

}  // namespace karl::telemetry
