// The time wheel shared by every rolling-window view in telemetry: a
// ring of fixed-span slots, each stamped with the epoch
// (now / kTimeWheelSlotUs) it currently holds. RollingHistogram keeps a
// Histogram per slot; the SLO engine keeps {total, latency_bad, errors}
// counters per slot. Both answer "what happened in the last N slots" the
// same way, through this one class.
//
// Policy:
//   * slot span: kTimeWheelSlotUs (10 s);
//   * ring size: window slots + kTimeWheelSpareSlots, so the slot
//     recycled for a new epoch is never one still eligible for the
//     window (and a recorder stalled across a boundary has room);
//   * membership: a slot is in a window of `span` slots ending at
//     `now` when its epoch e satisfies now_epoch - span < e <= now_epoch,
//     so the window covers between span - 1 and span full slots
//     depending on how far into the current slot `now` is.
//
// Rotation: the first writer of a new epoch calls Slot::Reset() under a
// rotation mutex (taken once per slot span, never on the steady-state
// hot path) and then publishes the epoch with a release store; writers
// that observe the new epoch with an acquire load see a reset slot. A
// writer stalled across a boundary may land its sample in the successor
// epoch, and a reader may merge a slot mid-rotation; windowed figures
// tolerate those in-flight samples. Callers that need exactness (the
// SLO engine) serialize every access under their own lock.
//
// `Slot` must be default-constructible and provide Reset(); its own
// fields carry whatever synchronization its writers need.

#ifndef KARL_TELEMETRY_TIME_WHEEL_H_
#define KARL_TELEMETRY_TIME_WHEEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/check.h"
#include "util/mutex.h"

namespace karl::telemetry {

/// Span of one wheel slot.
inline constexpr uint64_t kTimeWheelSlotUs = 10'000'000;
/// Slots a wheel keeps beyond its window (see file comment).
inline constexpr size_t kTimeWheelSpareSlots = 2;

/// See file comment.
template <typename Slot>
class TimeWheel {
 public:
  /// A wheel able to answer windows of up to `window_slots` slots.
  explicit TimeWheel(size_t window_slots)
      : window_slots_(window_slots),
        ring_slots_(window_slots + kTimeWheelSpareSlots),
        spokes_(std::make_unique<Spoke[]>(ring_slots_)) {
    KARL_CHECK(window_slots > 0) << ": a time wheel needs a window";
  }
  TimeWheel(const TimeWheel&) = delete;
  TimeWheel& operator=(const TimeWheel&) = delete;

  /// The epoch (slot index on an unbounded time line) `now_us` falls in.
  static uint64_t Epoch(uint64_t now_us) { return now_us / kTimeWheelSlotUs; }

  /// The slot for `now_us`, reset first if it still holds an older
  /// epoch.
  Slot& Current(uint64_t now_us) {
    const uint64_t epoch = Epoch(now_us);
    Spoke& spoke = spokes_[epoch % ring_slots_];
    if (spoke.epoch.load(std::memory_order_acquire) != epoch) {
      Rotate(&spoke, epoch);
    }
    return spoke.slot;
  }

  /// Calls fn(const Slot&) for every slot in the `span_slots`-slot
  /// window ending at `now_us` (see file comment), in ring order.
  template <typename Fn>
  void ForEachInWindow(uint64_t now_us, uint64_t span_slots, Fn&& fn) const {
    KARL_DCHECK(span_slots > 0 && span_slots <= window_slots_)
        << ": window of " << span_slots << " slots on a wheel of "
        << window_slots_;
    const uint64_t now_epoch = Epoch(now_us);
    for (size_t i = 0; i < ring_slots_; ++i) {
      const Spoke& spoke = spokes_[i];
      const uint64_t epoch = spoke.epoch.load(std::memory_order_acquire);
      if (epoch == kNeverUsed || epoch > now_epoch ||
          epoch + span_slots <= now_epoch) {
        continue;  // Idle, future, or expired.
      }
      fn(spoke.slot);
    }
  }

  size_t ring_slots() const { return ring_slots_; }

 private:
  static constexpr uint64_t kNeverUsed = ~uint64_t{0};

  struct Spoke {
    std::atomic<uint64_t> epoch{kNeverUsed};
    Slot slot;
  };

  // Resets `spoke` and publishes it as `epoch`. Serialized so exactly
  // one writer resets it; on return spoke->epoch == epoch.
  void Rotate(Spoke* spoke, uint64_t epoch) {
    const util::MutexLock lock(&rotate_mu_);
    if (spoke->epoch.load(std::memory_order_relaxed) == epoch) {
      return;  // Another writer already rotated this slot.
    }
    spoke->slot.Reset();
    spoke->epoch.store(epoch, std::memory_order_release);
  }

  const size_t window_slots_;
  const size_t ring_slots_;
  // Heap array: spokes hold atomics (immovable), and keeping the ring
  // out of line keeps owners cheap to place in maps.
  std::unique_ptr<Spoke[]> spokes_;
  util::Mutex rotate_mu_;
};

}  // namespace karl::telemetry

#endif  // KARL_TELEMETRY_TIME_WHEEL_H_
