// Mutable kernel-aggregation engine for online kernel learning (paper §I,
// research issue 4: "the model would be updated frequently").
//
// Inserts land in an unindexed delta buffer that queries scan exactly;
// removals of indexed points become tombstones whose contribution is
// subtracted exactly. When the delta state outgrows a configurable
// fraction of the indexed snapshot, the index is rebuilt over the live
// points. Every query is therefore answered against the *current*
// multiset, with the indexed bulk pruned by KARL bounds and only the
// recent churn paid for linearly.
//
// Rebuilds go through Engine::Build, so the indexed snapshot always
// carries the blocked SoA leaf layout the vectorized evaluator
// (core/simd) reads; the delta buffer and tombstone scans stay scalar —
// they are bounded by rebuild_fraction and never dominate.

#ifndef KARL_CORE_DYNAMIC_ENGINE_H_
#define KARL_CORE_DYNAMIC_ENGINE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/karl.h"
#include "util/mutex.h"
#include "util/status.h"

namespace karl::core {

/// Stable identifier of an inserted point.
using PointId = uint64_t;

/// Mutable engine over a weighted point multiset.
///
/// Thread safety: internally synchronised by a reader/writer lock.
/// Queries (Tkaq/Ekaq/Exact) take the lock shared, so any number of
/// threads may query concurrently; Insert/Remove take it exclusively and
/// may interleave with queries from other threads. A batch
/// (core::BatchEvaluator) locks per row (never across the pool fan-out —
/// holding a reader lock across ParallelFor while a writer is queued
/// would deadlock the pool), so a batch overlapping a mutation sees each
/// row against the multiset current at that row. As with Engine, one
/// EvalStats object must not be shared across concurrent callers; the
/// batch evaluator merges per-worker accumulators instead.
class DynamicEngine {
 public:
  struct Options {
    EngineOptions engine;
    /// Rebuild when (buffered inserts + tombstones) exceeds this fraction
    /// of the indexed snapshot size. In (0, 1]; default 0.25.
    double rebuild_fraction = 0.25;
    /// Snapshot size below which no index is kept (pure scanning).
    size_t min_index_size = 256;
  };

  /// Creates an engine of dimensionality `dimensions`. Weights may be
  /// any sign but not zero. Returned by pointer: the engine embeds its
  /// reader/writer lock, so it is neither movable nor copyable.
  static util::Result<std::unique_ptr<DynamicEngine>> Create(
      size_t dimensions, const Options& options);

  DynamicEngine(const DynamicEngine&) = delete;
  DynamicEngine& operator=(const DynamicEngine&) = delete;

  /// Inserts a point; returns its stable id. Fails on dimension mismatch
  /// or zero weight.
  util::Result<PointId> Insert(std::span<const double> point, double weight)
      KARL_EXCLUDES(mu_);

  /// Removes a previously inserted point. Fails if the id is unknown or
  /// already removed.
  util::Status Remove(PointId id) KARL_EXCLUDES(mu_);

  /// TKAQ over the current multiset: F(q) > tau? `stats` (optional)
  /// accumulates the work done, counting every delta-buffer and
  /// tombstone kernel evaluation alongside the indexed refinement work.
  bool Tkaq(std::span<const double> q, double tau,
            EvalStats* stats = nullptr) const KARL_EXCLUDES(mu_);

  /// εKAQ over the current multiset. The delta buffer and tombstones are
  /// aggregated exactly, so the relative-error guarantee applies to the
  /// indexed portion (the exact delta adds no error of its own).
  double Ekaq(std::span<const double> q, double eps,
              EvalStats* stats = nullptr) const KARL_EXCLUDES(mu_);

  /// Exact F(q) over the current multiset.
  double Exact(std::span<const double> q, EvalStats* stats = nullptr) const
      KARL_EXCLUDES(mu_);

  /// Options the engine was created with (immutable, lock-free).
  const Options& options() const { return options_; }

  /// Number of live points.
  size_t size() const KARL_EXCLUDES(mu_) {
    const util::ReaderMutexLock lock(&mu_);
    return live_count_;
  }

  /// Points currently answered by linear scanning (buffer + tombstones).
  size_t delta_size() const KARL_EXCLUDES(mu_) {
    const util::ReaderMutexLock lock(&mu_);
    return DeltaSizeLocked();
  }

  /// Total index rebuilds performed so far.
  size_t rebuild_count() const KARL_EXCLUDES(mu_) {
    const util::ReaderMutexLock lock(&mu_);
    return rebuild_count_;
  }

 private:
  DynamicEngine() = default;

  struct StoredPoint {
    std::vector<double> values;
    double weight = 0.0;
    bool alive = false;
    bool indexed = false;  // Lives in the current snapshot engine.
  };

  // Metric handles resolved at Create from options.engine.metrics; all
  // null when telemetry is disabled. The snapshot Engine carries the
  // same registry pointer, so indexed-query work lands in the shared
  // evaluator metrics automatically.
  struct Instruments {
    telemetry::Gauge* delta_points = nullptr;
    telemetry::Gauge* tombstones = nullptr;
    telemetry::Gauge* live_points = nullptr;
    telemetry::Counter* inserts = nullptr;
    telemetry::Counter* removes = nullptr;
    telemetry::Counter* rebuilds = nullptr;
    telemetry::Histogram* rebuild_usec = nullptr;
  };

  // Exact aggregate of the un-indexed delta: + buffered inserts,
  // − tombstoned snapshot points.
  double DeltaAggregate(std::span<const double> q, EvalStats* stats) const
      KARL_REQUIRES_SHARED(mu_);

  size_t DeltaSizeLocked() const KARL_REQUIRES_SHARED(mu_) {
    return buffer_ids_.size() + tombstones_.size();
  }

  // Rebuilds the snapshot engine over all live points if the delta has
  // outgrown the configured fraction. Only called from Insert/Remove,
  // under the exclusive lock.
  void MaybeRebuild() KARL_REQUIRES(mu_);
  void Rebuild() KARL_REQUIRES(mu_);

  // Refreshes the delta/tombstone/live gauges (no-op when disabled).
  void UpdateGauges() const KARL_REQUIRES_SHARED(mu_);

  // options_, dimensions_, and instruments_ are set once in Create and
  // immutable afterwards; the metric objects are internally atomic.
  Options options_;
  size_t dimensions_ = 0;
  Instruments instruments_;

  mutable util::SharedMutex mu_;
  std::unordered_map<PointId, StoredPoint> points_ KARL_GUARDED_BY(mu_);
  PointId next_id_ KARL_GUARDED_BY(mu_) = 0;
  size_t live_count_ KARL_GUARDED_BY(mu_) = 0;

  // Null when below min_index_size.
  std::unique_ptr<Engine> snapshot_ KARL_GUARDED_BY(mu_);
  size_t snapshot_size_ KARL_GUARDED_BY(mu_) = 0;
  // Live, not yet indexed.
  std::vector<PointId> buffer_ids_ KARL_GUARDED_BY(mu_);
  // Removed but still indexed.
  std::vector<PointId> tombstones_ KARL_GUARDED_BY(mu_);
  size_t rebuild_count_ KARL_GUARDED_BY(mu_) = 0;
};

}  // namespace karl::core

#endif  // KARL_CORE_DYNAMIC_ENGINE_H_
