// The churn step loop shared by the kde-home-churn workload and the
// traced ladder's dynamic rung: a DynamicEngine seeded with half of a
// model's points, then fixed steps — Insert the next point of a seeded
// order, Remove the oldest live one, TKAQ one query at τ — so the live
// set is always `half` consecutive entries of the cyclic order.

#ifndef KARL_KAQBENCH_SRC_CHURN_LOOP_H_
#define KARL_KAQBENCH_SRC_CHURN_LOOP_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common.h"
#include "core/dynamic_engine.h"
#include "report.h"

namespace kaqbench {

/// One step's record: what it wrote and asked, and how long each call
/// took. A write that triggered a rebuild includes the rebuild.
struct ChurnStep {
  size_t inserted_row = 0;
  size_t removed_row = 0;
  uint32_t query = 0;
  bool above = false;
  bool write_ok = true;
  double insert_us = 0.0, remove_us = 0.0, query_us = 0.0;
  bool insert_rebuilt = false, remove_rebuilt = false;
  size_t delta_rows = 0;  ///< Delta buffer size after the step's writes.
  bool rebuilt() const { return insert_rebuilt || remove_rebuilt; }
};

class ChurnLoop {
 public:
  /// Creates the engine and inserts order[0, n/2): the set-up. `model`
  /// and `order` must outlive the loop.
  ChurnLoop(const Model& model, const std::vector<size_t>& order);

  /// Weight of a live row: the model's coefficient scaled by n / half,
  /// so the live half carries the whole model's mass and τ = μ stays
  /// the model's threshold (for `home`, 1 / half).
  double Weight(size_t row) const { return model_->weights[row] * scale_; }

  /// Runs `steps` steps, asking queries.Row(k mod rows) at `tau` on the
  /// k-th step of the loop's life. With a tracer, each call is a span
  /// ("dynamic.insert", ".remove", ".query") under "dynamic.step".
  void Run(const karl::data::Matrix& queries, double tau, size_t steps,
           std::vector<ChurnStep>* out, SpanTracer* tracer = nullptr);

  /// Exact F(q) over the live multiset by brute force.
  long double BruteForce(std::span<const double> q) const;

  const karl::core::DynamicEngine& engine() const { return *engine_; }

 private:
  const Model* model_;
  const std::vector<size_t>* order_;
  double scale_;
  std::unique_ptr<karl::core::DynamicEngine> engine_;
  std::deque<std::pair<karl::core::PointId, size_t>> live_;  // (id, row)
  size_t next_ = 0;        // Next position in the order to insert.
  uint64_t steps_run_ = 0;
};

}  // namespace kaqbench

#endif  // KARL_KAQBENCH_SRC_CHURN_LOOP_H_
