#include "churn_loop.h"

#include "core/kernel.h"

namespace kaqbench {

ChurnLoop::ChurnLoop(const Model& model, const std::vector<size_t>& order)
    : model_(&model), order_(&order) {
  const size_t n = model.points.rows();
  const size_t half = n / 2;
  scale_ = static_cast<double>(n) / static_cast<double>(half);
  karl::core::DynamicEngine::Options options;
  options.engine = model.options;
  auto created = karl::core::DynamicEngine::Create(model.points.cols(), options);
  if (!created.ok()) Die("DynamicEngine::Create: " + created.status().ToString());
  engine_ = std::move(created).ValueOrDie();
  for (size_t i = 0; i < half; ++i) {
    const size_t row = order[i];
    auto id = engine_->Insert(model.points.Row(row), Weight(row));
    if (!id.ok()) Die("Insert: " + id.status().ToString());
    live_.emplace_back(id.value(), row);
  }
  next_ = half;
}

void ChurnLoop::Run(const karl::data::Matrix& queries, double tau, size_t steps,
                    std::vector<ChurnStep>* out, SpanTracer* tracer) {
  const size_t n = model_->points.rows();
  out->assign(steps, ChurnStep{});
  size_t rebuilds = engine_->rebuild_count();
  // True once per rebuild the last write triggered.
  auto rebuilt = [&] {
    const size_t now = engine_->rebuild_count();
    const bool changed = now != rebuilds;
    rebuilds = now;
    return changed;
  };
  for (ChurnStep& s : *out) {
    const uint64_t k = ++steps_run_;
    SpanTracer::Scope step(tracer, "dynamic.step", k);
    const size_t row = (*order_)[next_++ % n];
    const auto [old_id, old_row] = live_.front();
    double t0 = NowUs();
    const auto id = [&] {
      SpanTracer::Scope span(tracer, "dynamic.insert", k);
      return engine_->Insert(model_->points.Row(row), Weight(row));
    }();
    s.insert_us = NowUs() - t0;
    s.insert_rebuilt = rebuilt();
    t0 = NowUs();
    const karl::util::Status removed = [&] {
      SpanTracer::Scope span(tracer, "dynamic.remove", k);
      return engine_->Remove(old_id);
    }();
    s.remove_us = NowUs() - t0;
    s.remove_rebuilt = rebuilt();
    s.query = static_cast<uint32_t>((k - 1) % queries.rows());
    t0 = NowUs();
    {
      SpanTracer::Scope span(tracer, "dynamic.query", k);
      s.above = engine_->Tkaq(queries.Row(s.query), tau);
    }
    s.query_us = NowUs() - t0;
    s.inserted_row = row;
    s.removed_row = old_row;
    s.write_ok = id.ok() && removed.ok();
    s.delta_rows = engine_->delta_size();
    live_.pop_front();
    if (id.ok()) live_.emplace_back(id.value(), row);
  }
}

long double ChurnLoop::BruteForce(std::span<const double> q) const {
  long double sum = 0.0L;
  for (const auto& [id, row] : live_) {
    sum += Weight(row) * karl::core::KernelValue(model_->options.kernel, q,
                                                 model_->points.Row(row));
  }
  return sum;
}

}  // namespace kaqbench
