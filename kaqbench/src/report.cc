#include "report.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"
#include "server/json.h"

namespace kaqbench {

using karl::server::Json;

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Info(const std::string& name, const std::string& value) {
  info_.emplace_back(name, value);
}

void Report::InfoValue(const std::string& name, double value,
                       const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g ", value);
  Info(name, buf + unit);
}

double Report::OkRatio() const {
  if (attempted_ == 0) return 0.0;
  return static_cast<double>(attempted_ - failed_) /
         static_cast<double>(attempted_);
}

void Report::Print() const {
  for (const auto& [name, value] : info_) {
    std::printf("# %s: %s\n", name.c_str(), value.c_str());
  }
  std::printf("# attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (const Metric& m : metrics_) {
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  Json metrics = Json::Object();
  for (const Metric& m : metrics_) {
    metrics.Set(m.name, Json::Object()
                            .Set("value", Json::Number(m.value))
                            .Set("unit", Json::Str(m.unit)));
  }
  Json result = Json::Object();
  result.Set("correct", Json::Bool(attempted_ > 0 && failed_ == 0));
  result.Set("attempted", Json::Number(static_cast<double>(attempted_)));
  result.Set("failed", Json::Number(static_cast<double>(failed_)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
}

SpanTracer::Scope::Scope(SpanTracer* tracer, const char* name, uint64_t id)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  const int64_t parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  tracer_->spans_.push_back({name, NowUs(), 0.0, parent, id});
  tracer_->open_.push_back(index_);
}

SpanTracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_us = NowUs();
  tracer_->open_.pop_back();
}

void SpanTracer::Add(const char* name, double start_us, double end_us,
                     uint64_t id) {
  const int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, start_us, end_us, parent, id});
}

std::vector<SpanTracer::SelfTime> SpanTracer::SelfTimes() const {
  // Children's intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<SelfTime> out;
  std::map<std::string, size_t> slot;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : kids) {  // Union of sorted intervals.
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const auto [it, fresh] = slot.emplace(s.name, out.size());
    if (fresh) out.push_back({s.name, 0, 0.0, 0.0});
    SelfTime& t = out[it->second];
    const double duration = s.end_us - s.start_us;
    ++t.count;
    t.total_us += duration;
    t.self_us += duration - covered;
  }
  return out;
}

bool SpanTracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json event = Json::Object();
    event.Set("name", Json::Str(s.name));
    event.Set("ph", Json::Str("X"));
    event.Set("ts", Json::Number(s.start_us - origin));
    event.Set("dur", Json::Number(s.end_us - s.start_us));
    event.Set("pid", Json::Number(1));
    event.Set("tid", Json::Number(1));
    event.Set("args", Json::Object()
                          .Set("index", Json::Number(static_cast<double>(i)))
                          .Set("parent", Json::Number(static_cast<double>(s.parent)))
                          .Set("id", Json::Number(static_cast<double>(s.id))));
    std::fputs(event.Dump().c_str(), f);
    std::fputs(i + 1 < spans_.size() ? ",\n" : "\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace kaqbench
