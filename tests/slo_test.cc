// Tests for telemetry/slo.h and server/slo_config.h: burn-rate math
// against synthetic traffic driven through the explicit-clock seam,
// window expiry, fast/slow window divergence, edge-triggered WARN
// logging, the model-cardinality cap, /sloz JSON rendering, gauge
// exposition, and --slo-config JSON parsing (defaults, inheritance,
// and every rejection class).

#include "telemetry/slo.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "server/json.h"
#include "server/slo_config.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"
#include "util/log.h"

namespace karl::telemetry {
namespace {

// A tidy epoch-aligned base instant: multiples of the 10s sub-window.
constexpr uint64_t kBaseUs = 1'000'000'000'000;  // ~11.6 days up.
constexpr uint64_t kSecond = 1'000'000;

SloConfig TightConfig() {
  SloConfig config;
  config.default_objective.latency_threshold_us = 1'000.0;
  config.default_objective.latency_target = 0.9;  // 10% budget.
  config.default_objective.availability_target = 0.9;
  config.default_objective.window_s = 3600;
  config.default_objective.fast_burn_threshold = 14.4;
  config.default_objective.slow_burn_threshold = 6.0;
  return config;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

size_t CountContaining(const std::vector<std::string>& lines,
                       const std::string& needle) {
  size_t n = 0;
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

TEST(SloConfigTest, ForModelFallsBackToDefault) {
  SloConfig config = TightConfig();
  SloObjective special = config.default_objective;
  special.latency_threshold_us = 42.0;
  config.per_model.emplace("special", special);
  EXPECT_EQ(config.ForModel("special").latency_threshold_us, 42.0);
  EXPECT_EQ(config.ForModel("anything-else").latency_threshold_us, 1'000.0);
}

TEST(SloEngineTest, BurnRateIsBadFractionOverAllowedFraction) {
  Registry registry;
  SloEngine engine(TightConfig(), &registry, nullptr);
  // 100 requests, 20 over the 1ms threshold: bad fraction 0.2 against
  // an allowed 0.1 → burn rate 2.0 on both windows. All succeed, so
  // availability burns nothing.
  for (int i = 0; i < 80; ++i) {
    engine.ObserveAt("m", 500.0, /*ok=*/true, kBaseUs);
  }
  for (int i = 0; i < 20; ++i) {
    engine.ObserveAt("m", 5'000.0, /*ok=*/true, kBaseUs);
  }
  engine.RefreshGaugesAt(kBaseUs);

  const LabelSet latency{{"model", "m"}, {"slo", "latency"}};
  const LabelSet availability{{"model", "m"}, {"slo", "availability"}};
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("karl_slo_burn_rate",
                        LabelSet(latency).Set("window", "fast"))
          ->value(),
      2.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("karl_slo_burn_rate",
                        LabelSet(latency).Set("window", "slow"))
          ->value(),
      2.0);
  // 20 bad against an allowed 10: the whole latency budget is gone.
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("karl_slo_error_budget_remaining", latency)->value(),
      0.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("karl_slo_burn_rate",
                        LabelSet(availability).Set("window", "fast"))
          ->value(),
      0.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("karl_slo_error_budget_remaining", availability)
          ->value(),
      1.0);
}

TEST(SloEngineTest, ErrorsBurnTheAvailabilityBudget) {
  Registry registry;
  SloEngine engine(TightConfig(), &registry, nullptr);
  // Half the budgeted failure rate: 5 errors in 100 against allowed 10.
  for (int i = 0; i < 95; ++i) {
    engine.ObserveAt("m", 10.0, /*ok=*/true, kBaseUs);
  }
  for (int i = 0; i < 5; ++i) {
    engine.ObserveAt("m", 10.0, /*ok=*/false, kBaseUs);
  }
  engine.RefreshGaugesAt(kBaseUs);
  const LabelSet availability{{"model", "m"}, {"slo", "availability"}};
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("karl_slo_burn_rate",
                        LabelSet(availability).Set("window", "slow"))
          ->value(),
      0.5);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("karl_slo_error_budget_remaining", availability)
          ->value(),
      0.5);
}

TEST(SloEngineTest, BudgetRecoversWhenTheWindowRollsPast) {
  Registry registry;
  SloConfig config = TightConfig();
  config.default_objective.window_s = 600;
  SloEngine engine(config, &registry, nullptr);
  for (int i = 0; i < 10; ++i) {
    engine.ObserveAt("m", 5'000.0, /*ok=*/true, kBaseUs);
  }
  const LabelSet latency{{"model", "m"}, {"slo", "latency"}};
  Gauge* slow = registry.GetGauge("karl_slo_burn_rate",
                                  LabelSet(latency).Set("window", "slow"));
  engine.RefreshGaugesAt(kBaseUs);
  EXPECT_GT(slow->value(), 0.0);
  engine.RefreshGaugesAt(kBaseUs + (600 + 30) * kSecond);
  EXPECT_DOUBLE_EQ(slow->value(), 0.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("karl_slo_error_budget_remaining", latency)->value(),
      1.0);
}

TEST(SloEngineTest, FastWindowForgetsBeforeTheSlowWindow) {
  Registry registry;
  SloEngine engine(TightConfig(), &registry, nullptr);
  for (int i = 0; i < 10; ++i) {
    engine.ObserveAt("m", 5'000.0, /*ok=*/true, kBaseUs);
  }
  // 400s later: outside the 300s fast window, inside the 3600s slow
  // one — a sharp-but-old regression stops alerting fast, keeps
  // draining the budget.
  engine.RefreshGaugesAt(kBaseUs + 400 * kSecond);
  const LabelSet latency{{"model", "m"}, {"slo", "latency"}};
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("karl_slo_burn_rate",
                        LabelSet(latency).Set("window", "fast"))
          ->value(),
      0.0);
  EXPECT_GT(registry.GetGauge("karl_slo_burn_rate",
                              LabelSet(latency).Set("window", "slow"))
                ->value(),
            0.0);
}

TEST(SloEngineTest, BurnEdgeLogsOnceAndClearsOnce) {
  const std::string path = TempPath("slo_burn_edges.log");
  util::Logger::Options options;
  options.ndjson = true;
  auto logger = util::Logger::Open(path, options);
  ASSERT_TRUE(logger.ok()) << logger.status().ToString();

  SloConfig config = TightConfig();
  config.default_objective.window_s = 600;
  SloEngine engine(config, nullptr, logger.value().get());
  // Everything misses latency: burn 10 >= slow threshold 6 → one WARN,
  // however many times the state is re-evaluated.
  for (int i = 0; i < 50; ++i) {
    engine.ObserveAt("m", 5'000.0, /*ok=*/true, kBaseUs + i * 1'000);
  }
  engine.RefreshGaugesAt(kBaseUs);
  engine.RefreshGaugesAt(kBaseUs + kSecond);
  // Window rolls empty → burn back to 0 → one INFO clear.
  engine.RefreshGaugesAt(kBaseUs + (600 + 30) * kSecond);
  engine.RefreshGaugesAt(kBaseUs + (600 + 40) * kSecond);

  const std::vector<std::string> lines = ReadLines(path);
  EXPECT_EQ(CountContaining(lines, "\"event\":\"slo.burn\""), 1u);
  EXPECT_EQ(CountContaining(lines, "\"event\":\"slo.burn_clear\""), 1u);
  EXPECT_EQ(CountContaining(lines, "\"model\":\"m\""), 2u);
  EXPECT_EQ(CountContaining(lines, "\"slo\":\"latency\""), 2u);
}

TEST(SloEngineTest, ModelCapCollapsesIntoOther) {
  Registry registry;
  SloConfig config = TightConfig();
  config.max_models = 2;
  SloEngine engine(config, &registry, nullptr);
  engine.ObserveAt("a", 10.0, true, kBaseUs);
  engine.ObserveAt("b", 10.0, true, kBaseUs);
  engine.ObserveAt("c", 10.0, true, kBaseUs);  // Over the cap.
  engine.ObserveAt("d", 10.0, true, kBaseUs);  // Shares c's sink.
  const std::string sloz = engine.SlozJsonAt(kBaseUs);
  auto doc = server::Json::Parse(sloz);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const server::Json* models = doc.value().Find("models");
  ASSERT_NE(models, nullptr);
  EXPECT_NE(models->Find("a"), nullptr);
  EXPECT_NE(models->Find("b"), nullptr);
  EXPECT_EQ(models->Find("c"), nullptr);
  const server::Json* other = models->Find("__other__");
  ASSERT_NE(other, nullptr);
  const server::Json* latency = other->Find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Find("window_total")->number_value(), 2.0);
}

TEST(SloEngineTest, SlozJsonCarriesConfigAndWindowCounts) {
  Registry registry;
  SloEngine engine(TightConfig(), &registry, nullptr);
  for (int i = 0; i < 8; ++i) {
    engine.ObserveAt("m", 500.0, true, kBaseUs);
  }
  engine.ObserveAt("m", 9'000.0, true, kBaseUs);
  engine.ObserveAt("m", 9'000.0, false, kBaseUs);
  auto doc = server::Json::Parse(engine.SlozJsonAt(kBaseUs));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const server::Json* m = doc.value().Find("models")->Find("m");
  ASSERT_NE(m, nullptr);
  const server::Json* latency = m->Find("latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Find("threshold_us")->number_value(), 1'000.0);
  EXPECT_EQ(latency->Find("target")->number_value(), 0.9);
  EXPECT_EQ(latency->Find("window_s")->number_value(), 3600.0);
  EXPECT_EQ(latency->Find("window_total")->number_value(), 10.0);
  EXPECT_EQ(latency->Find("window_bad")->number_value(), 2.0);
  EXPECT_DOUBLE_EQ(latency->Find("burn_rate_slow")->number_value(), 2.0);
  EXPECT_EQ(latency->Find("burning")->bool_value(), false);
  const server::Json* availability = m->Find("availability");
  ASSERT_NE(availability, nullptr);
  EXPECT_EQ(availability->Find("window_bad")->number_value(), 1.0);
  EXPECT_EQ(availability->Find("threshold_us"), nullptr);
}

TEST(SloEngineTest, GaugesAppearInPrometheusExposition) {
  Registry registry;
  SloEngine engine(TightConfig(), &registry, nullptr);
  engine.ObserveAt("alpha", 10.0, true, kBaseUs);
  engine.RefreshGaugesAt(kBaseUs);
  const std::string text = DumpText(registry);
  EXPECT_NE(text.find("karl_slo_burn_rate{model=\"alpha\",slo=\"latency\","
                      "window=\"fast\"} "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("karl_slo_error_budget_remaining{model=\"alpha\","
                      "slo=\"availability\"} "),
            std::string::npos)
      << text;
}

// RollingHistogram and a window_s = 60 SloEngine run on the same
// TimeWheel policy, so one timestamped stream — idle gaps longer than
// either ring included — must give them equal window counts at every
// probe instant.
TEST(SloEngineTest, WindowCountsAgreeWithRollingHistogram) {
  SloConfig config = TightConfig();
  config.default_objective.window_s = 60;
  SloEngine engine(config, nullptr, nullptr);
  RollingHistogram rolling;
  uint64_t now_us = kBaseUs;
  size_t probes = 0;
  size_t nonempty = 0;
  for (uint64_t i = 0; i < 4000; ++i) {
    // Sub-second steps, a 2-minute idle gap every 700 samples.
    now_us += i % 700 == 699 ? 120 * kSecond : 1 + (i * 2654435761u) % 400'000;
    engine.ObserveAt("m", 5.0, /*ok=*/true, now_us);
    rolling.RecordAt(5.0, now_us);
    if (i % 10 != 0) continue;
    const uint64_t probe_us = now_us + (i * 7'919'333u) % (90 * kSecond);
    const auto sloz = server::Json::Parse(engine.SlozJsonAt(probe_us));
    ASSERT_TRUE(sloz.ok());
    const server::Json* latency =
        sloz.value().Find("models")->Find("m")->Find("latency");
    const uint64_t window = rolling.WindowSnapshotAt(probe_us).count;
    const auto count = [latency](const char* key) {
      return static_cast<uint64_t>(latency->Find(key)->number_value());
    };
    EXPECT_EQ(count("fast_total"), window)
        << "probe at +" << (probe_us - kBaseUs) << "us";
    EXPECT_EQ(count("window_total"), window);
    ++probes;
    if (window > 0) ++nonempty;
  }
  EXPECT_EQ(probes, 400u);
  EXPECT_GT(nonempty, 200u);  // The probes saw traffic, not just gaps.
  EXPECT_LT(nonempty, probes);
}

TEST(SloEngineTest, ImpossibleTargetBurnsAtTheCapNotInfinity) {
  Registry registry;
  SloConfig config = TightConfig();
  config.default_objective.latency_target = 1.0;  // Zero budget.
  SloEngine engine(config, &registry, nullptr);
  engine.ObserveAt("m", 5'000.0, true, kBaseUs);
  engine.RefreshGaugesAt(kBaseUs);
  const LabelSet latency{{"model", "m"}, {"slo", "latency"}};
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("karl_slo_burn_rate",
                        LabelSet(latency).Set("window", "fast"))
          ->value(),
      SloEngine::kBurnRateCap);
}

// ------------------------------------------------------ slo_config.h

TEST(SloConfigParseTest, EmptyObjectYieldsDefaults) {
  auto config = server::ParseSloConfig("{}");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config.value().default_objective.latency_threshold_us,
            100'000.0);
  EXPECT_EQ(config.value().default_objective.window_s, 3600u);
  EXPECT_EQ(config.value().max_models, 64u);
  EXPECT_TRUE(config.value().per_model.empty());
}

TEST(SloConfigParseTest, ModelOverridesInheritTheParsedDefault) {
  // "models" precedes "default" on purpose: inheritance must not depend
  // on member order.
  const char* text = R"({
    "models": {"alpha": {"latency_threshold_us": 5000}},
    "default": {"latency_target": 0.95, "window_s": 600},
    "max_models": 8
  })";
  auto config = server::ParseSloConfig(text);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config.value().max_models, 8u);
  const telemetry::SloObjective& alpha = config.value().ForModel("alpha");
  EXPECT_EQ(alpha.latency_threshold_us, 5'000.0);
  EXPECT_EQ(alpha.latency_target, 0.95);  // Inherited from default.
  EXPECT_EQ(alpha.window_s, 600u);        // Inherited from default.
  EXPECT_EQ(config.value().ForModel("beta").latency_threshold_us,
            100'000.0);
}

TEST(SloConfigParseTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "not json",
      "[]",
      R"({"bogus_key": 1})",
      R"({"default": {"bogus": 1}})",
      R"({"default": {"latency_threshold_us": 0}})",
      R"({"default": {"latency_target": 1.0}})",
      R"({"default": {"availability_target": 0}})",
      R"({"default": {"window_s": 30}})",
      R"({"default": {"window_s": 600.5}})",
      R"({"default": {"window_s": 69}})",
      R"({"default": {"fast_burn_threshold": 0}})",
      R"({"default": {"latency_target": "fast"}})",
      R"({"default": []})",
      R"({"max_models": 0})",
      R"({"max_models": 2.5})",
      R"({"models": []})",
      R"({"models": {"": {}}})",
      R"({"models": {"alpha": {"latency_target": 2.0}}})",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(server::ParseSloConfig(text).ok()) << text;
  }
}

TEST(SloConfigParseTest, LoadReadsAFileAndFailsCleanlyWhenMissing) {
  const std::string path = TempPath("slo_config.json");
  {
    std::ofstream out(path);
    out << R"({"default": {"latency_threshold_us": 250}})";
  }
  auto config = server::LoadSloConfigFile(path);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config.value().default_objective.latency_threshold_us, 250.0);
  EXPECT_FALSE(server::LoadSloConfigFile(path + ".does-not-exist").ok());
}

}  // namespace
}  // namespace karl::telemetry
