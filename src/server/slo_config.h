// JSON form of the SLO configuration behind `karl_server --slo-config`.
//
// Lives in server/ (not telemetry/) so telemetry stays free of the JSON
// dependency; the parsed telemetry::SloConfig is what the engine runs on.
//
// Document shape (every field optional; absent fields keep the built-in
// defaults, and a model override inherits the file's default block):
//
//   {
//     "default": {
//       "latency_threshold_us": 100000,
//       "latency_target": 0.99,
//       "availability_target": 0.999,
//       "window_s": 3600,
//       "fast_burn_threshold": 14.4,
//       "slow_burn_threshold": 6.0
//     },
//     "max_models": 64,
//     "models": {
//       "alpha": {"latency_threshold_us": 50000}
//     }
//   }
//
// Validation: thresholds must be positive, targets in (0, 1) — a target
// of 1.0 would make the error budget zero and every request a burn —
// and window_s an integer multiple of 10 in [60, 86400]: the budget
// window is a whole number of the SLO engine's 10s wheel slots, and the
// per-model wheel stays bounded.

#ifndef KARL_SERVER_SLO_CONFIG_H_
#define KARL_SERVER_SLO_CONFIG_H_

#include <string>
#include <string_view>

#include "telemetry/slo.h"
#include "util/status.h"

namespace karl::server {

/// Parses the --slo-config document; error messages name the offending
/// field and model.
util::Result<telemetry::SloConfig> ParseSloConfig(std::string_view text);

/// Reads `path` and parses it.
util::Result<telemetry::SloConfig> LoadSloConfigFile(const std::string& path);

}  // namespace karl::server

#endif  // KARL_SERVER_SLO_CONFIG_H_
