#include "server/slo_config.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "server/json.h"

namespace karl::server {

namespace {

using telemetry::SloConfig;
using telemetry::SloObjective;

// Applies one objective block onto `out` (which carries the defaults the
// block inherits). `where` names the block in error messages.
util::Status ApplyObjective(const Json& block, const std::string& where,
                            SloObjective* out) {
  if (!block.is_object()) {
    return util::Status::InvalidArgument("slo-config: " + where +
                                         " must be an object");
  }
  struct NumberField {
    const char* key;
    double* target;
  };
  double window_s = static_cast<double>(out->window_s);
  const NumberField fields[] = {
      {"latency_threshold_us", &out->latency_threshold_us},
      {"latency_target", &out->latency_target},
      {"availability_target", &out->availability_target},
      {"window_s", &window_s},
      {"fast_burn_threshold", &out->fast_burn_threshold},
      {"slow_burn_threshold", &out->slow_burn_threshold},
  };
  for (const auto& [key, value] : block.members()) {
    bool known = false;
    for (const NumberField& field : fields) {
      if (key != field.key) continue;
      known = true;
      if (!value.is_number()) {
        return util::Status::InvalidArgument("slo-config: " + where + "." +
                                             key + " must be a number");
      }
      *field.target = value.number_value();
    }
    if (!known) {
      return util::Status::InvalidArgument("slo-config: unknown key '" + key +
                                           "' in " + where);
    }
  }
  if (!(out->latency_threshold_us > 0.0)) {
    return util::Status::InvalidArgument(
        "slo-config: " + where + ".latency_threshold_us must be > 0");
  }
  for (const auto& [name, target] :
       {std::pair<const char*, double>{"latency_target", out->latency_target},
        {"availability_target", out->availability_target}}) {
    if (!(target > 0.0) || !(target < 1.0)) {
      return util::Status::InvalidArgument("slo-config: " + where + "." +
                                           name + " must be in (0, 1)");
    }
  }
  if (!(out->fast_burn_threshold > 0.0) || !(out->slow_burn_threshold > 0.0)) {
    return util::Status::InvalidArgument("slo-config: " + where +
                                         " burn thresholds must be > 0");
  }
  // Whole 10s wheel slots only: any other span would be floored to one.
  if (!(window_s >= 60.0) || !(window_s <= 86400.0) ||
      std::fmod(window_s, 10.0) != 0.0) {
    return util::Status::InvalidArgument(
        "slo-config: " + where +
        ".window_s must be an integer multiple of 10 in [60, 86400]");
  }
  out->window_s = static_cast<uint64_t>(window_s);
  return util::Status::OK();
}

}  // namespace

util::Result<telemetry::SloConfig> ParseSloConfig(std::string_view text) {
  auto doc = Json::Parse(text);
  if (!doc.ok()) {
    return util::Status::InvalidArgument("slo-config: " +
                                         doc.status().message());
  }
  if (!doc.value().is_object()) {
    return util::Status::InvalidArgument(
        "slo-config: top level must be an object");
  }
  SloConfig config;
  for (const auto& [key, value] : doc.value().members()) {
    if (key == "default") {
      auto status = ApplyObjective(value, "default", &config.default_objective);
      if (!status.ok()) return status;
    } else if (key == "max_models") {
      if (!value.is_number() || !(value.number_value() >= 1.0) ||
          !(value.number_value() <= 4096.0) ||
          value.number_value() != std::floor(value.number_value())) {
        return util::Status::InvalidArgument(
            "slo-config: max_models must be an integer in [1, 4096]");
      }
      config.max_models = static_cast<size_t>(value.number_value());
    } else if (key == "models") {
      if (!value.is_object()) {
        return util::Status::InvalidArgument(
            "slo-config: models must be an object");
      }
      // Deferred below so overrides inherit a fully-parsed default block
      // regardless of member order.
    } else {
      return util::Status::InvalidArgument("slo-config: unknown key '" + key +
                                           "'");
    }
  }
  if (const Json* models = doc.value().Find("models"); models != nullptr) {
    for (const auto& [model, block] : models->members()) {
      if (model.empty()) {
        return util::Status::InvalidArgument(
            "slo-config: model names must be non-empty");
      }
      SloObjective objective = config.default_objective;
      auto status = ApplyObjective(block, "models." + model, &objective);
      if (!status.ok()) return status;
      config.per_model.emplace(model, objective);
    }
  }
  return config;
}

util::Result<telemetry::SloConfig> LoadSloConfigFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::IOError("cannot open slo-config file '" + path +
                                 "'");
  }
  std::ostringstream body;
  body << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return util::Status::IOError("failed reading slo-config file '" + path +
                                 "'");
  }
  return ParseSloConfig(body.str());
}

}  // namespace karl::server
