#include "serve/traffic.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace autohet::serve {

const char* rate_profile_name(RateProfile profile) noexcept {
  switch (profile) {
    case RateProfile::kConstant:
      return "constant";
    case RateProfile::kBursty:
      return "bursty";
    case RateProfile::kDiurnal:
      return "diurnal";
  }
  return "constant";
}

RateProfile rate_profile_from_name(const std::string& name) {
  if (name == "constant") return RateProfile::kConstant;
  if (name == "bursty") return RateProfile::kBursty;
  if (name == "diurnal") return RateProfile::kDiurnal;
  AUTOHET_CHECK(false, "unknown rate profile: " + name);
  return RateProfile::kConstant;
}

void TrafficConfig::validate() const {
  AUTOHET_CHECK(duration_s > 0.0, "duration_s must be positive");
  AUTOHET_CHECK(mean_qps > 0.0, "mean_qps must be positive");
  AUTOHET_CHECK(zipf_s >= 0.0, "zipf_s must be non-negative");
  if (profile == RateProfile::kBursty) {
    AUTOHET_CHECK(burst_factor >= 1.0, "burst_factor must be >= 1");
    AUTOHET_CHECK(burst_fraction > 0.0 && burst_fraction < 1.0,
                  "burst_fraction must be in (0, 1)");
    AUTOHET_CHECK(burst_factor * burst_fraction <= 1.0,
                  "burst_factor * burst_fraction must be <= 1 (the off-rate "
                  "would be negative)");
    AUTOHET_CHECK(burst_period_s > 0.0, "burst_period_s must be positive");
  }
  if (profile == RateProfile::kDiurnal) {
    AUTOHET_CHECK(diurnal_cycles > 0.0, "diurnal_cycles must be positive");
    AUTOHET_CHECK(diurnal_depth >= 0.0 && diurnal_depth <= 1.0,
                  "diurnal_depth must be in [0, 1]");
  }
}

void TrafficTrace::validate() const {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    // Messages are built only on failure (AUTOHET_CHECK is lazy).
    const auto which = [i] { return "trace request " + std::to_string(i); };
    AUTOHET_CHECK(request.model >= 0 && request.model < num_models,
                  which() + " targets model " + std::to_string(request.model) +
                      ", outside [0, " + std::to_string(num_models) + ")");
    AUTOHET_CHECK(std::isfinite(request.arrival_ns),
                  which() + " has a non-finite arrival_ns");
    AUTOHET_CHECK(i == 0 || request.arrival_ns >= requests[i - 1].arrival_ns,
                  which() + " arrives before request " + std::to_string(i - 1) +
                      " (arrival_ns must not decrease)");
  }
}

double rate_at(const TrafficConfig& config, double t_s) {
  switch (config.profile) {
    case RateProfile::kConstant:
      return config.mean_qps;
    case RateProfile::kBursty: {
      const double phase =
          t_s - config.burst_period_s *
                    std::floor(t_s / config.burst_period_s);
      if (phase < config.burst_fraction * config.burst_period_s) {
        return config.mean_qps * config.burst_factor;
      }
      // Off-rate chosen so the period average equals mean_qps exactly.
      return config.mean_qps *
             (1.0 - config.burst_factor * config.burst_fraction) /
             (1.0 - config.burst_fraction);
    }
    case RateProfile::kDiurnal: {
      constexpr double kTwoPi = 6.283185307179586476925286766559;
      return config.mean_qps *
             (1.0 + config.diurnal_depth *
                        std::sin(kTwoPi * config.diurnal_cycles * t_s /
                                 config.duration_s));
    }
  }
  return config.mean_qps;
}

double peak_rate(const TrafficConfig& config) {
  switch (config.profile) {
    case RateProfile::kConstant:
      return config.mean_qps;
    case RateProfile::kBursty:
      return config.mean_qps * config.burst_factor;
    case RateProfile::kDiurnal:
      return config.mean_qps * (1.0 + config.diurnal_depth);
  }
  return config.mean_qps;
}

std::vector<double> zipf_weights(std::int64_t num_models, double s) {
  AUTOHET_CHECK(num_models >= 1, "need at least one model");
  std::vector<double> weights(static_cast<std::size_t>(num_models));
  double total = 0.0;
  for (std::int64_t k = 0; k < num_models; ++k) {
    const double w = 1.0 / std::pow(static_cast<double>(k + 1), s);
    weights[static_cast<std::size_t>(k)] = w;
    total += w;
  }
  for (double& w : weights) w /= total;
  return weights;
}

TrafficTrace generate_trace(const TrafficConfig& config,
                            std::int64_t num_models) {
  config.validate();
  AUTOHET_CHECK(num_models >= 1, "need at least one model");

  // Independent child streams so adding a profile knob never perturbs the
  // model-popularity draws of an existing trace.
  const common::Rng base(config.seed);
  common::Rng arrival_rng = base.child(1);
  common::Rng thin_rng = base.child(2);
  common::Rng model_rng = base.child(3);

  std::vector<double> cumulative = zipf_weights(num_models, config.zipf_s);
  for (std::size_t k = 1; k < cumulative.size(); ++k) {
    cumulative[k] += cumulative[k - 1];
  }
  cumulative.back() = 1.0;  // guard against rounding shortfall

  TrafficTrace trace;
  trace.config = config;
  trace.num_models = num_models;

  // Lewis-Shedler thinning: sample a homogeneous process at the majorant
  // rate, keep each point with probability rate(t) / majorant.
  const double majorant = peak_rate(config);
  double t = 0.0;  // seconds
  std::int64_t id = 0;
  for (;;) {
    // uniform() < 1, so the log argument is strictly positive.
    t += -std::log(1.0 - arrival_rng.uniform()) / majorant;
    if (t >= config.duration_s) break;
    if (thin_rng.uniform() * majorant > rate_at(config, t)) continue;
    const double u = model_rng.uniform();
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), u);
    Request request;
    request.id = id++;
    request.model =
        static_cast<std::int64_t>(it - cumulative.begin());
    request.arrival_ns = t * 1e9;
    trace.requests.push_back(request);
  }
  return trace;
}

}  // namespace autohet::serve
