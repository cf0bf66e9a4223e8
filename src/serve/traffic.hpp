// Seeded synthetic serving traffic.
//
// A serving simulator is only as trustworthy as its workload, so the
// generator here is fully deterministic from one 64-bit seed: arrivals are a
// (possibly nonhomogeneous) Poisson process sampled by Lewis-Shedler
// thinning, the instantaneous rate follows one of three profiles (constant,
// bursty on/off, diurnal sinusoid — all preserving the configured mean
// rate), and each request picks a model from a Zipf-skewed popularity
// distribution, the standard model of production inference traffic where a
// few models absorb most requests. A generated trace can be saved to JSON
// and replayed byte-identically (serve/serialize.hpp), so a latency result
// can always be pinned to the exact request stream that produced it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace autohet::serve {

enum class RateProfile {
  kConstant,  ///< flat mean_qps
  kBursty,    ///< on/off square wave around the mean
  kDiurnal    ///< sinusoidal day/night swing around the mean
};

/// Stable lower-kebab name used in JSON and on the CLI.
const char* rate_profile_name(RateProfile profile) noexcept;
/// Inverse of rate_profile_name; raises on an unknown name.
RateProfile rate_profile_from_name(const std::string& name);

struct TrafficConfig {
  std::uint64_t seed = 42;
  double duration_s = 1.0;   ///< trace horizon (simulated seconds)
  double mean_qps = 1000.0;  ///< time-averaged arrival rate
  RateProfile profile = RateProfile::kConstant;
  /// Zipf popularity exponent: model k is picked with weight 1/(k+1)^s
  /// (0 = uniform). Lower model indices are more popular.
  double zipf_s = 1.0;
  /// Bursty profile: for `burst_fraction` of each `burst_period_s` the rate
  /// is mean_qps * burst_factor; the rest of the period runs at the
  /// compensating off-rate so the time average stays mean_qps (which
  /// requires burst_factor * burst_fraction <= 1).
  double burst_factor = 4.0;
  double burst_fraction = 0.2;
  double burst_period_s = 0.1;
  /// Diurnal profile: rate = mean_qps * (1 + depth * sin(2pi cycles t/T)).
  double diurnal_cycles = 2.0;
  double diurnal_depth = 0.6;

  /// Raises std::invalid_argument on out-of-range parameters.
  void validate() const;
};

struct Request {
  std::int64_t id = 0;     ///< arrival order, 0-based
  std::int64_t model = 0;  ///< resident-model index
  double arrival_ns = 0.0;
};

struct TrafficTrace {
  TrafficConfig config;
  std::int64_t num_models = 0;
  std::vector<Request> requests;  ///< in arrival order

  /// The trace-order contract the simulator relies on: every request
  /// targets a model in [0, num_models) and has a finite arrival_ns no
  /// earlier than its predecessor's. Raises std::invalid_argument naming
  /// the first offending request's index.
  void validate() const;
};

/// Instantaneous arrival rate (requests/s) at time `t_s` in [0, duration).
double rate_at(const TrafficConfig& config, double t_s);

/// Upper bound of rate_at over the horizon — the thinning majorant.
double peak_rate(const TrafficConfig& config);

/// Normalized Zipf popularity weights for `num_models` models.
std::vector<double> zipf_weights(std::int64_t num_models, double s);

/// Samples the full trace. Deterministic: same (config, num_models) gives
/// the same request stream, on any host.
TrafficTrace generate_trace(const TrafficConfig& config,
                            std::int64_t num_models);

}  // namespace autohet::serve
