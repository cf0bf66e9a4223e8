// Tests for the seeded synthetic traffic generator (src/serve/traffic.*)
// and its JSON persistence: seeded determinism, Poisson inter-arrival
// statistics, rate-profile mean preservation, Zipf popularity ranking, and
// save -> replay byte-identity of the trace JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "serve/serialize.hpp"
#include "serve/traffic.hpp"

namespace {

using namespace autohet;

serve::TrafficConfig base_config() {
  serve::TrafficConfig config;
  config.seed = 42;
  config.duration_s = 2.0;
  config.mean_qps = 5000.0;
  return config;
}

std::vector<std::int64_t> model_counts(const serve::TrafficTrace& trace) {
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(trace.num_models), 0);
  for (const serve::Request& r : trace.requests) {
    ++counts[static_cast<std::size_t>(r.model)];
  }
  return counts;
}

// ------------------------------------------------------------ generation --

TEST(Traffic, SameSeedSameTrace) {
  const serve::TrafficConfig config = base_config();
  const serve::TrafficTrace a = serve::generate_trace(config, 3);
  const serve::TrafficTrace b = serve::generate_trace(config, 3);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_EQ(a.requests[i].model, b.requests[i].model);
    EXPECT_EQ(a.requests[i].arrival_ns, b.requests[i].arrival_ns);
  }
}

TEST(Traffic, DifferentSeedDifferentTrace) {
  serve::TrafficConfig config = base_config();
  const serve::TrafficTrace a = serve::generate_trace(config, 3);
  config.seed = 43;
  const serve::TrafficTrace b = serve::generate_trace(config, 3);
  bool differs = a.requests.size() != b.requests.size();
  for (std::size_t i = 0; !differs && i < a.requests.size(); ++i) {
    differs = a.requests[i].arrival_ns != b.requests[i].arrival_ns ||
              a.requests[i].model != b.requests[i].model;
  }
  EXPECT_TRUE(differs);
}

TEST(Traffic, ArrivalsSortedInHorizonWithSequentialIds) {
  const serve::TrafficTrace trace = serve::generate_trace(base_config(), 4);
  const double horizon_ns = base_config().duration_s * 1e9;
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const serve::Request& r = trace.requests[i];
    EXPECT_EQ(r.id, static_cast<std::int64_t>(i));
    EXPECT_GE(r.arrival_ns, 0.0);
    EXPECT_LT(r.arrival_ns, horizon_ns);
    EXPECT_GE(r.model, 0);
    EXPECT_LT(r.model, 4);
    if (i > 0) {
      EXPECT_GE(r.arrival_ns, trace.requests[i - 1].arrival_ns);
    }
  }
}

TEST(Traffic, PoissonInterArrivalMeanMatchesRate) {
  // Constant profile: inter-arrival times are Exp(mean_qps); with ~10k
  // arrivals the sample mean lands within a few percent of 1/rate.
  const serve::TrafficConfig config = base_config();
  const serve::TrafficTrace trace = serve::generate_trace(config, 1);
  ASSERT_GT(trace.requests.size(), 1000u);
  const double span_ns = trace.requests.back().arrival_ns -
                         trace.requests.front().arrival_ns;
  const double mean_gap_ns =
      span_ns / static_cast<double>(trace.requests.size() - 1);
  const double expected_ns = 1e9 / config.mean_qps;
  EXPECT_NEAR(mean_gap_ns, expected_ns, 0.05 * expected_ns);
}

TEST(Traffic, RequestCountTracksMeanRateForEveryProfile) {
  // All three profiles preserve the configured mean, so the total count
  // stays near qps * duration regardless of the shape.
  for (const serve::RateProfile profile :
       {serve::RateProfile::kConstant, serve::RateProfile::kBursty,
        serve::RateProfile::kDiurnal}) {
    serve::TrafficConfig config = base_config();
    config.profile = profile;
    const serve::TrafficTrace trace = serve::generate_trace(config, 2);
    const double expected = config.mean_qps * config.duration_s;
    EXPECT_NEAR(static_cast<double>(trace.requests.size()), expected,
                0.1 * expected)
        << serve::rate_profile_name(profile);
  }
}

TEST(Traffic, RateProfilesPreserveMeanAndRespectPeak) {
  for (const serve::RateProfile profile :
       {serve::RateProfile::kConstant, serve::RateProfile::kBursty,
        serve::RateProfile::kDiurnal}) {
    serve::TrafficConfig config = base_config();
    config.profile = profile;
    const double peak = serve::peak_rate(config);
    const int steps = 20000;
    double sum = 0.0;
    for (int i = 0; i < steps; ++i) {
      const double t =
          (static_cast<double>(i) + 0.5) * config.duration_s / steps;
      const double rate = serve::rate_at(config, t);
      EXPECT_GE(rate, 0.0);
      EXPECT_LE(rate, peak + 1e-9);
      sum += rate;
    }
    EXPECT_NEAR(sum / steps, config.mean_qps, 0.01 * config.mean_qps)
        << serve::rate_profile_name(profile);
  }
}

TEST(Traffic, BurstyRateIsOnOffSquareWave) {
  serve::TrafficConfig config = base_config();
  config.profile = serve::RateProfile::kBursty;
  const double on = config.mean_qps * config.burst_factor;
  EXPECT_DOUBLE_EQ(serve::rate_at(config, 0.01), on);  // in the burst
  const double off_rate = serve::rate_at(config, 0.05);
  EXPECT_LT(off_rate, config.mean_qps);  // compensating trough
  EXPECT_DOUBLE_EQ(serve::peak_rate(config), on);
}

// ------------------------------------------------------------ popularity --

TEST(Traffic, ZipfWeightsNormalizedAndDecreasing) {
  const std::vector<double> w = serve::zipf_weights(5, 1.0);
  ASSERT_EQ(w.size(), 5u);
  double sum = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    sum += w[i];
    if (i > 0) {
      EXPECT_LT(w[i], w[i - 1]);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // s = 0 degenerates to uniform.
  for (const double u : serve::zipf_weights(4, 0.0)) {
    EXPECT_NEAR(u, 0.25, 1e-12);
  }
}

TEST(Traffic, ZipfPopularityRankingHolds) {
  serve::TrafficConfig config = base_config();
  config.zipf_s = 1.0;
  const serve::TrafficTrace trace = serve::generate_trace(config, 4);
  const std::vector<std::int64_t> counts = model_counts(trace);
  // Counts must fall with rank, and each share must land near its Zipf
  // weight (10k samples => a few percent of the total).
  for (std::size_t m = 1; m < counts.size(); ++m) {
    EXPECT_LT(counts[m], counts[m - 1]) << "rank " << m;
  }
  const std::vector<double> w = serve::zipf_weights(4, config.zipf_s);
  const auto total = static_cast<double>(trace.requests.size());
  for (std::size_t m = 0; m < counts.size(); ++m) {
    EXPECT_NEAR(static_cast<double>(counts[m]) / total, w[m], 0.03)
        << "rank " << m;
  }
}

// ------------------------------------------------------------ validation --

TEST(Traffic, ValidateRejectsBadConfigs) {
  serve::TrafficConfig config = base_config();
  config.mean_qps = 0.0;
  EXPECT_THROW(serve::generate_trace(config, 1), std::invalid_argument);

  config = base_config();
  config.duration_s = -1.0;
  EXPECT_THROW(serve::generate_trace(config, 1), std::invalid_argument);

  config = base_config();
  config.profile = serve::RateProfile::kBursty;
  config.burst_factor = 10.0;
  config.burst_fraction = 0.5;  // factor * fraction > 1: mean not preservable
  EXPECT_THROW(serve::generate_trace(config, 1), std::invalid_argument);

  config = base_config();
  config.profile = serve::RateProfile::kDiurnal;
  config.diurnal_depth = 1.5;  // rate would go negative
  EXPECT_THROW(serve::generate_trace(config, 1), std::invalid_argument);

  EXPECT_THROW(serve::generate_trace(base_config(), 0),
               std::invalid_argument);
}

TEST(Traffic, ProfileNamesRoundTrip) {
  for (const serve::RateProfile profile :
       {serve::RateProfile::kConstant, serve::RateProfile::kBursty,
        serve::RateProfile::kDiurnal}) {
    EXPECT_EQ(serve::rate_profile_from_name(serve::rate_profile_name(profile)),
              profile);
  }
  EXPECT_THROW(serve::rate_profile_from_name("hourly"),
               std::invalid_argument);
}

// ----------------------------------------------------------- persistence --

TEST(Traffic, TraceJsonSaveReplayByteIdentical) {
  serve::TrafficConfig config = base_config();
  config.profile = serve::RateProfile::kDiurnal;
  config.zipf_s = 0.8;
  const serve::TrafficTrace trace = serve::generate_trace(config, 3);

  std::ostringstream first;
  serve::write_trace_json(first, trace);
  const serve::TrafficTrace replayed = serve::read_trace_json(first.str());
  std::ostringstream second;
  serve::write_trace_json(second, replayed);
  EXPECT_EQ(first.str(), second.str());

  ASSERT_EQ(replayed.requests.size(), trace.requests.size());
  EXPECT_EQ(replayed.num_models, trace.num_models);
  EXPECT_EQ(replayed.config.seed, trace.config.seed);
  EXPECT_EQ(replayed.config.profile, trace.config.profile);
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(replayed.requests[i].id, trace.requests[i].id);
    EXPECT_EQ(replayed.requests[i].model, trace.requests[i].model);
    EXPECT_EQ(replayed.requests[i].arrival_ns,
              trace.requests[i].arrival_ns);
  }
}

TEST(Traffic, TraceJsonRejectsGarbage) {
  EXPECT_THROW(serve::read_trace_json("not json"), std::invalid_argument);
  EXPECT_THROW(serve::read_trace_json("{\"format\": \"autohet-plan\"}"),
               std::invalid_argument);
}

// Replaces the value after the first `"key": ` in `json` (up to the next
// ',', newline or '}') with `value`.
std::string with_value(std::string json, const std::string& key,
                       const std::string& value) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = json.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no key " << key;
    return json;
  }
  const std::size_t start = at + tag.size();
  return json.replace(start, json.find_first_of(",\n}", start) - start,
                      value);
}

// The mutated trace must be rejected with an error that names `key`.
void expect_rejected(const std::string& json, const std::string& key) {
  try {
    (void)serve::read_trace_json(json);
    ADD_FAILURE() << "accepted a malformed '" << key << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
        << e.what();
  }
}

// A five-request, two-model trace saved to JSON with request 3 changed by
// `edit` before writing.
template <typename Edit>
std::string edited_trace_json(Edit edit) {
  serve::TrafficTrace trace;
  trace.config = base_config();
  trace.num_models = 2;
  for (std::int64_t i = 0; i < 5; ++i) {
    trace.requests.push_back({i, i % 2, 1000.0 * static_cast<double>(i)});
  }
  edit(trace.requests[3]);
  std::ostringstream os;
  serve::write_trace_json(os, trace);
  return os.str();
}

// Reading `json` raises std::invalid_argument containing `expected`.
void expect_trace_rejected(const std::string& json,
                           const std::string& expected) {
  try {
    (void)serve::read_trace_json(json);
    ADD_FAILURE() << "accepted a trace that should fail with: " << expected;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
}

TEST(Traffic, TraceJsonRejectsBrokenOrderContract) {
  ASSERT_NO_THROW((void)serve::read_trace_json(
      edited_trace_json([](serve::Request&) {})));
  // Request 3 moved before request 2: swapped, then negative mid-trace.
  expect_trace_rejected(
      edited_trace_json([](serve::Request& r) { r.arrival_ns = 1500.0; }),
      "trace request 3 arrives before request 2");
  expect_trace_rejected(
      edited_trace_json([](serve::Request& r) { r.arrival_ns = -5.0; }),
      "trace request 3 arrives before request 2");
  expect_trace_rejected(
      edited_trace_json([](serve::Request& r) { r.model = 2; }),
      "trace request 3 targets model 2, outside [0, 2)");
  expect_trace_rejected(
      edited_trace_json([](serve::Request& r) { r.model = -1; }),
      "trace request 3 targets model -1, outside [0, 2)");
  // JSON has no NaN or Inf; an overflowing literal is the non-finite case,
  // rejected under the request's indexed key.
  std::string json =
      edited_trace_json([](serve::Request& r) { r.arrival_ns = 77.0; });
  const std::string finite = "\"arrival_ns\": 77}";
  json.replace(json.find(finite), finite.size(), "\"arrival_ns\": 1e999}");
  expect_trace_rejected(json, "'requests[3].arrival_ns' overflows a double");
}

TEST(Traffic, TraceJsonRejectsMalformedScalars) {
  serve::TrafficConfig config = base_config();
  config.duration_s = 0.01;
  std::ostringstream os;
  serve::write_trace_json(os, serve::generate_trace(config, 2));
  const std::string json = os.str();
  ASSERT_NO_THROW((void)serve::read_trace_json(json));
  // Decimal strings start with a digit: no sign, no whitespace.
  expect_rejected(with_value(json, "seed", "\"-1\""), "seed");
  expect_rejected(with_value(json, "seed", "\" 42\""), "seed");
  expect_rejected(with_value(json, "seed", "\"18446744073709551616\""),
                  "seed");
  expect_rejected(with_value(json, "mean_qps", "5000-1"), "mean_qps");
  expect_rejected(with_value(json, "num_models", "99999999999999999999"),
                  "num_models");
  expect_rejected(with_value(json, "profile", "\"constan\\u00zt\""),
                  "profile");
}

}  // namespace
