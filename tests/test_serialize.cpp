#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "mapping/plan.hpp"
#include "nn/model_zoo.hpp"
#include "report/json.hpp"
#include "report/serialize.hpp"

namespace autohet {
namespace {

reram::NetworkReport sample_report() {
  const auto layers = nn::lenet5().mappable_layers();
  return plan::evaluate_plan(plan::compile_plan(
      "LeNet5", layers,
      std::vector<mapping::CrossbarShape>(layers.size(), {64, 64}),
      reram::AcceleratorConfig{}));
}

TEST(SerializeNetworkReport, HasHeaderLayersAndTotal) {
  const auto report = sample_report();
  std::ostringstream oss;
  report::write_network_report_csv(oss, report);
  const std::string csv = oss.str();
  // Header + 5 layers + TOTAL = 7 lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7);
  EXPECT_EQ(csv.rfind("layer,shape,", 0), 0u);
  EXPECT_NE(csv.find("\nTOTAL,"), std::string::npos);
  EXPECT_NE(csv.find("64x64"), std::string::npos);
}

TEST(SerializeNetworkReport, LayerRowsCarryPerLayerNumbers) {
  const auto report = sample_report();
  std::ostringstream oss;
  report::write_network_report_csv(oss, report);
  std::istringstream iss(oss.str());
  std::string line;
  std::getline(iss, line);  // header
  std::getline(iss, line);  // layer 1
  EXPECT_EQ(line.rfind("1,64x64,", 0), 0u);
}

// ------------------------------------------------------- plan JSON input --

std::string read_fixture() {
  std::ifstream file(std::string(AUTOHET_TEST_DATA_DIR) +
                     "/plan_v1_lenet5.json");
  EXPECT_TRUE(file.good()) << "cannot open the plan fixture";
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
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

// The mutated plan must be rejected with an error that names `key`.
void expect_rejected(const std::string& json, const std::string& key) {
  try {
    (void)report::read_plan_json(json);
    ADD_FAILURE() << "accepted a malformed '" << key << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
        << e.what();
  }
}

TEST(ReadPlanJson, RejectsMalformedScalars) {
  const std::string fixture = read_fixture();
  ASSERT_NO_THROW((void)report::read_plan_json(fixture));
  // A number token strtod only partly consumes.
  expect_rejected(with_value(fixture, "program_sigma", "0-5"),
                  "program_sigma");
  // Overflow: to infinity for doubles, past 64 bits for integers.
  expect_rejected(with_value(fixture, "adc_energy_pj", "1e999"),
                  "adc_energy_pj");
  expect_rejected(with_value(fixture, "pes_per_tile", "99999999999999999999"),
                  "pes_per_tile");
  expect_rejected(with_value(fixture, "seed", "\"18446744073709551616\""),
                  "seed");
  // Decimal strings carry no sign.
  expect_rejected(with_value(fixture, "seed", "\"-1\""), "seed");
  expect_rejected(
      with_value(fixture, "fault_fingerprint", "\"+6246747184277700905\""),
      "fault_fingerprint");
  // A \u escape needs four hex digits.
  expect_rejected(with_value(fixture, "network", "\"LeNet\\u00g5\""),
                  "network");
  // Underflow to a subnormal is a faithful value, not an overflow.
  EXPECT_EQ(report::as_double(report::parse_json("4.9406564584124654e-324"),
                              "subnormal"),
            std::numeric_limits<double>::denorm_min());
}

TEST(ReadPlanJson, RejectsRetentionDrift) {
  // The fault model has no read noise or retention drift: their keys stay
  // in the format at 0, and a plan asking for either fails naming the key
  // and its line.
  const std::string fixture = read_fixture();
  for (const auto& [key, value] :
       {std::pair<std::string, std::string>{"read_sigma", "0.05"},
        {"drift_time_s", "1"},
        {"drift_nu", "0.1"}}) {
    try {
      (void)report::read_plan_json(with_value(fixture, key, value));
      ADD_FAILURE() << "accepted " << key << " = " << value;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + key + "' must be 0"), std::string::npos)
          << what;
      EXPECT_NE(what.find("(line "), std::string::npos) << what;
    }
  }
}

TEST(WritePlanJson, KeepsReadNoiseAndDriftKeysAtZero) {
  // A written plan keeps the read-noise and drift keys at 0, so readers of
  // the format find every key, and it reads back to the same faults.
  const auto layers = nn::lenet5().mappable_layers();
  reram::AcceleratorConfig accel;
  accel.faults.stuck_at_zero_rate = 0.01;
  accel.faults.stuck_at_one_rate = 0.002;
  accel.faults.program_sigma = 0.05;
  const plan::DeploymentPlan written = plan::compile_plan(
      "LeNet5", layers,
      std::vector<mapping::CrossbarShape>(layers.size(), {64, 64}), accel);
  std::ostringstream os;
  report::write_plan_json(os, written);
  const std::string json = os.str();
  for (const char* key : {"read_sigma", "drift_time_s", "drift_nu"}) {
    const std::string entry = std::string("\"") + key + "\": 0,\n";
    const std::size_t at = json.find(entry);
    EXPECT_NE(at, std::string::npos) << key;
    EXPECT_EQ(json.find(entry, at + 1), std::string::npos) << key;
  }

  const plan::DeploymentPlan read = report::read_plan_json(json);
  const reram::FaultConfig& a = written.accel.faults;
  const reram::FaultConfig& b = read.accel.faults;
  EXPECT_EQ(b.stuck_at_zero_rate, a.stuck_at_zero_rate);
  EXPECT_EQ(b.stuck_at_one_rate, a.stuck_at_one_rate);
  EXPECT_EQ(b.program_sigma, a.program_sigma);
  EXPECT_EQ(b.cell_bits, a.cell_bits);
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(read.fault_fingerprint, written.fault_fingerprint);
  std::ostringstream again;
  report::write_plan_json(again, read);
  EXPECT_EQ(again.str(), json);
}

// ----------------------------------------------------- JSON scalar readers --

// `text` parsed as one JSON document, read by `reader` under key "k".
template <typename Reader>
auto read_scalar(const std::string& text, Reader reader) {
  return reader(report::parse_json(text), "k");
}

TEST(JsonReaders, DoubleConsumesTheWholeToken) {
  EXPECT_EQ(read_scalar("0", report::as_double), 0.0);
  EXPECT_EQ(read_scalar("-0.5", report::as_double), -0.5);
  EXPECT_EQ(read_scalar("1e-3", report::as_double), 1e-3);
  EXPECT_EQ(read_scalar("2.5E+17", report::as_double), 2.5e17);
  EXPECT_EQ(read_scalar("1.7976931348623157e308", report::as_double),
            std::numeric_limits<double>::max());
  for (const char* bad : {"0-5", "1e5-", "1.5.2", "--1", "1e", "-"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(read_scalar(bad, report::as_double), std::invalid_argument);
  }
  // Overflow to +-infinity is rejected; a string is not a number.
  for (const char* bad : {"1e999", "-1e999", "\"1\""}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(read_scalar(bad, report::as_double), std::invalid_argument);
  }
}

TEST(JsonReaders, IntAcceptsExactlyTheInt64Range) {
  EXPECT_EQ(read_scalar("0", report::as_int), 0);
  EXPECT_EQ(read_scalar("-42", report::as_int), -42);
  EXPECT_EQ(read_scalar("9223372036854775807", report::as_int),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(read_scalar("-9223372036854775808", report::as_int),
            std::numeric_limits<std::int64_t>::min());
  // One past either end, fractions and exponents are not int64 values.
  for (const char* bad : {"9223372036854775808", "-9223372036854775809",
                          "1.5", "1e3", "7-", "\"7\""}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(read_scalar(bad, report::as_int), std::invalid_argument);
  }
}

TEST(JsonReaders, U64StringAcceptsExactlyTheUint64Range) {
  EXPECT_EQ(read_scalar("\"0\"", report::as_u64_string), 0u);
  EXPECT_EQ(read_scalar("\"18446744073709551615\"", report::as_u64_string),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad :
       {"\"18446744073709551616\"", "\"\"", "\"+1\"", "\"-0\"", "\" 1\"",
        "\"1 \"", "\"0x10\"", "\"1e3\"", "1"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(read_scalar(bad, report::as_u64_string),
                 std::invalid_argument);
  }
}

TEST(JsonReaders, UnicodeEscapesNeedFourHexDigits) {
  EXPECT_EQ(read_scalar("\"\\u0041\"", report::as_string), "A");
  EXPECT_EQ(read_scalar("\"\\u004a\\u004A\"", report::as_string), "JJ");
  EXPECT_EQ(read_scalar("\"x\\u0000y\"", report::as_string),
            std::string("x\0y", 3));
  for (const char* bad : {"\"\\u41\"", "\"\\u004g\"", "\"\\u 041\"",
                          "\"\\u-041\"", "\"\\u", "\"\\u00e9\""}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(read_scalar(bad, report::as_string), std::invalid_argument);
  }
}

TEST(JsonReaders, EscapedStringsRoundTripThroughTheParser) {
  std::string all_ascii;
  for (int c = 1; c < 0x80; ++c) all_ascii += static_cast<char>(c);
  for (const std::string& s :
       {std::string(), std::string("plain"), std::string("q\"b\\s/t\tn\n"),
        all_ascii}) {
    std::string json = "\"";
    json += report::json_escape(s);
    json += '"';
    EXPECT_EQ(report::as_string(report::parse_json(json), "k"), s) << json;
  }
}

TEST(JsonReaders, ParseErrorsNameTheInnermostKey) {
  const auto message_of = [](const std::string& text) -> std::string {
    try {
      (void)report::parse_json(text);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    ADD_FAILURE() << "accepted " << text;
    return {};
  };
  const std::string nested = message_of("{\"outer\": {\"inner\": \"\\q\"}}");
  EXPECT_NE(nested.find("in key 'inner'"), std::string::npos) << nested;
  // A finished member does not leak its key into the next one.
  const std::string sibling =
      message_of("{\"a\": {\"b\": 1}, \"c\": [1, \"\\u12\"]}");
  EXPECT_NE(sibling.find("in key 'c'"), std::string::npos) << sibling;
  EXPECT_EQ(sibling.find("'b'"), std::string::npos) << sibling;
  // Outside any member no key is named.
  const std::string top = message_of("[\"\\q\"]");
  EXPECT_EQ(top.find("in key"), std::string::npos) << top;
}

}  // namespace
}  // namespace autohet
