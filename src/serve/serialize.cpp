#include "serve/serialize.hpp"

#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "report/json.hpp"
#include "report/serialize.hpp"

namespace autohet::serve {

namespace {

using report::as_array;
using report::as_double;
using report::as_int;
using report::as_string;
using report::as_u64_string;
using report::format_double_json;
using report::JsonValue;

void write_traffic_config(std::ostream& os, const TrafficConfig& config,
                          const char* indent) {
  const auto f = [](double v) { return format_double_json(v); };
  os << "{\n"
     << indent << "  \"seed\": \"" << config.seed << "\",\n"
     << indent << "  \"duration_s\": " << f(config.duration_s) << ",\n"
     << indent << "  \"mean_qps\": " << f(config.mean_qps) << ",\n"
     << indent << "  \"profile\": \"" << rate_profile_name(config.profile)
     << "\",\n"
     << indent << "  \"zipf_s\": " << f(config.zipf_s) << ",\n"
     << indent << "  \"burst_factor\": " << f(config.burst_factor) << ",\n"
     << indent << "  \"burst_fraction\": " << f(config.burst_fraction)
     << ",\n"
     << indent << "  \"burst_period_s\": " << f(config.burst_period_s)
     << ",\n"
     << indent << "  \"diurnal_cycles\": " << f(config.diurnal_cycles)
     << ",\n"
     << indent << "  \"diurnal_depth\": " << f(config.diurnal_depth) << '\n'
     << indent << '}';
}

TrafficConfig read_traffic_config(const JsonValue& obj) {
  TrafficConfig config;
  config.seed = as_u64_string(obj.at("seed"), "seed");
  config.duration_s = as_double(obj.at("duration_s"), "duration_s");
  config.mean_qps = as_double(obj.at("mean_qps"), "mean_qps");
  config.profile =
      rate_profile_from_name(as_string(obj.at("profile"), "profile"));
  config.zipf_s = as_double(obj.at("zipf_s"), "zipf_s");
  config.burst_factor = as_double(obj.at("burst_factor"), "burst_factor");
  config.burst_fraction =
      as_double(obj.at("burst_fraction"), "burst_fraction");
  config.burst_period_s =
      as_double(obj.at("burst_period_s"), "burst_period_s");
  config.diurnal_cycles =
      as_double(obj.at("diurnal_cycles"), "diurnal_cycles");
  config.diurnal_depth =
      as_double(obj.at("diurnal_depth"), "diurnal_depth");
  return config;
}

void write_latency_summary(std::ostream& os, const LatencySummary& latency) {
  const auto f = [](double v) { return format_double_json(v); };
  os << "{\"p50\": " << f(latency.p50_ms) << ", \"p95\": " << f(latency.p95_ms)
     << ", \"p99\": " << f(latency.p99_ms) << ", \"mean\": "
     << f(latency.mean_ms) << ", \"max\": " << f(latency.max_ms) << '}';
}

}  // namespace

void write_trace_json(std::ostream& os, const TrafficTrace& trace) {
  os << "{\n"
     << "  \"format\": \"autohet-traffic\",\n"
     << "  \"version\": 1,\n"
     << "  \"config\": ";
  write_traffic_config(os, trace.config, "  ");
  os << ",\n  \"num_models\": " << trace.num_models
     << ",\n  \"requests\": [";
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    const Request& r = trace.requests[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << r.id
       << ", \"model\": " << r.model << ", \"arrival_ns\": "
       << report::format_double_json(r.arrival_ns) << '}';
  }
  os << "\n  ]\n}\n";
}

TrafficTrace read_trace_json(const std::string& text) {
  const JsonValue doc = report::parse_json(text);
  AUTOHET_CHECK(doc.kind == JsonValue::Kind::kObject,
                "traffic JSON must be an object");
  AUTOHET_CHECK(as_string(doc.at("format"), "format") == "autohet-traffic",
                "not an autohet-traffic document");
  AUTOHET_CHECK(as_int(doc.at("version"), "version") == 1,
                "unsupported traffic trace version");

  TrafficTrace trace;
  trace.config = read_traffic_config(doc.at("config"));
  trace.num_models = as_int(doc.at("num_models"), "num_models");
  const std::vector<JsonValue>& requests =
      as_array(doc.at("requests"), "requests");
  trace.requests.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Keys carry the request index, so a malformed scalar names its request.
    const std::string at = "requests[" + std::to_string(i) + "].";
    const JsonValue& r = requests[i];
    Request request;
    request.id = as_int(r.at("id"), at + "id");
    request.model = as_int(r.at("model"), at + "model");
    request.arrival_ns = as_double(r.at("arrival_ns"), at + "arrival_ns");
    trace.requests.push_back(request);
  }
  trace.validate();
  return trace;
}

void write_serving_json(std::ostream& os, const ServingReport& report) {
  const auto f = [](double v) { return format_double_json(v); };
  os << "{\n"
     << "  \"format\": \"autohet-serving\",\n"
     << "  \"version\": 1,\n"
     << "  \"traffic\": ";
  write_traffic_config(os, report.traffic, "  ");
  os << ",\n  \"batching\": {\"max_batch\": " << report.batching.max_batch
     << ", \"max_wait_ns\": " << f(report.batching.max_wait_ns) << "},\n"
     << "  \"fabric\": {\"tile_capacity\": " << report.tile_capacity
     << ", \"eviction\": \"" << eviction_policy_name(report.eviction)
     << "\", \"sharing\": \"" << sharing_scope_name(report.scope)
     << "\", \"functional\": " << (report.functional ? "true" : "false")
     << "},\n"
     << "  \"totals\": {\n"
     << "    \"requests\": " << report.total_requests << ",\n"
     << "    \"batches\": " << report.total_batches << ",\n"
     << "    \"swap_ins\": " << report.swap_ins << ",\n"
     << "    \"evictions\": " << report.evictions << ",\n"
     << "    \"sim_duration_s\": " << f(report.sim_duration_s) << ",\n"
     << "    \"sustained_qps\": " << f(report.sustained_qps) << ",\n"
     << "    \"latency_ms\": ";
  write_latency_summary(os, report.latency);
  os << ",\n    \"mean_batch\": " << f(report.mean_batch) << ",\n"
     << "    \"peak_queue_depth\": " << report.peak_queue_depth << ",\n"
     << "    \"mean_queue_depth\": " << f(report.mean_queue_depth) << ",\n"
     << "    \"accel_busy_fraction\": " << f(report.accel_busy_fraction)
     << ",\n"
     << "    \"energy_nj\": {\"inference\": " << f(report.inference_energy_nj)
     << ", \"programming\": " << f(report.programming_energy_nj)
     << ", \"total\": " << f(report.total_energy_nj) << "},\n"
     << "    \"energy_per_request_nj\": " << f(report.energy_per_request_nj)
     << "\n  },\n  \"models\": [";
  for (std::size_t m = 0; m < report.models.size(); ++m) {
    const ModelServingStats& stats = report.models[m];
    os << (m == 0 ? "\n" : ",\n") << "    {\"model\": " << m
       << ", \"network\": \"" << report::json_escape(stats.network)
       << "\",\n     \"requests\": " << stats.requests
       << ", \"batches\": " << stats.batches
       << ", \"swap_ins\": " << stats.swap_ins
       << ", \"evictions\": " << stats.evictions
       << ", \"mean_batch\": " << f(stats.mean_batch)
       << ",\n     \"latency_ms\": ";
    write_latency_summary(os, stats.latency);
    os << ",\n     \"energy_per_request_nj\": "
       << f(stats.energy_per_request_nj)
       << ", \"inference_energy_nj\": " << f(stats.inference_energy_nj)
       << ", \"standalone_tiles\": " << stats.standalone_tiles << '}';
  }
  os << "\n  ]\n}\n";
}

std::string serving_json_string(const ServingReport& report) {
  std::ostringstream os;
  write_serving_json(os, report);
  return os.str();
}

}  // namespace autohet::serve
