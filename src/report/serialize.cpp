#include "report/serialize.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "nn/graph.hpp"
#include "report/json.hpp"
#include "report/table.hpp"

namespace autohet::report {

std::string format_double_json(double value) {
  AUTOHET_CHECK(std::isfinite(value), "JSON cannot represent NaN/Inf");
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    const double parsed = std::strtod(buf, nullptr);
    if (std::bit_cast<std::uint64_t>(parsed) ==
        std::bit_cast<std::uint64_t>(value)) {
      return buf;
    }
  }
  return buf;  // %.17g always round-trips IEEE doubles
}

void write_network_report_csv(std::ostream& os,
                              const reram::NetworkReport& report) {
  Table table({"layer", "shape", "logical_crossbars", "adc_instances",
               "tiles", "mvms", "utilization", "adc_nj", "dac_nj", "cell_nj",
               "shift_add_nj", "buffer_nj", "total_nj", "latency_ns"});
  for (std::size_t k = 0; k < report.layers.size(); ++k) {
    const auto& lr = report.layers[k];
    table.add_row({std::to_string(k + 1), lr.shape.name(),
                   std::to_string(lr.logical_crossbars),
                   std::to_string(lr.adc_instances),
                   std::to_string(lr.tiles),
                   std::to_string(lr.mvm_invocations),
                   format_fixed(lr.utilization, 6),
                   format_sci(lr.energy.adc_nj, 6),
                   format_sci(lr.energy.dac_nj, 6),
                   format_sci(lr.energy.cell_nj, 6),
                   format_sci(lr.energy.shift_add_nj, 6),
                   format_sci(lr.energy.buffer_nj, 6),
                   format_sci(lr.energy.total_nj(), 6),
                   format_sci(lr.latency_ns, 6)});
  }
  table.add_row({"TOTAL", "", "", "", std::to_string(report.occupied_tiles),
                 "", format_fixed(report.utilization, 6),
                 format_sci(report.energy.adc_nj, 6),
                 format_sci(report.energy.dac_nj, 6),
                 format_sci(report.energy.cell_nj, 6),
                 format_sci(report.energy.shift_add_nj, 6),
                 format_sci(report.energy.buffer_nj, 6),
                 format_sci(report.energy.total_nj(), 6),
                 format_sci(report.latency_ns, 6)});
  table.print_csv(os);
}

namespace {

/// Highest non-empty bucket index, or 0 when the histogram is empty.
std::size_t last_used_bucket(
    const obs::MetricsSnapshot::HistogramSample& h) {
  std::size_t last = 0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    if (h.buckets[b] > 0) last = b;
  }
  return last;
}

}  // namespace

void write_metrics_prometheus(std::ostream& os,
                              const obs::MetricsSnapshot& snapshot) {
  for (const auto& c : snapshot.counters) {
    os << "# TYPE " << c.name << " counter\n"
       << c.name << ' ' << c.value << '\n';
  }
  for (const auto& g : snapshot.gauges) {
    os << "# TYPE " << g.name << " gauge\n" << g.name << ' ' << g.value
       << '\n';
  }
  for (const auto& h : snapshot.histograms) {
    os << "# TYPE " << h.name << " histogram\n";
    const std::size_t last = last_used_bucket(h);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b <= last; ++b) {
      if (h.buckets[b] == 0 && b != last) continue;
      cumulative += h.buckets[b];
      os << h.name << "_bucket{le=\""
         << obs::Histogram::bucket_upper_bound(b) << "\"} " << cumulative
         << '\n';
    }
    os << h.name << "_bucket{le=\"+Inf\"} " << h.count << '\n'
       << h.name << "_sum " << h.sum << '\n'
       << h.name << "_count " << h.count << '\n';
  }
}

void write_metrics_json(std::ostream& os,
                        const obs::MetricsSnapshot& snapshot) {
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    os << (i == 0 ? "\n" : ",\n") << "    \"" << c.name
       << "\": " << c.value;
  }
  os << (snapshot.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    os << (i == 0 ? "\n" : ",\n") << "    \"" << g.name << "\": " << g.value;
  }
  os << (snapshot.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    os << (i == 0 ? "\n" : ",\n") << "    \"" << h.name
       << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"buckets\": [";
    const std::size_t last = last_used_bucket(h);
    std::uint64_t cumulative = 0;
    bool first = true;
    for (std::size_t b = 0; b <= last; ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      os << (first ? "" : ", ") << "{\"le\": "
         << obs::Histogram::bucket_upper_bound(b)
         << ", \"count\": " << cumulative << '}';
      first = false;
    }
    // Terminal +Inf bucket (mirrors the Prometheus exposition above) so a
    // consumer can compute quantiles without knowing the bucket layout.
    os << (first ? "" : ", ") << "{\"le\": \"+Inf\", \"count\": " << h.count
       << '}';
    os << "]}";
  }
  os << (snapshot.histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

// ---------------------------------------------------------------------------
// DeploymentPlan JSON (schema documented in DESIGN.md, "Compile/deploy
// split"). The writer is deterministic — fixed key order, round-trip double
// rendering, 64-bit ids as decimal strings — and the reader below is a
// minimal recursive-descent JSON parser (the repo deliberately has no
// external JSON dependency).
// ---------------------------------------------------------------------------

namespace {

const char* layer_type_name(nn::LayerType t) {
  switch (t) {
    case nn::LayerType::kConv: return "conv";
    case nn::LayerType::kFullyConnected: return "fc";
    case nn::LayerType::kMaxPool: return "maxpool";
    case nn::LayerType::kAvgPool: return "avgpool";
  }
  return "conv";
}

nn::LayerType layer_type_from_name(const std::string& name) {
  if (name == "conv") return nn::LayerType::kConv;
  if (name == "fc") return nn::LayerType::kFullyConnected;
  if (name == "maxpool") return nn::LayerType::kMaxPool;
  if (name == "avgpool") return nn::LayerType::kAvgPool;
  AUTOHET_CHECK(false, "unknown layer type: " + name);
  return nn::LayerType::kConv;
}

// `with_vector_unit` gates the v2-only vector functional unit keys so v1
// documents stay byte-identical to every historical plan JSON.
void write_device_json(std::ostream& os, const reram::DeviceParams& d,
                       const char* indent, bool with_vector_unit) {
  const auto f = [](double v) { return format_double_json(v); };
  os << "{\n"
     << indent << "  \"weight_bits\": " << d.weight_bits << ",\n"
     << indent << "  \"input_bits\": " << d.input_bits << ",\n"
     << indent << "  \"cell_bits\": " << d.cell_bits << ",\n"
     << indent << "  \"dac_bits\": " << d.dac_bits << ",\n"
     << indent << "  \"adc_resolution_bits\": " << d.adc_resolution_bits
     << ",\n"
     << indent << "  \"adc_share\": " << d.adc_share << ",\n"
     << indent << "  \"adc_energy_pj\": " << f(d.adc_energy_pj) << ",\n"
     << indent << "  \"dac_energy_pj\": " << f(d.dac_energy_pj) << ",\n"
     << indent << "  \"cell_read_energy_pj\": " << f(d.cell_read_energy_pj)
     << ",\n"
     << indent << "  \"shift_add_energy_pj\": " << f(d.shift_add_energy_pj)
     << ",\n"
     << indent << "  \"buffer_rw_energy_pj\": " << f(d.buffer_rw_energy_pj)
     << ",\n"
     << indent << "  \"adc_area_um2\": " << f(d.adc_area_um2) << ",\n"
     << indent << "  \"dac_area_um2\": " << f(d.dac_area_um2) << ",\n"
     << indent << "  \"cell_area_um2\": " << f(d.cell_area_um2) << ",\n"
     << indent << "  \"shift_add_area_um2\": " << f(d.shift_add_area_um2)
     << ",\n"
     << indent << "  \"tile_overhead_area_um2\": "
     << f(d.tile_overhead_area_um2) << ",\n"
     << indent << "  \"base_cycle_ns\": " << f(d.base_cycle_ns) << ",\n"
     << indent << "  \"wire_delay_ns_per_row\": " << f(d.wire_delay_ns_per_row)
     << ",\n"
     << indent << "  \"adc_latency_ns\": " << f(d.adc_latency_ns) << ",\n"
     << indent << "  \"merge_latency_ns\": " << f(d.merge_latency_ns) << ",\n"
     << indent << "  \"bus_latency_ns\": " << f(d.bus_latency_ns);
  if (with_vector_unit) {
    os << ",\n"
       << indent << "  \"vector_lanes\": " << d.vector_lanes << ",\n"
       << indent << "  \"vector_op_energy_pj\": " << f(d.vector_op_energy_pj)
       << ",\n"
       << indent << "  \"vector_cycle_ns\": " << f(d.vector_cycle_ns);
  }
  os << '\n' << indent << '}';
}

void write_faults_json(std::ostream& os, const reram::FaultConfig& fc,
                       const char* indent) {
  const auto f = [](double v) { return format_double_json(v); };
  os << "{\n"
     << indent << "  \"stuck_at_zero_rate\": " << f(fc.stuck_at_zero_rate)
     << ",\n"
     << indent << "  \"stuck_at_one_rate\": " << f(fc.stuck_at_one_rate)
     << ",\n"
     << indent << "  \"program_sigma\": " << f(fc.program_sigma) << ",\n"
     << indent << "  \"read_sigma\": 0,\n"
     << indent << "  \"drift_time_s\": 0,\n"
     << indent << "  \"drift_nu\": 0,\n"
     << indent << "  \"cell_bits\": " << fc.cell_bits << ",\n"
     << indent << "  \"seed\": \"" << fc.seed << "\"\n"
     << indent << '}';
}

void write_energy_json(std::ostream& os, const reram::EnergyBreakdown& e) {
  const auto f = [](double v) { return format_double_json(v); };
  os << "{\"adc_nj\": " << f(e.adc_nj) << ", \"dac_nj\": " << f(e.dac_nj)
     << ", \"cell_nj\": " << f(e.cell_nj)
     << ", \"shift_add_nj\": " << f(e.shift_add_nj)
     << ", \"buffer_nj\": " << f(e.buffer_nj) << '}';
}

void write_layer_spec_json(std::ostream& os, const nn::LayerSpec& l) {
  os << "{\"type\": \"" << layer_type_name(l.type)
     << "\", \"in_channels\": " << l.in_channels
     << ", \"out_channels\": " << l.out_channels << ", \"kernel\": "
     << l.kernel << ", \"stride\": " << l.stride << ", \"pad\": " << l.pad
     << ", \"in_height\": " << l.in_height << ", \"in_width\": " << l.in_width
     << ", \"relu_after\": " << (l.relu_after ? "true" : "false") << '}';
}

// One node object per line, keyed by kind/name/inputs plus the kind-specific
// payload (input shape, or the embedded layer spec). Shapes of non-input
// nodes are re-inferred by the GraphBuilder on read, so the document stays
// minimal and tamper-evident.
void write_graph_json(std::ostream& os, const nn::Graph& graph) {
  os << "{\n    \"name\": \"" << json_escape(graph.name()) << "\",\n"
     << "    \"nodes\": [";
  const std::vector<nn::GraphNode>& nodes = graph.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const nn::GraphNode& n = nodes[i];
    os << (i == 0 ? "\n" : ",\n") << "      {\"kind\": \""
       << nn::op_kind_name(n.kind) << "\", \"name\": \""
       << json_escape(n.name) << "\", \"inputs\": [";
    for (std::size_t o = 0; o < n.inputs.size(); ++o) {
      os << (o == 0 ? "" : ", ") << n.inputs[o];
    }
    os << ']';
    if (n.kind == nn::OpKind::kInput) {
      os << ", \"channels\": " << n.shape.channels
         << ", \"height\": " << n.shape.height
         << ", \"width\": " << n.shape.width;
    } else if (n.kind == nn::OpKind::kLayer) {
      os << ", \"layer\": ";
      write_layer_spec_json(os, n.layer);
    }
    os << '}';
  }
  os << "\n    ]\n  }";
}

#define AUTOHET_READ_D(obj, target, field) \
  (target).field = as_double((obj).at(#field), #field)
#define AUTOHET_READ_I(obj, target, field) \
  (target).field = static_cast<decltype((target).field)>( \
      as_int((obj).at(#field), #field))

reram::DeviceParams read_device(const JsonValue& obj) {
  reram::DeviceParams d;
  AUTOHET_READ_I(obj, d, weight_bits);
  AUTOHET_READ_I(obj, d, input_bits);
  AUTOHET_READ_I(obj, d, cell_bits);
  AUTOHET_READ_I(obj, d, dac_bits);
  AUTOHET_READ_I(obj, d, adc_resolution_bits);
  AUTOHET_READ_I(obj, d, adc_share);
  AUTOHET_READ_D(obj, d, adc_energy_pj);
  AUTOHET_READ_D(obj, d, dac_energy_pj);
  AUTOHET_READ_D(obj, d, cell_read_energy_pj);
  AUTOHET_READ_D(obj, d, shift_add_energy_pj);
  AUTOHET_READ_D(obj, d, buffer_rw_energy_pj);
  AUTOHET_READ_D(obj, d, adc_area_um2);
  AUTOHET_READ_D(obj, d, dac_area_um2);
  AUTOHET_READ_D(obj, d, cell_area_um2);
  AUTOHET_READ_D(obj, d, shift_add_area_um2);
  AUTOHET_READ_D(obj, d, tile_overhead_area_um2);
  AUTOHET_READ_D(obj, d, base_cycle_ns);
  AUTOHET_READ_D(obj, d, wire_delay_ns_per_row);
  AUTOHET_READ_D(obj, d, adc_latency_ns);
  AUTOHET_READ_D(obj, d, merge_latency_ns);
  AUTOHET_READ_D(obj, d, bus_latency_ns);
  // Vector-unit keys only exist in v2 documents; v1 plans predate the
  // vector functional unit and get the defaults.
  if (obj.has("vector_lanes")) AUTOHET_READ_I(obj, d, vector_lanes);
  if (obj.has("vector_op_energy_pj")) {
    AUTOHET_READ_D(obj, d, vector_op_energy_pj);
  }
  if (obj.has("vector_cycle_ns")) AUTOHET_READ_D(obj, d, vector_cycle_ns);
  return d;
}

reram::FaultConfig read_faults(const JsonValue& obj) {
  reram::FaultConfig fc;
  AUTOHET_READ_D(obj, fc, stuck_at_zero_rate);
  AUTOHET_READ_D(obj, fc, stuck_at_one_rate);
  AUTOHET_READ_D(obj, fc, program_sigma);
  // The fault model has no read noise or retention drift; their keys stay
  // in the format, always 0, so stored plans keep their bytes.
  for (const auto& [key, effect] :
       {std::pair{"read_sigma", "read noise"},
        std::pair{"drift_time_s", "retention drift"},
        std::pair{"drift_nu", "retention drift"}}) {
    const JsonValue& v = obj.at(key);
    AUTOHET_CHECK(as_double(v, key) == 0.0,
                  std::string("JSON key '") + key + "' must be 0: " + effect +
                      " is not modelled (line " + std::to_string(v.line) +
                      ")");
  }
  AUTOHET_READ_I(obj, fc, cell_bits);
  fc.seed = as_u64_string(obj.at("seed"), "seed");
  return fc;
}

nn::LayerSpec read_layer(const JsonValue& obj) {
  nn::LayerSpec spec;
  spec.type = layer_type_from_name(as_string(obj.at("type"), "type"));
  AUTOHET_READ_I(obj, spec, in_channels);
  AUTOHET_READ_I(obj, spec, out_channels);
  AUTOHET_READ_I(obj, spec, kernel);
  AUTOHET_READ_I(obj, spec, stride);
  AUTOHET_READ_I(obj, spec, pad);
  AUTOHET_READ_I(obj, spec, in_height);
  AUTOHET_READ_I(obj, spec, in_width);
  spec.relu_after = as_bool(obj.at("relu_after"), "relu_after");
  return spec;
}

mapping::LayerMapping read_mapping(const JsonValue& obj) {
  mapping::LayerMapping m;
  m.shape.rows = as_int(obj.at("rows"), "rows");
  m.shape.cols = as_int(obj.at("cols"), "cols");
  AUTOHET_READ_I(obj, m, row_blocks);
  AUTOHET_READ_I(obj, m, col_blocks);
  AUTOHET_READ_I(obj, m, kernels_per_row_block);
  m.split_kernel = as_bool(obj.at("split_kernel"), "split_kernel");
  AUTOHET_READ_I(obj, m, useful_cells);
  AUTOHET_READ_I(obj, m, weight_rows);
  AUTOHET_READ_I(obj, m, weight_cols);
  return m;
}

// Replays the serialized node list through a GraphBuilder so every wiring
// and shape rule is re-checked; a tampered document fails with the JSON
// line of the offending node appended to the builder's message.
nn::Graph read_graph(const JsonValue& obj) {
  nn::GraphBuilder builder(as_string(obj.at("name"), "name"));
  for (const JsonValue& n : as_array(obj.at("nodes"), "nodes")) {
    const JsonValue& kind_v = n.at("kind");
    nn::OpKind kind = nn::OpKind::kInput;
    try {
      kind = nn::op_kind_from_name(as_string(kind_v, "kind"));
    } catch (const std::invalid_argument& e) {
      AUTOHET_CHECK(false, std::string(e.what()) + " (line " +
                               std::to_string(kind_v.line) + ")");
    }
    std::vector<std::int64_t> inputs;
    for (const JsonValue& v : as_array(n.at("inputs"), "inputs")) {
      inputs.push_back(as_int(v, "inputs[]"));
    }
    const auto arity = [&](std::size_t want) {
      AUTOHET_CHECK(inputs.size() == want,
                    std::string(nn::op_kind_name(kind)) + " node takes " +
                        std::to_string(want) + " input(s), got " +
                        std::to_string(inputs.size()));
    };
    try {
      switch (kind) {
        case nn::OpKind::kInput:
          arity(0);
          builder.input(as_int(n.at("channels"), "channels"),
                        as_int(n.at("height"), "height"),
                        as_int(n.at("width"), "width"));
          break;
        case nn::OpKind::kLayer:
          arity(1);
          builder.layer(inputs[0], read_layer(n.at("layer")));
          break;
        case nn::OpKind::kResidualAdd:
          arity(2);
          builder.residual_add(inputs[0], inputs[1]);
          break;
        case nn::OpKind::kConcat:
          builder.concat(inputs);
          break;
        case nn::OpKind::kActivation:
          arity(1);
          builder.activation(inputs[0]);
          break;
        case nn::OpKind::kGlobalAvgPool:
          arity(1);
          builder.global_avg_pool(inputs[0]);
          break;
      }
      builder.rename_last(as_string(n.at("name"), "name"));
    } catch (const std::invalid_argument& e) {
      AUTOHET_CHECK(false, std::string(e.what()) + " (graph node at line " +
                               std::to_string(n.line) + ")");
    }
  }
  try {
    return builder.build();
  } catch (const std::invalid_argument& e) {
    AUTOHET_CHECK(false, std::string(e.what()) + " (graph at line " +
                             std::to_string(obj.line) + ")");
  }
  return nn::Graph{};  // unreachable
}

#undef AUTOHET_READ_D
#undef AUTOHET_READ_I

}  // namespace

void write_plan_json(std::ostream& os, const plan::DeploymentPlan& plan) {
  os << "{\n"
     << "  \"format\": \"autohet-plan\",\n"
     << "  \"version\": " << plan.version << ",\n"
     << "  \"network\": \"" << json_escape(plan.network) << "\",\n"
     << "  \"fault_fingerprint\": \"" << plan.fault_fingerprint << "\",\n"
     << "  \"accel\": {\n"
     << "    \"pes_per_tile\": " << plan.accel.pes_per_tile << ",\n"
     << "    \"tile_shared\": "
     << (plan.accel.tile_shared ? "true" : "false") << ",\n"
     << "    \"device\": ";
  write_device_json(os, plan.accel.device, "    ", plan.has_graph());
  os << ",\n    \"faults\": ";
  write_faults_json(os, plan.accel.faults, "    ");
  os << "\n  },\n  \"layers\": [";
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    ";
    write_layer_spec_json(os, plan.layers[i]);
  }
  os << "\n  ],";
  if (plan.has_graph()) {
    os << "\n  \"graph\": ";
    write_graph_json(os, plan.graph);
    os << ',';
  }
  os << "\n  \"allocation\": {\n"
     << "    \"xbs_per_tile\": " << plan.allocation.xbs_per_tile << ",\n"
     << "    \"layers\": [";
  for (std::size_t i = 0; i < plan.allocation.layers.size(); ++i) {
    const mapping::LayerAllocation& a = plan.allocation.layers[i];
    const mapping::LayerMapping& m = a.mapping;
    os << (i == 0 ? "\n" : ",\n") << "      {\"layer_id\": " << a.layer_id
       << ", \"tiles_allocated\": " << a.tiles_allocated
       << ", \"mapping\": {\"rows\": " << m.shape.rows
       << ", \"cols\": " << m.shape.cols
       << ", \"row_blocks\": " << m.row_blocks
       << ", \"col_blocks\": " << m.col_blocks
       << ", \"kernels_per_row_block\": " << m.kernels_per_row_block
       << ", \"split_kernel\": " << (m.split_kernel ? "true" : "false")
       << ", \"useful_cells\": " << m.useful_cells
       << ", \"weight_rows\": " << m.weight_rows
       << ", \"weight_cols\": " << m.weight_cols << "}}";
  }
  os << "\n    ],\n    \"tiles\": [";
  for (std::size_t i = 0; i < plan.allocation.tiles.size(); ++i) {
    const mapping::Tile& t = plan.allocation.tiles[i];
    os << (i == 0 ? "\n" : ",\n") << "      {\"id\": " << t.id
       << ", \"rows\": " << t.shape.rows << ", \"cols\": " << t.shape.cols
       << ", \"empty_xbs\": " << t.empty_xbs << ", \"layer_ids\": [";
    for (std::size_t o = 0; o < t.layer_ids.size(); ++o) {
      os << (o == 0 ? "" : ", ") << t.layer_ids[o];
    }
    os << "], \"layer_xbs\": [";
    for (std::size_t o = 0; o < t.layer_xbs.size(); ++o) {
      os << (o == 0 ? "" : ", ") << t.layer_xbs[o];
    }
    os << "], \"released\": " << (t.released ? "true" : "false") << '}';
  }
  os << "\n    ],\n    \"remap\": [";
  bool first_remap = true;
  for (const auto& [to, from] : plan.allocation.remap) {
    os << (first_remap ? "\n" : ",\n") << "      {\"to\": " << to
       << ", \"from\": [";
    for (std::size_t o = 0; o < from.size(); ++o) {
      os << (o == 0 ? "" : ", ") << from[o];
    }
    os << "]}";
    first_remap = false;
  }
  os << "\n    ]\n  }\n}\n";
}

plan::DeploymentPlan read_plan_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  AUTOHET_CHECK(doc.kind == JsonValue::Kind::kObject,
                "plan JSON must be an object");
  AUTOHET_CHECK(as_string(doc.at("format"), "format") == "autohet-plan",
                "not an autohet-plan document");

  plan::DeploymentPlan plan;
  const JsonValue& version_v = doc.at("version");
  plan.version = static_cast<int>(as_int(version_v, "version"));
  AUTOHET_CHECK(plan.version == plan::kPlanVersion ||
                    plan.version == plan::kPlanVersionGraph,
                "unsupported plan version " + std::to_string(plan.version) +
                    " (this build understands v1 and v2) (line " +
                    std::to_string(version_v.line) + ")");
  plan.network = as_string(doc.at("network"), "network");
  plan.fault_fingerprint =
      as_u64_string(doc.at("fault_fingerprint"), "fault_fingerprint");

  const JsonValue& accel = doc.at("accel");
  plan.accel.pes_per_tile = as_int(accel.at("pes_per_tile"), "pes_per_tile");
  plan.accel.tile_shared = as_bool(accel.at("tile_shared"), "tile_shared");
  plan.accel.device = read_device(accel.at("device"));
  plan.accel.faults = read_faults(accel.at("faults"));

  for (const JsonValue& l : as_array(doc.at("layers"), "layers")) {
    plan.layers.push_back(read_layer(l));
  }

  if (plan.version >= plan::kPlanVersionGraph) {
    plan.graph = read_graph(doc.at("graph"));
  } else if (doc.has("graph")) {
    AUTOHET_CHECK(false,
                  "v1 plan must not carry a graph section (line " +
                      std::to_string(doc.at("graph").line) + ")");
  }

  const JsonValue& alloc = doc.at("allocation");
  plan.allocation.xbs_per_tile =
      as_int(alloc.at("xbs_per_tile"), "xbs_per_tile");
  for (const JsonValue& l : as_array(alloc.at("layers"), "layers")) {
    mapping::LayerAllocation a;
    a.layer_id = as_int(l.at("layer_id"), "layer_id");
    a.tiles_allocated = as_int(l.at("tiles_allocated"), "tiles_allocated");
    a.mapping = read_mapping(l.at("mapping"));
    plan.allocation.layers.push_back(std::move(a));
  }
  for (const JsonValue& t : as_array(alloc.at("tiles"), "tiles")) {
    mapping::Tile tile;
    tile.id = as_int(t.at("id"), "id");
    tile.shape.rows = as_int(t.at("rows"), "rows");
    tile.shape.cols = as_int(t.at("cols"), "cols");
    tile.empty_xbs = as_int(t.at("empty_xbs"), "empty_xbs");
    for (const JsonValue& v : as_array(t.at("layer_ids"), "layer_ids")) {
      tile.layer_ids.push_back(as_int(v, "layer_ids[]"));
    }
    for (const JsonValue& v : as_array(t.at("layer_xbs"), "layer_xbs")) {
      tile.layer_xbs.push_back(as_int(v, "layer_xbs[]"));
    }
    tile.released = as_bool(t.at("released"), "released");
    plan.allocation.tiles.push_back(std::move(tile));
  }
  for (const JsonValue& r : as_array(alloc.at("remap"), "remap")) {
    std::vector<std::int64_t> from;
    for (const JsonValue& v : as_array(r.at("from"), "from")) {
      from.push_back(as_int(v, "from[]"));
    }
    plan.allocation.remap.emplace(as_int(r.at("to"), "to"), std::move(from));
  }

  plan.validate();
  return plan;
}

void write_network_report_json(std::ostream& os,
                               const reram::NetworkReport& report) {
  const auto f = [](double v) { return format_double_json(v); };
  os << "{\n  \"layers\": [";
  for (std::size_t k = 0; k < report.layers.size(); ++k) {
    const reram::LayerReport& lr = report.layers[k];
    os << (k == 0 ? "\n" : ",\n") << "    {\"shape\": \"" << lr.shape.name()
       << "\", \"logical_crossbars\": " << lr.logical_crossbars
       << ", \"adc_instances\": " << lr.adc_instances
       << ", \"tiles\": " << lr.tiles
       << ", \"mvm_invocations\": " << lr.mvm_invocations
       << ", \"utilization\": " << f(lr.utilization) << ", \"energy\": ";
    write_energy_json(os, lr.energy);
    os << ", \"latency_ns\": " << f(lr.latency_ns)
       << ", \"fault_vulnerability\": " << f(lr.fault_vulnerability) << '}';
  }
  os << "\n  ],";
  // Chain-shaped networks have no non-mappable graph ops; omitting the
  // empty array keeps their reports byte-identical to pre-graph builds.
  if (!report.graph_ops.empty()) {
    os << "\n  \"graph_ops\": [";
    for (std::size_t k = 0; k < report.graph_ops.size(); ++k) {
      const reram::GraphOpReport& g = report.graph_ops[k];
      os << (k == 0 ? "\n" : ",\n") << "    {\"node\": " << g.node
         << ", \"op\": \"" << g.op << "\", \"elements\": " << g.elements
         << ", \"bytes_moved\": " << g.bytes_moved << ", \"energy\": ";
      write_energy_json(os, g.energy);
      os << ", \"latency_ns\": " << f(g.latency_ns) << '}';
    }
    os << "\n  ],";
  }
  os << "\n  \"energy\": ";
  write_energy_json(os, report.energy);
  os << ",\n  \"area\": {\"crossbar_um2\": " << f(report.area.crossbar_um2)
     << ", \"adc_um2\": " << f(report.area.adc_um2)
     << ", \"dac_um2\": " << f(report.area.dac_um2)
     << ", \"shift_add_um2\": " << f(report.area.shift_add_um2)
     << ", \"tile_overhead_um2\": " << f(report.area.tile_overhead_um2)
     << "},\n  \"latency_ns\": " << f(report.latency_ns)
     << ",\n  \"utilization\": " << f(report.utilization)
     << ",\n  \"occupied_tiles\": " << report.occupied_tiles
     << ",\n  \"empty_crossbars\": " << report.empty_crossbars
     << ",\n  \"fault_vulnerability\": " << f(report.fault_vulnerability)
     << ",\n  \"rue\": " << f(report.rue()) << "\n}\n";
}

}  // namespace autohet::report
