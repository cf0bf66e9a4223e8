#include "reram/hardware_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "reram/components.hpp"

namespace autohet::reram {

LayerLatencyTerms layer_latency_terms(const mapping::LayerMapping& m,
                                      std::int64_t tiles_spanned,
                                      const DeviceParams& params) noexcept {
  const double rows = static_cast<double>(m.shape.rows);
  const double read_cycle_ns =
      params.base_cycle_ns + params.wire_delay_ns_per_row * rows;
  const double merge_levels =
      ceil_log2(m.row_blocks) + ceil_log2(params.bit_planes());
  LayerLatencyTerms terms;
  terms.compute_ns = params.input_cycles() * read_cycle_ns;
  // ADC sharing serializes the conversions of the muxed bitlines.
  terms.adc_ns =
      params.adc_latency_ns * static_cast<double>(params.adc_share);
  terms.merge_ns = params.merge_latency_ns * merge_levels;
  terms.bus_ns = params.bus_latency_ns * ceil_log2(tiles_spanned);
  return terms;
}

LayerReport evaluate_layer(const nn::LayerSpec& layer,
                           const mapping::LayerMapping& m,
                           std::int64_t tiles_spanned,
                           const DeviceParams& params,
                           const FaultConfig& faults) {
  AUTOHET_CHECK(nn::is_mappable(layer.type), "layer does not occupy crossbars");
  LayerReport report;
  report.shape = m.shape;
  report.logical_crossbars = m.logical_crossbars();
  report.adc_instances = m.adc_count();
  report.tiles = tiles_spanned;
  report.mvm_invocations = layer.mvm_count();
  report.utilization = m.utilization();
  report.fault_vulnerability = analytic_layer_vulnerability(m, faults);

  const double planes = params.bit_planes();
  const double cycles = params.input_cycles();
  const double mvms = static_cast<double>(layer.mvm_count());

  // ---- energy (nJ) ----
  // Unused bitlines/wordlines are gated: only the layer's output columns
  // are converted (once per row block, whose partial sums merge in the
  // adder tree) and only the occupied wordlines are driven (once per column
  // block, which each hold a copy of the input).
  const double adc_conversions =
      planes * static_cast<double>(m.row_blocks) *
      static_cast<double>(layer.weight_cols());                 // per cycle
  const double dac_drives =
      planes * static_cast<double>(m.col_blocks) *
      static_cast<double>(layer.weight_rows());                 // per cycle
  const double cell_reads =
      planes * static_cast<double>(m.useful_cells);             // per cycle
  const double sa_ops = adc_conversions;                        // per cycle
  // Buffer traffic per MVM: the unfolded input vector in, outputs out.
  const double buffer_bytes = static_cast<double>(layer.weight_rows()) +
                              static_cast<double>(layer.out_channels);

  report.energy.adc_nj =
      mvms * cycles * adc_conversions * params.adc_energy_pj * kPjToNj;
  report.energy.dac_nj =
      mvms * cycles * dac_drives * params.dac_energy_pj * kPjToNj;
  report.energy.cell_nj =
      mvms * cycles * cell_reads * params.cell_read_energy_pj * kPjToNj;
  report.energy.shift_add_nj =
      mvms * cycles * sa_ops * params.shift_add_energy_pj * kPjToNj;
  report.energy.buffer_nj =
      mvms * buffer_bytes * params.buffer_rw_energy_pj * kPjToNj;

  // ---- latency (ns) ----
  report.latency_ns =
      mvms * layer_latency_terms(m, tiles_spanned, params).per_mvm_ns();
  return report;
}

GraphOpReport evaluate_graph_op(const nn::Graph& graph, std::int64_t node_id,
                                const DeviceParams& params) {
  AUTOHET_CHECK(node_id >= 0 && node_id < graph.node_count(),
                "graph op node id out of range");
  const nn::GraphNode& node =
      graph.nodes()[static_cast<std::size_t>(node_id)];
  AUTOHET_CHECK(node.kind != nn::OpKind::kInput &&
                    node.kind != nn::OpKind::kLayer,
                "evaluate_graph_op expects a non-mappable op node");

  std::int64_t reads = 0;
  for (const std::int64_t in : node.inputs) {
    reads += graph.nodes()[static_cast<std::size_t>(in)].shape.numel();
  }
  const std::int64_t writes = node.shape.numel();
  // ALU work: one op per output element for adds and activations, one per
  // accumulated input element for the global average pool; concat is pure
  // data movement through the tile buffers.
  std::int64_t alu_ops = 0;
  switch (node.kind) {
    case nn::OpKind::kResidualAdd:
    case nn::OpKind::kActivation:
      alu_ops = writes;
      break;
    case nn::OpKind::kGlobalAvgPool:
      alu_ops = reads;
      break;
    case nn::OpKind::kConcat:
      alu_ops = 0;
      break;
    case nn::OpKind::kInput:
    case nn::OpKind::kLayer:
      break;  // unreachable (checked above)
  }

  GraphOpReport report;
  report.node = node_id;
  report.op = nn::op_kind_name(node.kind);
  report.elements = alu_ops;
  report.bytes_moved = reads + writes;  // 8-bit activations: 1 byte each
  report.energy.shift_add_nj = static_cast<double>(alu_ops) *
                               params.vector_op_energy_pj * kPjToNj;
  report.energy.buffer_nj = static_cast<double>(report.bytes_moved) *
                            params.buffer_rw_energy_pj * kPjToNj;
  const double work = static_cast<double>(std::max(alu_ops, reads));
  report.latency_ns =
      std::ceil(work / static_cast<double>(params.vector_lanes)) *
      params.vector_cycle_ns;
  return report;
}

}  // namespace autohet::reram
