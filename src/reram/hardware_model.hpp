// The behavioral hardware model: energy / area / latency / utilization of a
// DNN mapped onto the (possibly heterogeneous) crossbar fabric.
//
// This is the C++ counterpart of the role MNSIM 2.0 plays in the paper: the
// "direct hardware feedback" (step 6 in Fig. 6) that the RL reward consumes.
//
// Model summary (constants in DeviceParams; derivations in DESIGN.md §4):
//   energy(layer) = MVMs × [ input_cycles × ( ADC + DAC + cell + S&A ) +
//                            buffer traffic ]
//     where per input cycle (unused bitlines/wordlines are gated):
//       ADC conversions = bit_planes × row_blocks × Cout
//       DAC drives      = bit_planes × col_blocks × (Cin·k²)
//       cell reads      = bit_planes × useful cells
//       S&A ops         = ADC conversions
//   area(network)  = Σ_layers [ cells + ADC/DAC/S&A instances ] +
//                    occupied_tiles × tile_overhead
//   latency(layer) = MVMs × [ input_cycles × (base + wire·rows) + ADC drain +
//                    merge·(log2 row_blocks + log2 bit_planes) +
//                    bus·log2 tiles ]
//
// This file holds the per-layer, per-tile and per-graph-op terms. A whole
// network is costed only through a compiled plan: plan::evaluate_plan
// (mapping/plan.hpp) aggregates these terms over the plan's frozen
// allocation, and the EvaluationEngine's search fast path reproduces that
// aggregation bit for bit.
#pragma once

#include <cmath>
#include <vector>

#include "mapping/layer_mapping.hpp"
#include "nn/graph.hpp"
#include "nn/layer.hpp"
#include "reram/device_params.hpp"
#include "reram/faults.hpp"
#include "reram/stats.hpp"

namespace autohet::reram {

/// Configuration of the accelerator fabric used by evaluations.
struct AcceleratorConfig {
  DeviceParams device;
  std::int64_t pes_per_tile = 4;  ///< logical crossbars per tile (paper §4.1)
  bool tile_shared = false;       ///< enable §3.4 allocation
  /// Device non-ideality assumed by evaluations (reram/faults.hpp). The
  /// default is ideal: every report's fault_vulnerability stays 0 and all
  /// figures are bit-identical to a fault-unaware build.
  FaultConfig faults{};

  void validate() const {
    device.validate();
    AUTOHET_CHECK(pes_per_tile > 0, "pes_per_tile must be positive");
    faults.validate();
  }

  /// Exact equality — used by plan consumers to prove a compiled plan and a
  /// live engine/fabric assume the same hardware.
  bool operator==(const AcceleratorConfig&) const = default;
};

/// Area contribution of one occupied tile (µm² per component class).
/// Hardware is provisioned per occupied tile: every tile carries
/// `pes_per_tile` logical crossbars of its shape with full peripheral
/// circuits, whether or not a layer fills them. Shared by
/// `plan::evaluate_plan` and the `EvaluationEngine` fast path, which both
/// fold it into the network area with `AreaBreakdown::operator+=` in tile-id
/// order, so both aggregate from the exact same per-tile values.
inline AreaBreakdown tile_area_contribution(
    const mapping::CrossbarShape& shape, const DeviceParams& device,
    std::int64_t pes_per_tile) noexcept {
  const double planes = device.bit_planes();
  const double pes = static_cast<double>(pes_per_tile);
  const double rows = static_cast<double>(shape.rows);
  const double cols = static_cast<double>(shape.cols);
  // ADC instances per crossbar shrink with column sharing.
  const double adcs_per_xb =
      std::ceil(cols / static_cast<double>(device.adc_share));
  AreaBreakdown a;
  a.crossbar_um2 = pes * planes * rows * cols * device.cell_area_um2;
  a.adc_um2 = pes * adcs_per_xb * device.adc_area_um2;
  a.dac_um2 = pes * rows * device.dac_area_um2;
  a.shift_add_um2 = pes * cols * device.shift_add_area_um2;
  a.tile_overhead_um2 = device.tile_overhead_area_um2;
  return a;
}

/// Per-MVM latency decomposition of the model above. The terms are kept
/// separate so the attribution profiler can classify a layer as
/// compute- / ADC- / NoC-bound; their left-to-right sum in per_mvm_ns()
/// is the exact expression evaluate_layer uses (same association, so the
/// refactor is bit-identical to the historical inline computation).
struct LayerLatencyTerms {
  double compute_ns = 0.0;  ///< input cycles × (base + wire·rows)
  double adc_ns = 0.0;      ///< ADC drain serialized over muxed bitlines
  double merge_ns = 0.0;    ///< adder-tree merge levels
  double bus_ns = 0.0;      ///< inter-tile bus hops

  double per_mvm_ns() const noexcept {
    return compute_ns + adc_ns + merge_ns + bus_ns;
  }
  /// On-chip network share (merge tree + inter-tile bus).
  double noc_ns() const noexcept { return merge_ns + bus_ns; }
};

/// Latency decomposition for one mapped layer (see LayerLatencyTerms).
LayerLatencyTerms layer_latency_terms(const mapping::LayerMapping& m,
                                      std::int64_t tiles_spanned,
                                      const DeviceParams& params) noexcept;

/// Evaluates one layer mapped with the given geometry. `tiles_spanned` is
/// the number of tiles the layer occupies (affects the inter-tile merge
/// latency term). A non-ideal `faults` config fills in the closed-form
/// fault_vulnerability (analytic_layer_vulnerability); the default ideal
/// config leaves it 0 and every other figure untouched.
LayerReport evaluate_layer(const nn::LayerSpec& layer,
                           const mapping::LayerMapping& m,
                           std::int64_t tiles_spanned,
                           const DeviceParams& params,
                           const FaultConfig& faults = {});

/// NEON-style accounting of one non-mappable graph op (residual add,
/// concat, activation, global average pool) on the tile vector unit:
///   ALU ops    — one per output element (adds/ReLUs) or per input element
///                (global-avg-pool accumulation); concat moves data only;
///   traffic    — one byte per 8-bit operand read plus result written,
///                charged at the tile-buffer energy;
///   latency    — ceil(max(ALU ops, operand reads) / vector_lanes) vector
///                cycles.
/// Energy lands in the shift_add (ALU) and buffer components so RUE and
/// the energy total see it without new breakdown classes. `node_id` must
/// name a non-mappable op node (not kInput / kLayer).
GraphOpReport evaluate_graph_op(const nn::Graph& graph, std::int64_t node_id,
                                const DeviceParams& params);

}  // namespace autohet::reram
