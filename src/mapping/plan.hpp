// The compiled deployment artifact: an immutable IR that pins the physical
// mapping of one searched strategy onto one accelerator configuration.
//
// AutoHet's search picks a crossbar shape per layer (Fig. 6), but a shape
// list alone is not deployable: every consumer — analytical evaluation,
// functional inference, fault injection, pipeline scheduling — would have
// to re-derive the physical layout (kernel-to-crossbar geometry, tile
// allocation, tile-shared draining) from `(layer, shape)`. Full-stack
// ReRAM systems separate the *compile* step that fixes the physical mapping
// from the *runtime* that executes it (FPSA; CIM-Explorer's RRAM compiler
// toolchain). `compile_plan` is that compile step: it runs the mapping
// machinery once and freezes the result into a `DeploymentPlan` that can be
// validated, serialized (report/serialize.hpp), shipped, and replayed —
// search once, compile once, deploy many times. Plan JSON is the only saved
// form of a searched strategy.
//
// Consumers take the plan instead of re-deriving:
//   * `evaluate_plan` — the one way to cost a whole network; the
//     `EvaluationEngine`'s search fast path is tested bit-identical to it;
//   * `SimulatedModel(model, plan)` — programs crossbars from the plan's
//     stored per-layer geometry (functional.hpp);
//   * `monte_carlo_robustness(model, plan, ...)` — the workload's fault
//     injection under the plan's burned-in FaultConfig (its shapes do not
//     enter the report);
//   * `evaluate_pipeline` / `schedule_batch` / `balance_replication` — walk
//     plan layers, never calling `map_layer` themselves;
//   * placement / Global Controller / NoC / programming consumers reuse the
//     plan's embedded `AllocationResult` verbatim.
//
// The plan lives (file-wise) next to the mapping machinery it freezes, but
// sits architecturally above both src/mapping and src/reram; it is compiled
// into the autohet_reram library (see src/reram/CMakeLists.txt).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mapping/crossbar_shape.hpp"
#include "mapping/layer_mapping.hpp"
#include "mapping/tile_allocator.hpp"
#include "nn/graph.hpp"
#include "nn/layer.hpp"
#include "reram/hardware_model.hpp"

namespace autohet::plan {

/// Plan IR version of linear-chain plans (the original schema; still fully
/// supported, serialized byte-identically to every historical document).
inline constexpr int kPlanVersion = 1;
/// Plan IR version of plans compiled from a DAG computation graph
/// (nn::Graph): same payload as v1 plus the embedded graph, whose
/// non-mappable ops are accounted by evaluate_plan and whose edges drive
/// the scheduler/pipeline dataflow.
inline constexpr int kPlanVersionGraph = 2;

/// Order-independent fingerprint of a fault configuration, stored in the
/// plan so a replayed artifact can prove it was compiled under the same
/// device non-ideality assumptions it is executed with.
std::uint64_t fault_fingerprint(const reram::FaultConfig& faults);

struct DeploymentPlan {
  int version = kPlanVersion;
  std::string network;  ///< workload name ("" for anonymous layer lists)
  /// Snapshot of the mappable layers the plan was compiled for, in order.
  std::vector<nn::LayerSpec> layers;
  /// The full fabric configuration: device (ADC/DAC/cell) parameters,
  /// PEs per tile, tile-shared allocation, and the FaultConfig.
  reram::AcceleratorConfig accel;
  /// fault_fingerprint(accel.faults), fixed at compile time.
  std::uint64_t fault_fingerprint = 0;
  /// The frozen physical layout: per-layer mapping geometry, tile states
  /// after the (optional) tile-shared pass, and Algorithm 1's combMap.
  mapping::AllocationResult allocation;
  /// v2 (kPlanVersionGraph) only: the DAG computation graph the plan was
  /// compiled from. Its mappable layers equal `layers` in order. Empty
  /// (zero nodes) for v1 linear-chain plans.
  nn::Graph graph;

  /// True when the plan carries a computation graph (version >= 2).
  bool has_graph() const noexcept { return version >= kPlanVersionGraph; }

  /// The per-layer crossbar shapes (the strategy the plan was compiled
  /// from), recovered from the stored mappings.
  std::vector<mapping::CrossbarShape> shapes() const;

  /// Consistency check: throws std::invalid_argument when the plan is
  /// internally inconsistent — version mismatch, layer/allocation length
  /// mismatch, non-mappable layers, stored geometry that disagrees with
  /// `map_layer` on the stored layer specs, tile bookkeeping that does not
  /// conserve each layer's crossbars, a stale fault fingerprint, or an
  /// allocation granularity that contradicts the accelerator config.
  void validate() const;

  /// validate() plus a match against a concrete workload: the network name
  /// (case-insensitive) and every mappable layer spec must agree.
  void validate_against(const nn::NetworkSpec& net) const;
};

/// Compiles one per-layer shape assignment onto the accelerator: derives
/// every layer's mapping geometry, runs the tile allocator (tile-based or
/// tile-shared per `accel`), and freezes the result. The single entry point
/// through which all physical-layout derivation flows.
DeploymentPlan compile_plan(std::string network,
                            const std::vector<nn::LayerSpec>& mappable_layers,
                            const std::vector<mapping::CrossbarShape>& shapes,
                            const reram::AcceleratorConfig& accel);

/// Compiles a DAG computation graph: maps the graph's mappable subset with
/// the same allocator as the chain path (one shape per mappable layer, in
/// graph.mappable_layers() order) and embeds the graph in a v2 plan. For a
/// chain-shaped graph the allocation — and every downstream report — is
/// bit-identical to compiling graph.skeleton() through the v1 path.
DeploymentPlan compile_plan(const nn::Graph& graph,
                            const std::vector<mapping::CrossbarShape>& shapes,
                            const reram::AcceleratorConfig& accel);

/// Hardware report of a compiled plan — the single network-level cost
/// model. Validates the plan, then aggregates evaluate_layer over the
/// frozen per-layer mappings (energy and latency summed in layer order),
/// area over the non-released tiles in tile-id order, and the system
/// utilization; a v2 plan additionally folds one evaluate_graph_op report
/// per non-mappable graph op into the energy/latency totals (chain graphs
/// have none, so their report equals the v1 skeleton's).
reram::NetworkReport evaluate_plan(const DeploymentPlan& plan);

/// Per-layer serial latency and tile cost, read off the plan — what the
/// pipeline/scheduler consumers need to build stage intervals without
/// re-deriving the mapping.
struct LayerCost {
  double latency_ns = 0.0;
  std::int64_t tiles = 0;
};
std::vector<LayerCost> plan_layer_costs(const DeploymentPlan& plan);

/// One dataflow edge into a mappable layer: the producing mappable layer
/// and the summed vector-unit latency of the non-mappable ops (residual
/// adds, concats, activations, pools) on the path between them.
struct LayerDep {
  std::int64_t layer = 0;
  double delay_ns = 0.0;
};

/// The dataflow the scheduler/pipeline consume instead of implicit
/// index-ordering. For v1 linear-chain plans this is exactly the chain:
/// deps[k] = {{k-1, 0.0}} and every tail delay is 0, which keeps the
/// schedule arithmetic bit-identical to the historical k-1 rule. For v2
/// graph plans the edges come from the graph, with non-mappable op
/// latencies (evaluate_graph_op) as inter-stage delays.
struct PlanDataflow {
  /// Per mappable layer (graph order): its producing mappable layers, each
  /// with the non-mappable-op delay on the connecting path (max over
  /// parallel paths), sorted by producer index.
  std::vector<std::vector<LayerDep>> deps;
  /// Per mappable layer: the non-mappable-op delay from its output to the
  /// graph output along layer-free paths (0 when none exists).
  std::vector<double> tail_delay_ns;
};
PlanDataflow plan_dataflow(const DeploymentPlan& plan);

}  // namespace autohet::plan
