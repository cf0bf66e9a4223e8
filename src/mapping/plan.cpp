#include "mapping/plan.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace autohet::plan {

namespace {

/// FNV-1a over a stream of 64-bit words.
class Fnv1a {
 public:
  void mix(std::uint64_t word) noexcept {
    hash_ ^= word;
    hash_ *= 1099511628211ull;
  }
  void mix(double value) noexcept { mix(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::string layer_tag(std::size_t i) {
  return "layer " + std::to_string(i + 1) + ": ";
}

/// Case-insensitive network-name comparison (network_by_name is
/// case-insensitive, so names compare likewise).
bool same_network_name(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::uint64_t fault_fingerprint(const reram::FaultConfig& faults) {
  Fnv1a h;
  h.mix(faults.stuck_at_zero_rate);
  h.mix(faults.stuck_at_one_rate);
  h.mix(faults.program_sigma);
  // The read-noise and two retention-drift slots of the format, always 0,
  // keep stored fingerprints unchanged.
  h.mix(0.0);
  h.mix(0.0);
  h.mix(0.0);
  h.mix(static_cast<std::uint64_t>(faults.cell_bits));
  h.mix(faults.seed);
  return h.hash();
}

std::vector<mapping::CrossbarShape> DeploymentPlan::shapes() const {
  std::vector<mapping::CrossbarShape> result;
  result.reserve(allocation.layers.size());
  for (const auto& layer : allocation.layers) {
    result.push_back(layer.mapping.shape);
  }
  return result;
}

void DeploymentPlan::validate() const {
  AUTOHET_CHECK(version == kPlanVersion || version == kPlanVersionGraph,
                "unsupported plan version " + std::to_string(version) +
                    " (this build understands v" +
                    std::to_string(kPlanVersion) + " and v" +
                    std::to_string(kPlanVersionGraph) + ")");
  if (version == kPlanVersion) {
    AUTOHET_CHECK(graph.nodes().empty(),
                  "v1 plans must not carry a computation graph");
  } else {
    graph.validate();
    AUTOHET_CHECK(graph.mappable_layers() == layers,
                  "plan graph's mappable layers do not match the plan's "
                  "layer snapshot");
    AUTOHET_CHECK(network.empty() || same_network_name(network, graph.name()),
                  "plan graph names '" + graph.name() + "', not '" + network +
                      "'");
  }
  accel.validate();
  AUTOHET_CHECK(!layers.empty(), "plan has no layers");
  AUTOHET_CHECK(layers.size() == allocation.layers.size(),
                "plan layer specs and allocation disagree on layer count");
  AUTOHET_CHECK(allocation.xbs_per_tile == accel.pes_per_tile,
                "allocation granularity (" +
                    std::to_string(allocation.xbs_per_tile) +
                    " PEs/tile) contradicts the accelerator config (" +
                    std::to_string(accel.pes_per_tile) + ")");
  AUTOHET_CHECK(fault_fingerprint == plan::fault_fingerprint(accel.faults),
                "stale fault fingerprint: the plan was compiled under a "
                "different FaultConfig");
  AUTOHET_CHECK(accel.tile_shared || allocation.remap.empty(),
                "plan carries a tile-shared combMap but tile sharing is off");

  // Per-layer geometry must be exactly what map_layer derives from the
  // stored spec and shape — a plan whose frozen mapping drifted from the
  // mapping machinery must not be deployed.
  std::vector<std::int64_t> layer_xbs(layers.size(), 0);
  std::int64_t expected_tiles = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    AUTOHET_CHECK(nn::is_mappable(layers[i].type),
                  layer_tag(i) + "plan layers must be CONV/FC");
    const auto& alloc = allocation.layers[i];
    AUTOHET_CHECK(alloc.layer_id == static_cast<std::int64_t>(i),
                  layer_tag(i) + "allocation layer ids must be consecutive");
    const mapping::LayerMapping derived =
        mapping::map_layer(layers[i], alloc.mapping.shape);
    AUTOHET_CHECK(derived == alloc.mapping,
                  layer_tag(i) + "stored mapping geometry disagrees with "
                                 "map_layer for shape " +
                      alloc.mapping.shape.name());
    const std::int64_t needed = alloc.mapping.logical_crossbars();
    AUTOHET_CHECK(alloc.tiles_allocated ==
                      (needed + accel.pes_per_tile - 1) / accel.pes_per_tile,
                  layer_tag(i) + "tile count disagrees with the mapping");
    expected_tiles += alloc.tiles_allocated;
  }
  AUTOHET_CHECK(
      static_cast<std::int64_t>(allocation.tiles.size()) == expected_tiles,
      "plan tile list does not cover the per-layer tile allocations");

  // Tile bookkeeping must conserve every layer's crossbars: summed over
  // tiles, layer l holds exactly its mapping's logical crossbar count.
  for (const auto& tile : allocation.tiles) {
    AUTOHET_CHECK(tile.layer_ids.size() == tile.layer_xbs.size(),
                  "tile " + std::to_string(tile.id) +
                      ": occupant lists out of sync");
    std::int64_t held = 0;
    for (std::size_t o = 0; o < tile.layer_ids.size(); ++o) {
      const std::int64_t l = tile.layer_ids[o];
      AUTOHET_CHECK(l >= 0 && l < static_cast<std::int64_t>(layers.size()),
                    "tile " + std::to_string(tile.id) +
                        ": occupant layer id out of range");
      layer_xbs[static_cast<std::size_t>(l)] += tile.layer_xbs[o];
      held += tile.layer_xbs[o];
    }
    if (tile.released) {
      AUTOHET_CHECK(held == 0 && tile.empty_xbs == 0,
                    "tile " + std::to_string(tile.id) +
                        ": released tiles must be fully drained");
    } else {
      AUTOHET_CHECK(held + tile.empty_xbs == accel.pes_per_tile,
                    "tile " + std::to_string(tile.id) +
                        ": occupancy does not add up to PEs/tile");
    }
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    AUTOHET_CHECK(
        layer_xbs[i] == allocation.layers[i].mapping.logical_crossbars(),
        layer_tag(i) + "tiles do not conserve the layer's crossbars");
  }

  // Finally, the frozen allocation must be exactly what the allocator
  // derives today from the stored specs/shapes under the stored config —
  // the structural checks above localize most tampering, this one closes
  // every remaining gap (and is what makes replayed numbers bit-identical
  // to a fresh compile by construction).
  AUTOHET_CHECK(mapping::allocate_tiles(layers, shapes(), accel.pes_per_tile,
                                        accel.tile_shared) == allocation,
                "plan allocation does not match re-derivation: the plan is "
                "stale or was edited by hand");
}

void DeploymentPlan::validate_against(const nn::NetworkSpec& net) const {
  validate();
  AUTOHET_CHECK(network.empty() || same_network_name(network, net.name),
                "plan was compiled for '" + network + "', not '" + net.name +
                    "'");
  const auto mappable = net.mappable_layers();
  AUTOHET_CHECK(mappable.size() == layers.size(),
                "plan layer count (" + std::to_string(layers.size()) +
                    ") does not match " + net.name + " (" +
                    std::to_string(mappable.size()) + " mappable layers)");
  for (std::size_t i = 0; i < mappable.size(); ++i) {
    AUTOHET_CHECK(mappable[i] == layers[i],
                  layer_tag(i) + "plan layer spec does not match " + net.name);
  }
}

DeploymentPlan compile_plan(std::string network,
                            const std::vector<nn::LayerSpec>& mappable_layers,
                            const std::vector<mapping::CrossbarShape>& shapes,
                            const reram::AcceleratorConfig& accel) {
  accel.validate();
  AUTOHET_CHECK(!mappable_layers.empty(), "cannot compile an empty network");
  AUTOHET_CHECK(mappable_layers.size() == shapes.size(),
                "one crossbar shape per mappable layer required");
  DeploymentPlan plan;
  plan.network = std::move(network);
  plan.layers = mappable_layers;
  plan.accel = accel;
  plan.fault_fingerprint = fault_fingerprint(accel.faults);
  plan.allocation = mapping::allocate_tiles(mappable_layers, shapes,
                                            accel.pes_per_tile,
                                            accel.tile_shared);
  return plan;
}

DeploymentPlan compile_plan(const nn::Graph& graph,
                            const std::vector<mapping::CrossbarShape>& shapes,
                            const reram::AcceleratorConfig& accel) {
  graph.validate();
  DeploymentPlan plan =
      compile_plan(graph.name(), graph.mappable_layers(), shapes, accel);
  plan.version = kPlanVersionGraph;
  plan.graph = graph;
  return plan;
}

reram::NetworkReport evaluate_plan(const DeploymentPlan& plan) {
  OBS_SPAN("evaluate_plan");
  OBS_PROFILE_RECORD(obs::ProfileKind::kPlanEval, -1, 0, 1);
  plan.validate();
  const reram::AcceleratorConfig& accel = plan.accel;
  const mapping::AllocationResult& alloc = plan.allocation;

  reram::NetworkReport report;
  report.layers.reserve(plan.layers.size());
  std::vector<double> layer_vuln;
  layer_vuln.reserve(plan.layers.size());
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const auto& layer_alloc = alloc.layers[i];
    OBS_PROFILE_RECORD(obs::ProfileKind::kAnalyticEval, i, 0, 1);
    reram::LayerReport lr = reram::evaluate_layer(
        plan.layers[i], layer_alloc.mapping, layer_alloc.tiles_allocated,
        accel.device, accel.faults);
    report.energy += lr.energy;
    report.latency_ns += lr.latency_ns;
    layer_vuln.push_back(lr.fault_vulnerability);
    report.layers.push_back(std::move(lr));
  }
  report.fault_vulnerability =
      reram::aggregate_network_vulnerability(layer_vuln);

  // Area is tile-provisioned: higher utilization, rectangle shapes, and
  // tile sharing shrink the chip (Table 5 discussion) because released
  // tiles contribute nothing.
  for (const auto& tile : alloc.tiles) {
    if (tile.released) continue;
    report.area += reram::tile_area_contribution(tile.shape, accel.device,
                                                 accel.pes_per_tile);
  }
  report.occupied_tiles = alloc.occupied_tiles();
  report.empty_crossbars = alloc.empty_crossbars();
  report.utilization = alloc.system_utilization();

  // v2 plans: the non-mappable graph ops run on the tile vector units.
  for (std::int64_t id = 0; id < plan.graph.node_count(); ++id) {
    const nn::GraphNode& node =
        plan.graph.nodes()[static_cast<std::size_t>(id)];
    if (node.kind == nn::OpKind::kInput || node.kind == nn::OpKind::kLayer) {
      continue;
    }
    reram::GraphOpReport op =
        reram::evaluate_graph_op(plan.graph, id, accel.device);
    report.energy += op.energy;
    report.latency_ns += op.latency_ns;
    report.graph_ops.push_back(std::move(op));
  }
  return report;
}

PlanDataflow plan_dataflow(const DeploymentPlan& plan) {
  PlanDataflow flow;
  const std::size_t n = plan.layers.size();
  flow.deps.resize(n);
  flow.tail_delay_ns.assign(n, 0.0);
  if (!plan.has_graph()) {
    // v1 linear chain: layer k waits on layer k-1 with zero extra delay —
    // the historical implicit index-ordering, expressed as edges.
    for (std::size_t k = 1; k < n; ++k) {
      flow.deps[k] = {{static_cast<std::int64_t>(k) - 1, 0.0}};
    }
    return flow;
  }

  const nn::Graph& graph = plan.graph;
  const auto& nodes = graph.nodes();
  const std::size_t node_count = nodes.size();

  // Vector-unit latency of each non-mappable op node; 0 for everything the
  // v1 path also treats as free (inputs, mappable layers, pooling layers).
  std::vector<double> op_latency(node_count, 0.0);
  for (std::size_t id = 0; id < node_count; ++id) {
    const nn::GraphNode& node = nodes[id];
    if (node.kind == nn::OpKind::kInput || node.kind == nn::OpKind::kLayer) {
      continue;
    }
    op_latency[id] = reram::evaluate_graph_op(
                         graph, static_cast<std::int64_t>(id),
                         plan.accel.device)
                         .latency_ns;
  }

  // Mappable ordinal of each node (-1 otherwise), in graph order.
  std::vector<std::int64_t> ordinal(node_count, -1);
  {
    std::int64_t next = 0;
    for (std::size_t id = 0; id < node_count; ++id) {
      if (nn::is_mappable(nodes[id])) ordinal[id] = next++;
    }
  }

  // Forward pass: frontier[id] maps each nearest mappable ancestor to the
  // max summed op delay between that ancestor's output and node id's
  // output. A mappable node resets the frontier to itself.
  std::vector<std::vector<LayerDep>> frontier(node_count);
  auto merge_into = [](std::vector<LayerDep>& into, std::int64_t layer,
                       double delay) {
    for (LayerDep& d : into) {
      if (d.layer == layer) {
        d.delay_ns = std::max(d.delay_ns, delay);
        return;
      }
    }
    into.push_back({layer, delay});
  };
  for (std::size_t id = 0; id < node_count; ++id) {
    const nn::GraphNode& node = nodes[id];
    if (nn::is_mappable(node)) {
      // Dependencies of this layer: the merged input frontiers.
      std::vector<LayerDep> deps;
      for (const std::int64_t in : node.inputs) {
        for (const LayerDep& d : frontier[static_cast<std::size_t>(in)]) {
          merge_into(deps, d.layer, d.delay_ns);
        }
      }
      std::sort(deps.begin(), deps.end(),
                [](const LayerDep& a, const LayerDep& b) {
                  return a.layer < b.layer;
                });
      flow.deps[static_cast<std::size_t>(ordinal[id])] = std::move(deps);
      frontier[id] = {{ordinal[id], 0.0}};
      continue;
    }
    for (const std::int64_t in : node.inputs) {
      for (const LayerDep& d : frontier[static_cast<std::size_t>(in)]) {
        merge_into(frontier[id], d.layer, d.delay_ns + op_latency[id]);
      }
    }
  }

  // Backward pass: tail[id] = max op delay from node id's output to the
  // graph output along mappable-free paths (a downstream mappable layer is
  // a scheduled stage of its own and cuts the path).
  std::vector<double> tail(node_count, 0.0);
  for (std::size_t id = node_count; id-- > 0;) {
    const nn::GraphNode& node = nodes[id];
    if (nn::is_mappable(node)) continue;
    for (const std::int64_t in : node.inputs) {
      tail[static_cast<std::size_t>(in)] =
          std::max(tail[static_cast<std::size_t>(in)],
                   tail[id] + op_latency[id]);
    }
  }
  for (std::size_t id = 0; id < node_count; ++id) {
    if (ordinal[id] >= 0) {
      flow.tail_delay_ns[static_cast<std::size_t>(ordinal[id])] = tail[id];
    }
  }
  return flow;
}

std::vector<LayerCost> plan_layer_costs(const DeploymentPlan& plan) {
  std::vector<LayerCost> costs;
  costs.reserve(plan.layers.size());
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const auto& alloc = plan.allocation.layers[i];
    const reram::LayerReport report =
        reram::evaluate_layer(plan.layers[i], alloc.mapping,
                              alloc.tiles_allocated, plan.accel.device);
    costs.push_back({report.latency_ns, alloc.tiles_allocated});
  }
  return costs;
}

}  // namespace autohet::plan
