// Layer-pipelined throughput model.
//
// ReRAM accelerators process a stream of inferences with one pipeline stage
// per layer (PipeLayer-style): stage k works on image i while stage k+1
// works on image i-1. The initiation interval of a stage is the layer's
// serial MVM latency divided by its replication factor (duplicating a
// layer's weights across additional tiles lets it serve multiple output
// positions concurrently — the standard ISAAC/MNSIM balancing lever).
//
// balance_replication() greedily duplicates the bottleneck stage until an
// extra-tile budget is exhausted, the classic throughput/area trade.
#pragma once

#include <cstdint>
#include <vector>

#include "mapping/plan.hpp"

namespace autohet::reram {

struct StageReport {
  std::int64_t layer = 0;
  double serial_latency_ns = 0.0;   ///< full layer latency, one copy
  std::int64_t replication = 1;     ///< weight copies of this layer
  double interval_ns = 0.0;         ///< serial latency / replication
  std::int64_t extra_tiles = 0;     ///< tiles added by replication
};

struct PipelineReport {
  std::vector<StageReport> stages;
  double bottleneck_interval_ns = 0.0;
  double throughput_inferences_per_s = 0.0;
  double fill_latency_ns = 0.0;  ///< first-inference end-to-end latency
  std::int64_t total_extra_tiles = 0;
};

/// Evaluates the pipeline of a compiled plan with the given per-layer
/// replication factors (empty = all ones). Stage latencies and tile costs
/// are read off the plan; no mapping is re-derived here.
PipelineReport evaluate_pipeline(
    const plan::DeploymentPlan& plan,
    const std::vector<std::int64_t>& replication = {});

/// Greedy throughput balancing: repeatedly duplicates the current
/// bottleneck layer while its tile cost fits in `extra_tile_budget`.
/// Returns the chosen replication factors.
std::vector<std::int64_t> balance_replication(const plan::DeploymentPlan& plan,
                                              std::int64_t extra_tile_budget);

}  // namespace autohet::reram
