#include "reram/pipeline.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace autohet::reram {

PipelineReport evaluate_pipeline(const plan::DeploymentPlan& plan,
                                 const std::vector<std::int64_t>& replication) {
  OBS_SPAN("evaluate_pipeline");
  plan.validate();
  AUTOHET_CHECK(replication.empty() || replication.size() == plan.layers.size(),
                "replication must be empty or one entry per layer");
  const std::vector<plan::LayerCost> costs = plan::plan_layer_costs(plan);
  // Graph dependency edges; for v1 chains the critical-path recursion
  // below reduces to the historical left-to-right interval sum exactly.
  const plan::PlanDataflow flow = plan::plan_dataflow(plan);
  PipelineReport report;
  report.stages.reserve(costs.size());
  std::vector<double> fill(costs.size(), 0.0);
  for (std::size_t k = 0; k < costs.size(); ++k) {
    const std::int64_t rep = replication.empty() ? 1 : replication[k];
    AUTOHET_CHECK(rep >= 1, "replication factors must be >= 1");
    StageReport stage;
    stage.layer = static_cast<std::int64_t>(k);
    stage.serial_latency_ns = costs[k].latency_ns;
    stage.replication = rep;
    stage.interval_ns = costs[k].latency_ns / static_cast<double>(rep);
    stage.extra_tiles = (rep - 1) * costs[k].tiles;
    report.bottleneck_interval_ns =
        std::max(report.bottleneck_interval_ns, stage.interval_ns);
    // First-inference fill latency along the dependency critical path.
    double ready = 0.0;
    for (const plan::LayerDep& dep : flow.deps[k]) {
      ready = std::max(
          ready, fill[static_cast<std::size_t>(dep.layer)] + dep.delay_ns);
    }
    fill[k] = ready + stage.interval_ns;
    report.fill_latency_ns =
        std::max(report.fill_latency_ns, fill[k] + flow.tail_delay_ns[k]);
    report.total_extra_tiles += stage.extra_tiles;
    report.stages.push_back(stage);
  }
  if (report.bottleneck_interval_ns > 0.0) {
    report.throughput_inferences_per_s =
        1e9 / report.bottleneck_interval_ns;
  }
  return report;
}

std::vector<std::int64_t> balance_replication(const plan::DeploymentPlan& plan,
                                              std::int64_t extra_tile_budget) {
  OBS_SPAN("balance_replication");
  plan.validate();
  AUTOHET_CHECK(extra_tile_budget >= 0, "budget must be non-negative");

  const std::vector<plan::LayerCost> costs = plan::plan_layer_costs(plan);
  std::vector<std::int64_t> replication(costs.size(), 1);
  std::int64_t budget = extra_tile_budget;
  for (;;) {
    // Find the bottleneck stage.
    std::size_t worst = 0;
    double worst_interval = -1.0;
    for (std::size_t k = 0; k < costs.size(); ++k) {
      const double interval =
          costs[k].latency_ns / static_cast<double>(replication[k]);
      if (interval > worst_interval) {
        worst_interval = interval;
        worst = k;
      }
    }
    if (costs[worst].tiles > budget) break;  // cannot afford another copy
    budget -= costs[worst].tiles;
    ++replication[worst];
  }
  return replication;
}

}  // namespace autohet::reram
