// Event-level schedule of a pipelined inference batch.
//
// evaluate_pipeline() (reram/pipeline.hpp) gives steady-state throughput;
// this module produces the actual timeline: for a batch of images streamed
// through the layer pipeline, when each (image, layer) task starts and
// finishes under the dependency rules
//
//   start(i, k) >= finish(i, k-1)            (dataflow: needs layer k-1's
//                                             output for image i)
//   start(i, k) >= start(i-1, k) + II(k)     (stage occupancy: a stage
//                                             admits one image per
//                                             initiation interval)
//
// with II(k) = serial layer latency / replication(k). From the timeline it
// derives makespan, steady-state throughput (which must agree with the
// analytic model), and per-stage busy fractions — the usual way to see
// where an unbalanced pipeline stalls.
#pragma once

#include <cstdint>
#include <vector>

#include "mapping/plan.hpp"

namespace autohet::reram {

struct TaskTiming {
  std::int64_t image = 0;
  std::int64_t layer = 0;
  double start_ns = 0.0;
  double finish_ns = 0.0;
};

struct ScheduleReport {
  std::vector<TaskTiming> tasks;  ///< image-major, then layer
  double makespan_ns = 0.0;
  /// Entry i: makespan of images 0..i alone. Image i's tasks depend only on
  /// images <= i, so this is bit-equal to schedule_batch(plan, i + 1)
  /// .makespan_ns, and the first b images of this schedule are that
  /// schedule's tasks: one call serves every batch size up to `batch`.
  std::vector<double> prefix_makespan_ns;
  /// (batch-1) / (last start gap): converges to the analytic throughput.
  double steady_throughput_inferences_per_s = 0.0;
  /// Busy time of each stage divided by the makespan.
  std::vector<double> stage_busy_fraction;

  const TaskTiming& task(std::int64_t image, std::int64_t layer,
                         std::int64_t num_layers) const {
    return tasks[static_cast<std::size_t>(image * num_layers + layer)];
  }
};

/// Schedules `batch` images through the layer pipeline of a compiled plan:
/// validates the plan, then runs the overload below on its
/// plan_layer_costs and plan_dataflow. No mapping is re-derived here.
/// `replication` as in evaluate_pipeline (empty = all ones).
ScheduleReport schedule_batch(
    const plan::DeploymentPlan& plan, std::int64_t batch,
    const std::vector<std::int64_t>& replication = {});

/// The scheduling loop on a plan's schedule inputs, for callers that
/// derived them once from a plan they already validated (the serving
/// fabric). Stage intervals are `costs[k].latency_ns / replication[k]`.
ScheduleReport schedule_batch(
    const std::vector<plan::LayerCost>& costs, const plan::PlanDataflow& flow,
    std::int64_t batch, const std::vector<std::int64_t>& replication = {});

}  // namespace autohet::reram
