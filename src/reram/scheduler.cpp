#include "reram/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace autohet::reram {

ScheduleReport schedule_batch(const plan::DeploymentPlan& plan,
                              std::int64_t batch,
                              const std::vector<std::int64_t>& replication) {
  plan.validate();
  return schedule_batch(plan::plan_layer_costs(plan), plan::plan_dataflow(plan),
                        batch, replication);
}

ScheduleReport schedule_batch(const std::vector<plan::LayerCost>& costs,
                              const plan::PlanDataflow& flow,
                              std::int64_t batch,
                              const std::vector<std::int64_t>& replication) {
  OBS_SPAN("schedule_batch");
  AUTOHET_CHECK(batch > 0, "batch must be positive");
  AUTOHET_CHECK(!costs.empty(), "schedule needs at least one layer");
  AUTOHET_CHECK(flow.deps.size() == costs.size() &&
                    flow.tail_delay_ns.size() == costs.size(),
                "dataflow must have one entry per layer");
  AUTOHET_CHECK(replication.empty() || replication.size() == costs.size(),
                "replication must be empty or one entry per layer");

  const auto n = static_cast<std::int64_t>(costs.size());
  std::vector<double> interval(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int64_t rep =
        replication.empty() ? 1 : replication[static_cast<std::size_t>(k)];
    AUTOHET_CHECK(rep >= 1, "replication factors must be >= 1");
    interval[static_cast<std::size_t>(k)] =
        costs[static_cast<std::size_t>(k)].latency_ns /
        static_cast<double>(rep);
  }
  // `flow` holds the graph dependency edges (for v1 chains: exactly the
  // historical k-1 rule with zero delay, so the arithmetic below is
  // bit-identical).

  ScheduleReport report;
  report.tasks.resize(static_cast<std::size_t>(batch * n));
  report.prefix_makespan_ns.reserve(static_cast<std::size_t>(batch));
  std::vector<double> stage_busy(static_cast<std::size_t>(n), 0.0);
  for (std::int64_t i = 0; i < batch; ++i) {
    for (std::int64_t k = 0; k < n; ++k) {
      double start = 0.0;
      for (const plan::LayerDep& dep :
           flow.deps[static_cast<std::size_t>(k)]) {
        // Dataflow dependency: every producing layer's output, plus the
        // vector-unit delay of the non-mappable ops on the path.
        start = std::max(start, report.task(i, dep.layer, n).finish_ns +
                                    dep.delay_ns);
      }
      if (i > 0) {
        start = std::max(start, report.task(i - 1, k, n).start_ns +
                                    interval[static_cast<std::size_t>(k)]);
      }
      TaskTiming& t =
          report.tasks[static_cast<std::size_t>(i * n + k)];
      t.image = i;
      t.layer = k;
      t.start_ns = start;
      t.finish_ns = start + interval[static_cast<std::size_t>(k)];
      stage_busy[static_cast<std::size_t>(k)] +=
          interval[static_cast<std::size_t>(k)];
      report.makespan_ns = std::max(
          report.makespan_ns,
          t.finish_ns + flow.tail_delay_ns[static_cast<std::size_t>(k)]);
    }
    report.prefix_makespan_ns.push_back(report.makespan_ns);
  }
  if (batch > 1) {
    const double first_start = report.task(0, n - 1, n).start_ns;
    const double last_start = report.task(batch - 1, n - 1, n).start_ns;
    const double gap = (last_start - first_start) /
                       static_cast<double>(batch - 1);
    if (gap > 0.0) {
      report.steady_throughput_inferences_per_s = 1e9 / gap;
    }
  }
  report.stage_busy_fraction.reserve(static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    report.stage_busy_fraction.push_back(
        report.makespan_ns > 0.0
            ? stage_busy[static_cast<std::size_t>(k)] / report.makespan_ns
            : 0.0);
    OBS_PROFILE_RECORD(obs::ProfileKind::kScheduleTask, k, 0, batch);
    OBS_PROFILE_RECORD(
        obs::ProfileKind::kStageBusyNs, k, 0,
        std::llround(stage_busy[static_cast<std::size_t>(k)]));
  }
  return report;
}

}  // namespace autohet::reram
