#include <gtest/gtest.h>

#include "nn/model_zoo.hpp"
#include "reram/pipeline.hpp"
#include "reram/scheduler.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::AcceleratorConfig;
using reram::schedule_batch;

std::vector<nn::LayerSpec> lenet_layers() {
  return nn::lenet5().mappable_layers();
}

/// LeNet-5 compiled homogeneously onto 128x128 crossbars.
plan::DeploymentPlan lenet_plan() {
  const auto layers = lenet_layers();
  return plan::compile_plan(
      "LeNet5", layers,
      std::vector<CrossbarShape>(layers.size(), CrossbarShape{128, 128}),
      AcceleratorConfig{});
}

TEST(Scheduler, DependenciesAreRespected) {
  const auto n = static_cast<std::int64_t>(lenet_layers().size());
  const auto report = schedule_batch(lenet_plan(), /*batch=*/4);
  ASSERT_EQ(report.tasks.size(), static_cast<std::size_t>(4 * n));
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t k = 0; k < n; ++k) {
      const auto& t = report.task(i, k, n);
      EXPECT_EQ(t.image, i);
      EXPECT_EQ(t.layer, k);
      EXPECT_GT(t.finish_ns, t.start_ns);
      if (k > 0) {
        EXPECT_GE(t.start_ns, report.task(i, k - 1, n).finish_ns - 1e-9);
      }
      if (i > 0) {
        EXPECT_GT(t.start_ns, report.task(i - 1, k, n).start_ns);
      }
    }
  }
}

TEST(Scheduler, SingleImageMakespanEqualsFillLatency) {
  const auto p = lenet_plan();
  const auto schedule = schedule_batch(p, 1);
  const auto pipeline = reram::evaluate_pipeline(p);
  EXPECT_NEAR(schedule.makespan_ns, pipeline.fill_latency_ns, 1e-6);
}

TEST(Scheduler, SteadyThroughputMatchesAnalyticModel) {
  const auto p = lenet_plan();
  const auto schedule = schedule_batch(p, 32);
  const auto pipeline = reram::evaluate_pipeline(p);
  EXPECT_NEAR(schedule.steady_throughput_inferences_per_s,
              pipeline.throughput_inferences_per_s,
              pipeline.throughput_inferences_per_s * 1e-6);
}

TEST(Scheduler, ReplicationAcceleratesBottleneck) {
  const auto p = lenet_plan();
  const auto rep = reram::balance_replication(p, 16);
  const auto base = schedule_batch(p, 16);
  const auto fast = schedule_batch(p, 16, rep);
  EXPECT_LT(fast.makespan_ns, base.makespan_ns);
}

TEST(Scheduler, BottleneckStageIsBusiest) {
  const auto report = schedule_batch(lenet_plan(), 64);
  // The busiest stage fraction approaches 1 for a long batch.
  double max_busy = 0.0;
  for (double f : report.stage_busy_fraction) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-9);
    max_busy = std::max(max_busy, f);
  }
  EXPECT_GT(max_busy, 0.9);
}

TEST(Scheduler, MakespanGrowsLinearlyInSteadyState) {
  const auto p = lenet_plan();
  const auto b32 = schedule_batch(p, 32);
  const auto b64 = schedule_batch(p, 64);
  const auto pipeline = reram::evaluate_pipeline(p);
  EXPECT_NEAR(b64.makespan_ns - b32.makespan_ns,
              32.0 * pipeline.bottleneck_interval_ns,
              pipeline.bottleneck_interval_ns * 0.01);
}

TEST(Scheduler, ValidatesArguments) {
  EXPECT_THROW(schedule_batch(lenet_plan(), 0), std::invalid_argument);
  std::vector<std::int64_t> bad_rep(lenet_layers().size(), 1);
  bad_rep.pop_back();
  EXPECT_THROW(schedule_batch(lenet_plan(), 1, bad_rep),
               std::invalid_argument);
}

}  // namespace
}  // namespace autohet
