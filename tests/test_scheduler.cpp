#include <gtest/gtest.h>

#include "nn/graph.hpp"
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

/// Two residual blocks, the second ending the graph: stem -> body ->
/// add(stem, body) -> relu -> head -> add(relu, head) -> relu. The head
/// reads both convs through the first add (two producer edges with op
/// delays), and the trailing add + relu leave every conv a non-zero tail
/// delay to the graph output.
plan::DeploymentPlan residual_tail_plan() {
  nn::GraphBuilder b("residual_tail");
  const auto in = b.input(8, 8, 8);
  const auto stem = b.layer(in, nn::make_conv(8, 8, 3, 1, 1, 8, 8));
  const auto body = b.layer(stem, nn::make_conv(8, 8, 3, 1, 1, 8, 8));
  const auto mid = b.activation(b.residual_add(stem, body));
  const auto head = b.layer(mid, nn::make_conv(8, 8, 3, 1, 1, 8, 8));
  b.activation(b.residual_add(mid, head));
  AcceleratorConfig accel;
  accel.tile_shared = true;
  return plan::compile_plan(b.build(),
                            std::vector<CrossbarShape>(3, {128, 128}), accel);
}

/// Image i's tasks depend only on images <= i, so a batch of b is the first
/// b images of a larger batch, and its makespan is that batch's prefix
/// makespan — exactly, not approximately.
void expect_prefix_schedules(const plan::DeploymentPlan& p,
                             const std::vector<std::int64_t>& replication) {
  constexpr std::int64_t kMax = 8;
  const auto full = schedule_batch(p, kMax, replication);
  const auto n = static_cast<std::int64_t>(p.layers.size());
  ASSERT_EQ(full.prefix_makespan_ns.size(), static_cast<std::size_t>(kMax));
  EXPECT_EQ(full.makespan_ns, full.prefix_makespan_ns.back());
  for (std::int64_t b = 1; b <= kMax; ++b) {
    const auto part = schedule_batch(p, b, replication);
    ASSERT_EQ(part.tasks.size(), static_cast<std::size_t>(b * n));
    for (std::int64_t i = 0; i < b; ++i) {
      for (std::int64_t k = 0; k < n; ++k) {
        EXPECT_EQ(part.task(i, k, n).start_ns, full.task(i, k, n).start_ns)
            << p.network << " batch " << b << " image " << i << " layer " << k;
        EXPECT_EQ(part.task(i, k, n).finish_ns, full.task(i, k, n).finish_ns)
            << p.network << " batch " << b << " image " << i << " layer " << k;
      }
    }
    EXPECT_EQ(part.makespan_ns,
              full.prefix_makespan_ns[static_cast<std::size_t>(b - 1)])
        << p.network << " batch " << b;
    ASSERT_EQ(part.prefix_makespan_ns.size(), static_cast<std::size_t>(b));
    for (std::int64_t i = 0; i < b; ++i) {
      EXPECT_EQ(part.prefix_makespan_ns[static_cast<std::size_t>(i)],
                full.prefix_makespan_ns[static_cast<std::size_t>(i)]);
    }
  }
}

plan::DeploymentPlan chain_plan(const nn::NetworkSpec& net) {
  const auto layers = net.mappable_layers();
  return plan::compile_plan(
      net.name, layers,
      std::vector<CrossbarShape>(layers.size(), CrossbarShape{128, 128}),
      AcceleratorConfig{});
}

TEST(Scheduler, SmallerBatchesArePrefixesOfChainSchedules) {
  for (const nn::NetworkSpec& net :
       {nn::lenet5(), nn::alexnet(), nn::vgg16()}) {
    expect_prefix_schedules(chain_plan(net), {});
  }
}

TEST(Scheduler, SmallerBatchesArePrefixesOfReplicatedSchedules) {
  const auto p = lenet_plan();
  const auto rep = reram::balance_replication(p, 16);
  ASSERT_NE(rep, std::vector<std::int64_t>(rep.size(), 1));
  expect_prefix_schedules(p, rep);
}

TEST(Scheduler, SmallerBatchesArePrefixesOfGraphSchedules) {
  const auto p = residual_tail_plan();
  const plan::PlanDataflow flow = plan::plan_dataflow(p);
  ASSERT_EQ(flow.deps.size(), 3u);
  ASSERT_EQ(flow.deps[2].size(), 2u);
  for (const plan::LayerDep& dep : flow.deps[2]) EXPECT_GT(dep.delay_ns, 0.0);
  for (const double tail : flow.tail_delay_ns) EXPECT_GT(tail, 0.0);
  expect_prefix_schedules(p, {});
  expect_prefix_schedules(p, {2, 1, 3});
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
