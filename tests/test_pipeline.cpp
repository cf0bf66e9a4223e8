#include <gtest/gtest.h>

#include "nn/model_zoo.hpp"
#include "reram/pipeline.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::AcceleratorConfig;
using reram::balance_replication;
using reram::evaluate_pipeline;

std::vector<nn::LayerSpec> vgg_layers() {
  return nn::vgg16().mappable_layers();
}

/// VGG16 compiled homogeneously onto `shape` crossbars.
plan::DeploymentPlan vgg_plan(const CrossbarShape& shape) {
  const auto layers = vgg_layers();
  return plan::compile_plan("VGG16", layers,
                            std::vector<CrossbarShape>(layers.size(), shape),
                            AcceleratorConfig{});
}

TEST(Pipeline, BottleneckIsMaxStageInterval) {
  const auto report = evaluate_pipeline(vgg_plan({128, 128}));
  ASSERT_EQ(report.stages.size(), vgg_layers().size());
  double max_interval = 0.0;
  double fill = 0.0;
  for (const auto& s : report.stages) {
    max_interval = std::max(max_interval, s.interval_ns);
    fill += s.interval_ns;
    EXPECT_EQ(s.replication, 1);
    EXPECT_EQ(s.extra_tiles, 0);
  }
  EXPECT_DOUBLE_EQ(report.bottleneck_interval_ns, max_interval);
  EXPECT_DOUBLE_EQ(report.fill_latency_ns, fill);
  EXPECT_NEAR(report.throughput_inferences_per_s, 1e9 / max_interval, 1e-6);
}

TEST(Pipeline, ReplicationDividesInterval) {
  const auto p = vgg_plan({128, 128});
  std::vector<std::int64_t> rep(p.layers.size(), 1);
  rep[0] = 4;
  const auto base = evaluate_pipeline(p);
  const auto repl = evaluate_pipeline(p, rep);
  EXPECT_NEAR(repl.stages[0].interval_ns,
              base.stages[0].interval_ns / 4.0, 1e-9);
  EXPECT_GT(repl.stages[0].extra_tiles, 0);
}

TEST(Pipeline, BalancingImprovesThroughputWithinBudget) {
  const auto p = vgg_plan({128, 128});
  const auto base = evaluate_pipeline(p);
  for (std::int64_t budget : {8, 32, 128}) {
    const auto rep = balance_replication(p, budget);
    const auto balanced = evaluate_pipeline(p, rep);
    EXPECT_LE(balanced.bottleneck_interval_ns,
              base.bottleneck_interval_ns + 1e-9)
        << budget;
    EXPECT_LE(balanced.total_extra_tiles, budget) << budget;
  }
}

TEST(Pipeline, BalancingIsMonotoneInBudget) {
  const auto p = vgg_plan({256, 256});
  double prev = 1e300;
  for (std::int64_t budget : {0, 4, 16, 64, 256}) {
    const auto rep = balance_replication(p, budget);
    const auto report = evaluate_pipeline(p, rep);
    EXPECT_LE(report.bottleneck_interval_ns, prev + 1e-9) << budget;
    prev = report.bottleneck_interval_ns;
  }
}

TEST(Pipeline, ZeroBudgetKeepsSingleCopies) {
  const auto rep = balance_replication(vgg_plan({64, 64}), 0);
  for (auto r : rep) EXPECT_EQ(r, 1);
}

TEST(Pipeline, EarlyConvLayersAreTheBottleneck) {
  // With per-position MVM scheduling, the large-feature-map early layers
  // dominate the pipeline interval — the reason ISAAC-style designs
  // replicate them.
  const auto report = evaluate_pipeline(vgg_plan({128, 128}));
  std::size_t worst = 0;
  for (std::size_t k = 1; k < report.stages.size(); ++k) {
    if (report.stages[k].interval_ns >
        report.stages[worst].interval_ns) {
      worst = k;
    }
  }
  EXPECT_LT(worst, 2u);  // one of the two 32x32-feature-map layers
}

TEST(Pipeline, ValidatesArguments) {
  const auto p = vgg_plan({64, 64});
  EXPECT_THROW(evaluate_pipeline(p, std::vector<std::int64_t>(3, 1)),
               std::invalid_argument);
  std::vector<std::int64_t> bad_rep(p.layers.size(), 1);
  bad_rep[3] = 0;
  EXPECT_THROW(evaluate_pipeline(p, bad_rep), std::invalid_argument);
  EXPECT_THROW(balance_replication(p, -1), std::invalid_argument);
}

}  // namespace
}  // namespace autohet
