// Parameterized invariant sweeps of the hardware model across the full
// (model × candidate × tile-size × sharing) grid.
#include <gtest/gtest.h>

#include "mapping/plan.hpp"
#include "nn/model_zoo.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::AcceleratorConfig;

reram::NetworkReport homogeneous_report(
    const std::vector<nn::LayerSpec>& layers, const CrossbarShape& shape,
    const AcceleratorConfig& config) {
  return plan::evaluate_plan(plan::compile_plan(
      "", layers, std::vector<CrossbarShape>(layers.size(), shape), config));
}

class HardwareSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, int, std::int64_t, bool>> {};

TEST_P(HardwareSweep, ReportInvariants) {
  const auto [model_name, shape_idx, pes, shared] = GetParam();
  const auto net = nn::network_by_name(model_name);
  const auto layers = net.mappable_layers();
  const auto shape =
      mapping::all_candidates()[static_cast<std::size_t>(shape_idx)];
  AcceleratorConfig config;
  config.pes_per_tile = pes;
  config.tile_shared = shared;
  const auto r = homogeneous_report(layers, shape, config);

  // Structural invariants.
  ASSERT_EQ(r.layers.size(), layers.size());
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0);
  EXPECT_GT(r.energy.total_nj(), 0.0);
  EXPECT_GT(r.area.total_um2(), 0.0);
  EXPECT_GT(r.latency_ns, 0.0);
  EXPECT_GT(r.occupied_tiles, 0);
  EXPECT_GE(r.empty_crossbars, 0);
  EXPECT_LT(r.empty_crossbars, r.occupied_tiles * pes);

  // Energy/latency are the sums of the layer reports.
  double energy = 0.0, latency = 0.0;
  for (const auto& lr : r.layers) {
    energy += lr.energy.total_nj();
    latency += lr.latency_ns;
    EXPECT_EQ(lr.shape, shape);
    EXPECT_GT(lr.logical_crossbars, 0);
    EXPECT_EQ(lr.adc_instances, lr.logical_crossbars * shape.cols);
    EXPECT_GT(lr.mvm_invocations, 0);
  }
  EXPECT_NEAR(energy, r.energy.total_nj(), energy * 1e-12);
  EXPECT_NEAR(latency, r.latency_ns, latency * 1e-12);

  // RUE consistency.
  EXPECT_NEAR(r.rue(), r.utilization * 100.0 / r.energy.total_nj(),
              r.rue() * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HardwareSweep,
    ::testing::Combine(::testing::Values("lenet5", "alexnet", "vgg16"),
                       ::testing::Values(0, 3, 6, 9),
                       ::testing::Values<std::int64_t>(1, 4, 16),
                       ::testing::Bool()));

// Sharing never changes dynamic energy and never increases tiles, across
// the grid.
class SharingSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SharingSweep, SharingInvariants) {
  const auto [model_name, shape_idx] = GetParam();
  const auto layers = nn::network_by_name(model_name).mappable_layers();
  const auto shape =
      mapping::all_candidates()[static_cast<std::size_t>(shape_idx)];
  AcceleratorConfig base;
  AcceleratorConfig shared;
  shared.tile_shared = true;
  const auto r_base = homogeneous_report(layers, shape, base);
  const auto r_shared = homogeneous_report(layers, shape, shared);
  EXPECT_NEAR(r_base.energy.total_nj(), r_shared.energy.total_nj(),
              r_base.energy.total_nj() * 1e-12);
  EXPECT_LE(r_shared.occupied_tiles, r_base.occupied_tiles);
  EXPECT_GE(r_shared.utilization, r_base.utilization - 1e-12);
  EXPECT_LE(r_shared.area.total_um2(), r_base.area.total_um2() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SharingSweep,
    ::testing::Combine(::testing::Values("lenet5", "alexnet", "vgg16",
                                         "resnet152"),
                       ::testing::Values(0, 2, 5, 8)));

// ResNet152 is heavy; run a single smoke configuration outside the grid.
TEST(HardwareSweepResnet, SmokeConfiguration) {
  const auto layers = nn::resnet152().mappable_layers();
  AcceleratorConfig config;
  config.tile_shared = true;
  const auto r = homogeneous_report(layers, {288, 256}, config);
  EXPECT_EQ(r.layers.size(), 156u);
  EXPECT_GT(r.rue(), 0.0);
}

}  // namespace
}  // namespace autohet
