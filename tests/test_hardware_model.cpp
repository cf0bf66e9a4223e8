// Behavioral hardware model: energy/area/latency accounting and the
// utilization-vs-energy conflict the paper's design hinges on (§2.2.3).
#include <gtest/gtest.h>

#include "mapping/layer_mapping.hpp"
#include "mapping/plan.hpp"
#include "nn/model_zoo.hpp"
#include "reram/hardware_model.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::AcceleratorConfig;
using reram::evaluate_layer;

AcceleratorConfig default_config(bool shared = false) {
  AcceleratorConfig config;
  config.tile_shared = shared;
  return config;
}

reram::NetworkReport plan_report(const std::vector<nn::LayerSpec>& layers,
                                 const std::vector<CrossbarShape>& shapes,
                                 const AcceleratorConfig& config) {
  return plan::evaluate_plan(plan::compile_plan("", layers, shapes, config));
}

reram::NetworkReport homogeneous_report(
    const std::vector<nn::LayerSpec>& layers, const CrossbarShape& shape,
    const AcceleratorConfig& config) {
  return plan_report(
      layers, std::vector<CrossbarShape>(layers.size(), shape), config);
}

TEST(DeviceParams, DefaultsValidate) {
  reram::DeviceParams p;
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.bit_planes(), 8);
  EXPECT_EQ(p.input_cycles(), 8);
  p.cell_bits = 3;  // 8 % 3 != 0
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.cell_bits = 1;
  p.input_bits = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(EvaluateLayer, Fig5TradeoffSmallVsLargeCrossbar) {
  // The paper's Fig. 5 layer: 128 kernels of 3x3x12. The 64x64 mapping has
  // higher utilization; the 128x128 mapping activates fewer ADCs and burns
  // less energy.
  const auto layer = nn::make_conv(12, 128, 3, 1, 1, 16, 16);
  const reram::DeviceParams params;
  const auto small = evaluate_layer(layer, mapping::map_layer(layer, {64, 64}),
                                    1, params);
  const auto large = evaluate_layer(
      layer, mapping::map_layer(layer, {128, 128}), 1, params);
  EXPECT_EQ(small.adc_instances, 256);
  EXPECT_EQ(large.adc_instances, 128);
  // Two row blocks on 64x64 means every output column converts twice.
  EXPECT_NEAR(small.energy.adc_nj / large.energy.adc_nj, 2.0, 1e-9);
  EXPECT_GT(small.energy.total_nj(), large.energy.total_nj());
  // Tile-level utilization (4 XBs/tile): 27/32 vs 27/128 as in Fig. 5.
  const auto small_net =
      homogeneous_report({layer}, {64, 64}, default_config());
  const auto large_net =
      homogeneous_report({layer}, {128, 128}, default_config());
  EXPECT_NEAR(small_net.utilization, 27.0 / 32.0, 1e-12);
  EXPECT_NEAR(large_net.utilization, 27.0 / 128.0, 1e-12);
  EXPECT_GT(small_net.utilization, large_net.utilization);
}

TEST(EvaluateLayer, EnergyScalesWithMvmCount) {
  const auto small_map = nn::make_conv(16, 32, 3, 1, 1, 8, 8);    // 64 MVMs
  const auto large_map = nn::make_conv(16, 32, 3, 1, 1, 16, 16);  // 256 MVMs
  const reram::DeviceParams params;
  const auto e_small = evaluate_layer(
      small_map, mapping::map_layer(small_map, {64, 64}), 1, params);
  const auto e_large = evaluate_layer(
      large_map, mapping::map_layer(large_map, {64, 64}), 1, params);
  EXPECT_NEAR(e_large.energy.adc_nj / e_small.energy.adc_nj, 4.0, 1e-9);
  EXPECT_NEAR(e_large.latency_ns / e_small.latency_ns, 4.0, 1e-9);
}

TEST(EvaluateLayer, AdcEnergyDominates) {
  // ADC energy should be the dominant component (the premise behind the
  // small-crossbar energy penalty, §2.2.3 / ISAAC).
  const auto layer = nn::make_conv(64, 128, 3, 1, 1, 16, 16);
  const reram::DeviceParams params;
  const auto r =
      evaluate_layer(layer, mapping::map_layer(layer, {64, 64}), 1, params);
  EXPECT_GT(r.energy.adc_nj, 0.5 * r.energy.total_nj());
}

TEST(EvaluateLayer, RejectsPoolingLayers) {
  const auto pool = nn::make_maxpool(8, 2, 2, 16, 16);
  const reram::DeviceParams params;
  const auto conv = nn::make_conv(8, 8, 3, 1, 1, 16, 16);
  const auto m = mapping::map_layer(conv, {64, 64});
  EXPECT_THROW(evaluate_layer(pool, m, 1, params), std::invalid_argument);
}

TEST(EvaluateNetwork, UtilizationEnergyConflictAcrossSizes) {
  // Homogeneous sweep on VGG16: the smallest crossbar must win utilization
  // and the largest must win energy (Fig. 3 / Fig. 9 shape).
  const auto layers = nn::vgg16().mappable_layers();
  const auto config = default_config();
  const auto small = homogeneous_report(layers, {32, 32}, config);
  const auto large = homogeneous_report(layers, {512, 512}, config);
  EXPECT_GT(small.utilization, large.utilization);
  EXPECT_GT(small.energy.total_nj(), large.energy.total_nj());
  // RUE is well-defined and positive.
  EXPECT_GT(small.rue(), 0.0);
  EXPECT_GT(large.rue(), 0.0);
}

TEST(EvaluateNetwork, AreaDecreasesWithCrossbarSize) {
  // Table 5 shape: area monotonically decreases from SXB32 to SXB512
  // (ADC-count dominated).
  const auto layers = nn::vgg16().mappable_layers();
  const auto config = default_config();
  double prev = 1e300;
  for (const auto& shape : mapping::square_candidates()) {
    const auto r = homogeneous_report(layers, shape, config);
    EXPECT_LT(r.area.total_um2(), prev) << shape.name();
    prev = r.area.total_um2();
  }
}

TEST(EvaluateNetwork, EnergyIsSumOfLayerEnergies) {
  const auto layers = nn::alexnet().mappable_layers();
  const auto config = default_config();
  const auto r = homogeneous_report(layers, {128, 128}, config);
  reram::EnergyBreakdown sum;
  for (const auto& lr : r.layers) sum += lr.energy;
  EXPECT_NEAR(sum.total_nj(), r.energy.total_nj(), 1e-6);
  ASSERT_EQ(r.layers.size(), layers.size());
}

TEST(EvaluateNetwork, TileSharingReducesTilesAndRaisesUtilization) {
  const auto layers = nn::vgg16().mappable_layers();
  const auto base = homogeneous_report(layers, {64, 64}, default_config());
  const auto shared =
      homogeneous_report(layers, {64, 64}, default_config(true));
  EXPECT_LE(shared.occupied_tiles, base.occupied_tiles);
  EXPECT_GE(shared.utilization, base.utilization);
  // Per-MVM dynamic energy is unchanged by sharing (same mapping geometry).
  EXPECT_NEAR(shared.energy.total_nj(), base.energy.total_nj(), 1e-6);
  // Area shrinks via the tile-overhead term.
  EXPECT_LE(shared.area.total_um2(), base.area.total_um2());
}

TEST(EvaluateNetwork, HeterogeneousMixesShapesPerLayer) {
  const auto layers = nn::alexnet().mappable_layers();
  std::vector<CrossbarShape> shapes(layers.size(), CrossbarShape{64, 64});
  shapes.back() = {512, 512};
  const auto r = plan_report(layers, shapes, default_config());
  EXPECT_EQ(r.layers.back().shape, (CrossbarShape{512, 512}));
  EXPECT_EQ(r.layers.front().shape, (CrossbarShape{64, 64}));
}

TEST(EvaluateNetwork, ValidatesInputLengths) {
  const auto layers = nn::alexnet().mappable_layers();
  const std::vector<CrossbarShape> wrong(3, CrossbarShape{64, 64});
  EXPECT_THROW(plan_report(layers, wrong, default_config()),
               std::invalid_argument);
}

TEST(EvaluateNetwork, RectangleCrossbarsCutEnergyOn3x3Models) {
  // §4.3: RXBs reduce ADC work for 3x3-kernel stacks. Compare 64x64 vs
  // 72x64 homogeneous on VGG16: same column count, fewer row blocks.
  const auto layers = nn::vgg16().mappable_layers();
  const auto square = homogeneous_report(layers, {64, 64}, default_config());
  const auto rect = homogeneous_report(layers, {72, 64}, default_config());
  EXPECT_LT(rect.energy.total_nj(), square.energy.total_nj());
  EXPECT_GE(rect.utilization, square.utilization);
  EXPECT_GT(rect.rue(), square.rue());
}

TEST(NetworkReport, RueDefinition) {
  reram::NetworkReport r;
  r.utilization = 0.5;
  r.energy.adc_nj = 1000.0;
  EXPECT_DOUBLE_EQ(r.rue(), 50.0 / 1000.0);
  reram::NetworkReport zero;
  EXPECT_EQ(zero.rue(), 0.0);
}

TEST(EvaluateNetwork, LatencyWithinSaneBandAcrossSizes) {
  // Table 5 shape: latency varies within a modest band (~±35%) across the
  // homogeneous sizes rather than exploding for any of them.
  const auto layers = nn::vgg16().mappable_layers();
  double lo = 1e300, hi = 0.0;
  for (const auto& shape : mapping::square_candidates()) {
    const auto r = homogeneous_report(layers, shape, default_config());
    lo = std::min(lo, r.latency_ns);
    hi = std::max(hi, r.latency_ns);
  }
  EXPECT_LT(hi / lo, 1.6);
}

}  // namespace
}  // namespace autohet
