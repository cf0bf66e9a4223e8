// Randomized stress tests across the whole mapping -> allocation ->
// controller -> hardware-model pipeline: generated layer populations must
// flow through every stage without invariant violations.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mapping/plan.hpp"
#include "mapping/tile_allocator.hpp"
#include "nn/layer.hpp"
#include "reram/bank.hpp"
#include "reram/controller.hpp"
#include "reram/noc.hpp"

namespace autohet {
namespace {

nn::LayerSpec random_layer(common::Rng& rng) {
  if (rng.uniform() < 0.25) {
    const auto in = rng.uniform_int(1, 4096);
    const auto out = rng.uniform_int(1, 4096);
    return nn::make_fc(in, out);
  }
  const std::int64_t k = 1 + 2 * rng.uniform_int(0, 2);  // 1, 3, 5
  const auto cin = rng.uniform_int(1, 512);
  const auto cout = rng.uniform_int(1, 512);
  const std::int64_t size = rng.uniform_int(static_cast<std::int64_t>(k), 32);
  return nn::make_conv(cin, cout, k, 1, k / 2, size, size);
}

class PipelineStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineStress, FullFlowHoldsInvariants) {
  common::Rng rng(GetParam());
  const std::size_t layer_count = 1 + rng.uniform_u64(24);
  std::vector<nn::LayerSpec> layers;
  std::vector<mapping::CrossbarShape> shapes;
  const auto candidates = mapping::all_candidates();
  for (std::size_t i = 0; i < layer_count; ++i) {
    layers.push_back(random_layer(rng));
    shapes.push_back(candidates[rng.uniform_u64(candidates.size())]);
  }
  const std::int64_t xbs = 1 + static_cast<std::int64_t>(rng.uniform_u64(16));
  const bool shared = rng.uniform() < 0.5;

  // Allocation invariants.
  const auto allocation = mapping::allocate_tiles(layers, shapes, xbs, shared);
  std::int64_t needed = 0;
  for (const auto& l : allocation.layers) {
    EXPECT_GT(l.mapping.logical_crossbars(), 0);
    EXPECT_GT(l.mapping.utilization(), 0.0);
    EXPECT_LE(l.mapping.utilization(), 1.0);
    needed += l.mapping.logical_crossbars();
  }
  EXPECT_EQ(allocation.total_logical_crossbars() -
                allocation.empty_crossbars(),
            needed);
  EXPECT_GE(allocation.system_utilization(), 0.0);
  EXPECT_LE(allocation.system_utilization(), 1.0);
  for (const auto& tile : allocation.tiles) {
    EXPECT_EQ(tile.layer_ids.size(), tile.layer_xbs.size());
    if (tile.released) {
      EXPECT_TRUE(tile.layer_ids.empty());
      EXPECT_EQ(tile.empty_xbs, 0);
    } else {
      EXPECT_GE(tile.empty_xbs, 0);
      EXPECT_LE(tile.empty_xbs, xbs);
    }
  }

  // Hardware model invariants.
  reram::AcceleratorConfig config;
  config.pes_per_tile = xbs;
  config.tile_shared = shared;
  const auto report =
      plan::evaluate_plan(plan::compile_plan("", layers, shapes, config));
  EXPECT_GT(report.energy.total_nj(), 0.0);
  EXPECT_GT(report.area.total_um2(), 0.0);
  EXPECT_GT(report.latency_ns, 0.0);
  EXPECT_EQ(report.occupied_tiles, allocation.occupied_tiles());

  // Controller program round-trip.
  const auto program = reram::compile_program(layers, allocation);
  const auto stats = reram::execute_program(program);
  EXPECT_EQ(stats.tiles_configured, allocation.occupied_tiles());
  EXPECT_EQ(stats.layers_executed,
            static_cast<std::int64_t>(layers.size()));

  // Placement + NoC.
  reram::ChipSpec chip;  // default 4 x 256 x 256 tiles is always enough here
  const auto placement = reram::place_tiles(allocation.tiles, chip);
  EXPECT_EQ(placement.tiles_placed, allocation.occupied_tiles());
  if (layers.size() > 1) {
    const auto noc = reram::evaluate_noc(layers, allocation, placement);
    EXPECT_EQ(noc.links.size(), layers.size() - 1);
    EXPECT_GE(noc.total_energy_nj, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineStress,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace autohet
