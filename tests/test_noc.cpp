#include <gtest/gtest.h>

#include "nn/model_zoo.hpp"
#include "reram/noc.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::ChipSpec;
using reram::evaluate_noc;
using reram::NocParams;
using reram::place_tiles;

struct Setup {
  std::vector<nn::LayerSpec> layers;
  mapping::AllocationResult allocation;
  reram::PlacementResult placement;
};

Setup make_setup(const nn::NetworkSpec& net, CrossbarShape shape,
                 bool shared = false) {
  Setup s;
  s.layers = net.mappable_layers();
  const std::vector<CrossbarShape> shapes(s.layers.size(), shape);
  s.allocation = mapping::allocate_tiles(s.layers, shapes, 4, shared);
  s.placement = place_tiles(s.allocation.tiles, ChipSpec{});
  return s;
}

TEST(Noc, LinkBytesMatchFeatureMaps) {
  const auto s = make_setup(nn::lenet5(), {64, 64});
  const auto report = evaluate_noc(s.layers, s.allocation, s.placement);
  ASSERT_EQ(report.links.size(), s.layers.size() - 1);
  for (std::size_t k = 0; k + 1 < s.layers.size(); ++k) {
    EXPECT_EQ(report.links[k].bytes,
              s.layers[k].out_channels * s.layers[k].out_height() *
                  s.layers[k].out_width())
        << k;
  }
}

TEST(Noc, TotalsAreConsistent) {
  const auto s = make_setup(nn::alexnet(), {128, 128});
  const auto report = evaluate_noc(s.layers, s.allocation, s.placement);
  std::int64_t bytes = 0;
  double energy = 0.0;
  for (const auto& link : report.links) {
    bytes += link.bytes;
    energy += link.energy_nj;
    EXPECT_GE(link.mean_hops, 0.0);
  }
  EXPECT_EQ(report.total_bytes, bytes);
  EXPECT_NEAR(report.total_energy_nj, energy, 1e-9);
  EXPECT_GT(report.total_energy_nj, 0.0);
}

TEST(Noc, EnergyScalesWithParams) {
  const auto s = make_setup(nn::lenet5(), {64, 64});
  NocParams cheap;
  cheap.energy_pj_per_byte_hop = 0.01;
  NocParams pricey;
  pricey.energy_pj_per_byte_hop = 0.1;
  const auto low = evaluate_noc(s.layers, s.allocation, s.placement, cheap);
  const auto high = evaluate_noc(s.layers, s.allocation, s.placement, pricey);
  EXPECT_NEAR(high.total_energy_nj, 10.0 * low.total_energy_nj, 1e-9);
}

TEST(Noc, AdjacentPlacementShortensHops) {
  // VGG16 on 512x512 uses few tiles (placed close together); on 32x32 it
  // sprawls across many tiles, so mean hop distance must grow.
  const auto compact = make_setup(nn::vgg16(), {512, 512});
  const auto sprawling = make_setup(nn::vgg16(), {32, 32});
  const auto near_report =
      evaluate_noc(compact.layers, compact.allocation, compact.placement);
  const auto far_report = evaluate_noc(sprawling.layers,
                                       sprawling.allocation,
                                       sprawling.placement);
  EXPECT_LT(near_report.mean_hops, far_report.mean_hops);
}

TEST(Noc, TileSharingDoesNotBreakTrafficAccounting) {
  const auto s = make_setup(nn::vgg16(), {64, 64}, /*shared=*/true);
  const auto report = evaluate_noc(s.layers, s.allocation, s.placement);
  EXPECT_EQ(report.links.size(), s.layers.size() - 1);
  EXPECT_GT(report.total_bytes, 0);
}

TEST(Noc, ValidatesInputs) {
  const auto s = make_setup(nn::lenet5(), {64, 64});
  const std::vector<nn::LayerSpec> wrong(s.layers.begin(),
                                         s.layers.begin() + 2);
  EXPECT_THROW(evaluate_noc(wrong, s.allocation, s.placement),
               std::invalid_argument);
  // Placement missing a tile.
  reram::PlacementResult empty;
  EXPECT_THROW(evaluate_noc(s.layers, s.allocation, empty),
               std::invalid_argument);
}

}  // namespace
}  // namespace autohet
