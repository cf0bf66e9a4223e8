// Tests for tile-based allocation and the tile-shared remapping scheme
// (Algorithm 1), including the Fig. 4 / Fig. 8 anchors from the paper.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "common/rng.hpp"
#include "mapping/tile_allocator.hpp"
#include "nn/model_zoo.hpp"

namespace autohet {
namespace {

using mapping::AllocationResult;
using mapping::CombMap;
using mapping::CrossbarShape;
using mapping::Tile;
using mapping::allocate_tiles;
using mapping::tile_shared_remap;

std::vector<Tile> make_tiles(const std::vector<std::int64_t>& empties,
                             CrossbarShape shape = {32, 32}) {
  std::vector<Tile> tiles;
  for (std::size_t i = 0; i < empties.size(); ++i) {
    Tile t;
    t.id = static_cast<std::int64_t>(i);
    t.shape = shape;
    t.empty_xbs = empties[i];
    t.layer_ids = {static_cast<std::int64_t>(i)};
    tiles.push_back(std::move(t));
  }
  return tiles;
}

std::vector<Tile*> pointers(std::vector<Tile>& tiles) {
  std::vector<Tile*> ptrs;
  for (auto& t : tiles) ptrs.push_back(&t);
  return ptrs;
}

// ---- Algorithm 1 unit behaviour ----

TEST(TileSharedRemap, Fig8Example) {
  // Fig. 8: three layers, each fitting one tile of four 32x32 crossbars.
  // L1 uses 2 XBs, L2 and L3 use 1 XB each -> everything fits in tile 1.
  std::vector<Tile> tiles = make_tiles({2, 3, 3});
  auto ptrs = pointers(tiles);
  const CombMap comb = tile_shared_remap(ptrs, 4);

  // Tiles 2 and 3 are drained into tile 1 (id 0).
  ASSERT_EQ(comb.size(), 1u);
  ASSERT_TRUE(comb.contains(0));
  EXPECT_EQ(comb.at(0).size(), 2u);
  EXPECT_EQ(tiles[0].empty_xbs, 0);  // 2 empty - 1 - 1 = 0: tile full
  EXPECT_TRUE(tiles[1].released);
  EXPECT_TRUE(tiles[2].released);
  // The receiving tile now lists all three layers.
  EXPECT_EQ(tiles[0].layer_ids.size(), 3u);
}

TEST(TileSharedRemap, NoMergeWhenNothingFits) {
  // Two nearly-full tiles cannot host each other's contents.
  std::vector<Tile> tiles = make_tiles({1, 1});
  auto ptrs = pointers(tiles);
  const CombMap comb = tile_shared_remap(ptrs, 4);
  EXPECT_TRUE(comb.empty());
  EXPECT_FALSE(tiles[0].released);
  EXPECT_FALSE(tiles[1].released);
}

TEST(TileSharedRemap, OccupiedCrossbarsAreConserved) {
  // Property: total occupied crossbars before == after, for many patterns.
  const std::int64_t xbs = 8;
  const std::vector<std::vector<std::int64_t>> patterns = {
      {0, 1, 2, 3, 4, 5, 6, 7},
      {7, 7, 7, 7},
      {1, 7, 2, 6, 3, 5, 4},
      {0, 0, 0},
      {5},
      {4, 4, 4, 4, 4, 4},
  };
  for (const auto& pattern : patterns) {
    std::vector<Tile> tiles = make_tiles(pattern);
    const std::int64_t occupied_before = std::accumulate(
        tiles.begin(), tiles.end(), std::int64_t{0},
        [&](std::int64_t acc, const Tile& t) {
          return acc + (xbs - t.empty_xbs);
        });
    auto ptrs = pointers(tiles);
    tile_shared_remap(ptrs, xbs);
    const std::int64_t occupied_after = std::accumulate(
        tiles.begin(), tiles.end(), std::int64_t{0},
        [&](std::int64_t acc, const Tile& t) {
          return t.released ? acc : acc + (xbs - t.empty_xbs);
        });
    EXPECT_EQ(occupied_before, occupied_after);
  }
}

TEST(TileSharedRemap, ReleasedTilesAreFullyDrained) {
  std::vector<Tile> tiles = make_tiles({1, 2, 3, 3, 3, 2});
  auto ptrs = pointers(tiles);
  tile_shared_remap(ptrs, 4);
  for (const auto& t : tiles) {
    if (t.released) {
      EXPECT_EQ(t.empty_xbs, 0);
      EXPECT_TRUE(t.layer_ids.empty());
    } else {
      EXPECT_GE(t.empty_xbs, 0);
      EXPECT_LT(t.empty_xbs, 4);
    }
  }
}

TEST(TileSharedRemap, NeverIncreasesOccupiedTiles) {
  common::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t xbs = 2 + static_cast<std::int64_t>(rng.uniform_u64(15));
    const std::size_t count = 1 + rng.uniform_u64(20);
    std::vector<std::int64_t> empties(count);
    for (auto& e : empties) e = static_cast<std::int64_t>(rng.uniform_u64(
        static_cast<std::uint64_t>(xbs)));
    std::vector<Tile> tiles = make_tiles(empties);
    auto ptrs = pointers(tiles);
    tile_shared_remap(ptrs, xbs);
    std::int64_t occupied = 0;
    for (const auto& t : tiles) occupied += t.released ? 0 : 1;
    EXPECT_LE(occupied, static_cast<std::int64_t>(count));
  }
}

TEST(TileSharedRemap, DrainingOnlyPartialTilesMatchesWholeGroup) {
  // The evaluation engine drains only each layer's partial last tile. That
  // is exact: a full tile can neither receive (0 + tail.empty >= xb_num
  // needs an all-empty tail) nor be drained into a partial one, so on real
  // allocations both inputs give the same released set and combMap.
  common::Rng rng(11);
  const auto candidates = mapping::hybrid_candidates();
  for (const auto& net : {nn::vgg16(), nn::resnet152()}) {
    const auto layers = net.mappable_layers();
    for (const std::int64_t xbs : {1, 3, 4, 8, 16}) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<CrossbarShape> shapes;
        for (std::size_t i = 0; i < layers.size(); ++i) {
          shapes.push_back(candidates[rng.uniform_u64(candidates.size())]);
        }
        const auto base = allocate_tiles(layers, shapes, xbs, false);
        std::vector<Tile> whole = base.tiles;
        std::vector<Tile> partial = base.tiles;
        std::map<std::pair<std::int64_t, std::int64_t>,
                 std::pair<std::vector<Tile*>, std::vector<Tile*>>>
            groups;
        for (std::size_t i = 0; i < whole.size(); ++i) {
          auto& [all, partials] =
              groups[{whole[i].shape.rows, whole[i].shape.cols}];
          all.push_back(&whole[i]);
          if (partial[i].empty_xbs > 0) partials.push_back(&partial[i]);
        }
        for (auto& [key, group] : groups) {
          EXPECT_EQ(tile_shared_remap(group.first, xbs),
                    tile_shared_remap(group.second, xbs))
              << net.name << " xbs=" << xbs << " trial " << trial;
        }
        EXPECT_EQ(whole, partial) << net.name << " xbs=" << xbs;
        EXPECT_EQ(whole, allocate_tiles(layers, shapes, xbs, true).tiles)
            << net.name << " xbs=" << xbs;
      }
    }
  }
}

// ---- allocate_tiles end-to-end ----

TEST(TileAllocator, TileBasedRoundsUp) {
  // A layer needing 5 logical crossbars on 4-XB tiles gets 2 tiles,
  // wasting 3/8 of the crossbars (§2.2.2 example).
  const auto layer = nn::make_conv(35, 64, 3, 1, 1, 16, 16);
  // floor(64/9)=7 kernels/row-block; ceil(35/7)=5 row blocks; 1 col block.
  const auto result =
      allocate_tiles({layer}, {{64, 64}}, 4, /*tile_shared=*/false);
  ASSERT_EQ(result.layers.size(), 1u);
  EXPECT_EQ(result.layers[0].mapping.logical_crossbars(), 5);
  EXPECT_EQ(result.layers[0].tiles_allocated, 2);
  EXPECT_EQ(result.occupied_tiles(), 2);
  EXPECT_EQ(result.empty_crossbars(), 3);
}

TEST(TileAllocator, Fig4EmptyCrossbarProportions) {
  // Fig. 4: first four VGG16 CONV layers on 64x64 crossbars. The paper
  // reports ~24% average empty crossbars at 4 XBs/tile rising to ~60% at 32.
  const auto net = nn::vgg16();
  const auto mappable = net.mappable_layers();
  const std::vector<nn::LayerSpec> first4(mappable.begin(),
                                          mappable.begin() + 4);
  const std::vector<CrossbarShape> shapes(4, CrossbarShape{64, 64});

  const auto empty_fraction = [&](std::int64_t xbs_per_tile) {
    const auto result = allocate_tiles(first4, shapes, xbs_per_tile, false);
    double total = 0.0;
    for (const auto& layer : result.layers) {
      const double allocated =
          static_cast<double>(layer.tiles_allocated * xbs_per_tile);
      const double used =
          static_cast<double>(layer.mapping.logical_crossbars());
      total += (allocated - used) / allocated;
    }
    return total / 4.0;
  };

  EXPECT_NEAR(empty_fraction(4), 0.24, 0.03);
  EXPECT_NEAR(empty_fraction(32), 0.60, 0.05);
  // Monotone in tile size.
  EXPECT_LT(empty_fraction(4), empty_fraction(8));
  EXPECT_LT(empty_fraction(8), empty_fraction(16));
  EXPECT_LT(empty_fraction(16), empty_fraction(32));
}

TEST(TileLevel, Fig5Utilization) {
  // Fig. 5 reports utilization 27/32 for XB64 and 27/128 for XB128: both are
  // tile-level numbers with 4 crossbars per tile. The 64x64 mapping fills
  // its tile exactly (4 crossbars); the 128x128 mapping uses 1 of 4.
  const auto layer = nn::make_conv(12, 128, 3, 1, 1, 16, 16);
  const auto on64 = allocate_tiles({layer}, {{64, 64}}, 4, false);
  EXPECT_NEAR(on64.system_utilization(), 27.0 / 32.0, 1e-12);
  const auto on128 = allocate_tiles({layer}, {{128, 128}}, 4, false);
  EXPECT_NEAR(on128.system_utilization(), 27.0 / 128.0, 1e-12);
}

TEST(TileAllocator, TileSharedImprovesUtilization) {
  const auto net = nn::vgg16();
  const auto mappable = net.mappable_layers();
  const std::vector<CrossbarShape> shapes(mappable.size(),
                                          CrossbarShape{64, 64});
  const auto base = allocate_tiles(mappable, shapes, 4, false);
  const auto shared = allocate_tiles(mappable, shapes, 4, true);
  EXPECT_LE(shared.occupied_tiles(), base.occupied_tiles());
  EXPECT_GE(shared.system_utilization(), base.system_utilization());
  EXPECT_EQ(shared.useful_cells(), base.useful_cells());
}

TEST(TileAllocator, SharingOnlyWithinSameShapeGroup) {
  // Two tiny layers on different shapes must not share a tile.
  const auto l1 = nn::make_conv(3, 4, 3, 1, 1, 8, 8);
  const auto l2 = nn::make_conv(3, 4, 3, 1, 1, 8, 8);
  const auto result = allocate_tiles({l1, l2}, {{32, 32}, {64, 64}}, 4, true);
  // Each layer needs 1 crossbar -> 1 tile each; shapes differ so no merge.
  EXPECT_EQ(result.occupied_tiles(), 2);
  EXPECT_TRUE(result.remap.empty());

  // Same shapes -> the tiles merge.
  const auto merged = allocate_tiles({l1, l2}, {{32, 32}, {32, 32}}, 4, true);
  EXPECT_EQ(merged.occupied_tiles(), 1);
  EXPECT_EQ(merged.remap.size(), 1u);
}

TEST(TileAllocator, SystemUtilizationAccountsEmptyCrossbars) {
  // One layer occupying exactly 1 of 4 crossbars in its tile: system
  // utilization = layer utilization / 4.
  const auto layer = nn::make_conv(3, 4, 3, 1, 1, 8, 8);
  const auto result = allocate_tiles({layer}, {{32, 32}}, 4, false);
  const double layer_util = result.layers[0].mapping.utilization();
  EXPECT_NEAR(result.system_utilization(), layer_util / 4.0, 1e-12);
}

TEST(TileAllocator, ValidatesArguments) {
  const auto layer = nn::make_conv(3, 4, 3, 1, 1, 8, 8);
  EXPECT_THROW(allocate_tiles({layer}, {{32, 32}}, 0, false),
               std::invalid_argument);
  EXPECT_THROW(allocate_tiles({layer}, {}, 4, false), std::invalid_argument);
}

class TileAllocatorParam
    : public ::testing::TestWithParam<std::tuple<std::int64_t, bool>> {};

TEST_P(TileAllocatorParam, AlexNetInvariants) {
  const auto [xbs, shared] = GetParam();
  const auto mappable = nn::alexnet().mappable_layers();
  const std::vector<CrossbarShape> shapes(mappable.size(),
                                          CrossbarShape{128, 128});
  const auto result = allocate_tiles(mappable, shapes, xbs, shared);
  // Occupied crossbars never exceed capacity of occupied tiles.
  std::int64_t needed = 0;
  for (const auto& l : result.layers) {
    needed += l.mapping.logical_crossbars();
  }
  EXPECT_EQ(result.total_logical_crossbars() - result.empty_crossbars(),
            needed);
  EXPECT_GE(result.system_utilization(), 0.0);
  EXPECT_LE(result.system_utilization(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TileAllocatorParam,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 16,
                                                              32),
                                            ::testing::Bool()));

}  // namespace
}  // namespace autohet
