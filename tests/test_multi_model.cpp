// Multi-model co-residency: several DNNs on one accelerator with per-model
// or cross-model tile sharing (the "other models" benefit of §3.4).
#include <gtest/gtest.h>

#include "mapping/tile_allocator.hpp"
#include "nn/model_zoo.hpp"

namespace autohet {
namespace {

using mapping::allocate_tiles;
using mapping::AllocationResult;
using mapping::CrossbarShape;
using mapping::kModelStride;
using mapping::ResidentModel;
using mapping::SharingScope;

ResidentModel resident(const nn::NetworkSpec& net, CrossbarShape shape) {
  ResidentModel m;
  m.name = net.name;
  m.layers = net.mappable_layers();
  m.shapes.assign(m.layers.size(), shape);
  return m;
}

std::int64_t released_tiles(const AllocationResult& result) {
  return static_cast<std::int64_t>(result.tiles.size()) -
         result.occupied_tiles();
}

TEST(MultiModel, SingleModelMatchesTileAllocator) {
  const auto net = nn::alexnet();
  const std::vector<ResidentModel> models = {resident(net, {128, 128})};
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          CrossbarShape{128, 128});
  for (const SharingScope scope :
       {SharingScope::kNone, SharingScope::kPerModel,
        SharingScope::kCrossModel}) {
    const AllocationResult ref =
        allocate_tiles(net.mappable_layers(), shapes, 4,
                       /*tile_shared=*/scope != SharingScope::kNone);
    EXPECT_EQ(allocate_tiles(models, 4, scope), ref)
        << static_cast<int>(scope);
  }
}

TEST(MultiModel, CrossModelSharingNeverWorseThanPerModel) {
  const std::vector<ResidentModel> models = {
      resident(nn::alexnet(), {128, 128}),
      resident(nn::lenet5(), {128, 128}),
      resident(nn::vgg16(), {128, 128}),
  };
  const auto none = allocate_tiles(models, 4, SharingScope::kNone);
  const auto per = allocate_tiles(models, 4, SharingScope::kPerModel);
  const auto cross = allocate_tiles(models, 4, SharingScope::kCrossModel);
  EXPECT_LE(per.occupied_tiles(), none.occupied_tiles());
  EXPECT_LE(cross.occupied_tiles(), per.occupied_tiles());
  EXPECT_GE(cross.system_utilization(), per.system_utilization());
  // Useful cells are invariant under sharing.
  EXPECT_EQ(none.useful_cells(), cross.useful_cells());
}

TEST(MultiModel, CrossModelSharingMergesAcrossModels) {
  // Two tiny models, each leaving most of a tile empty, on the same shape:
  // cross-model sharing should co-locate them in one tile.
  nn::NetworkSpec a;
  a.name = "a";
  a.layers.push_back(nn::make_conv(3, 4, 3, 1, 1, 8, 8));  // 1 crossbar
  nn::NetworkSpec b;
  b.name = "b";
  b.layers.push_back(nn::make_conv(3, 4, 3, 1, 1, 8, 8));  // 1 crossbar
  const std::vector<ResidentModel> models = {resident(a, {32, 32}),
                                             resident(b, {32, 32})};
  const auto per = allocate_tiles(models, 4, SharingScope::kPerModel);
  EXPECT_EQ(per.occupied_tiles(), 2);  // no intra-model partner to merge with
  const auto cross = allocate_tiles(models, 4, SharingScope::kCrossModel);
  EXPECT_EQ(cross.occupied_tiles(), 1);
  EXPECT_EQ(released_tiles(cross), 1);
  // The surviving tile hosts layers of both models (ids in different
  // strides).
  const mapping::Tile* survivor = nullptr;
  for (const auto& t : cross.tiles) {
    if (!t.released) survivor = &t;
  }
  ASSERT_NE(survivor, nullptr);
  ASSERT_EQ(survivor->layer_ids.size(), 2u);
  EXPECT_NE(survivor->layer_ids[0] / kModelStride,
            survivor->layer_ids[1] / kModelStride);
}

TEST(MultiModel, DifferentShapesNeverShareAcrossModels) {
  nn::NetworkSpec a;
  a.name = "a";
  a.layers.push_back(nn::make_conv(3, 4, 3, 1, 1, 8, 8));
  nn::NetworkSpec b;
  b.name = "b";
  b.layers.push_back(nn::make_conv(3, 4, 3, 1, 1, 8, 8));
  const std::vector<ResidentModel> models = {resident(a, {32, 32}),
                                             resident(b, {64, 64})};
  const auto cross = allocate_tiles(models, 4, SharingScope::kCrossModel);
  EXPECT_EQ(cross.occupied_tiles(), 2);
  EXPECT_TRUE(cross.remap.empty());
}

TEST(MultiModel, OccupiedCrossbarsConservedAcrossScopes) {
  const std::vector<ResidentModel> models = {
      resident(nn::alexnet(), {64, 64}),
      resident(nn::lenet5(), {64, 64}),
  };
  for (const SharingScope scope :
       {SharingScope::kNone, SharingScope::kPerModel,
        SharingScope::kCrossModel}) {
    const auto result = allocate_tiles(models, 8, scope);
    std::int64_t needed = 0;
    for (const auto& l : result.layers) needed += l.mapping.logical_crossbars();
    std::int64_t held = 0;
    for (const auto& t : result.tiles) {
      if (!t.released) held += 8 - t.empty_xbs;
    }
    EXPECT_EQ(held, needed) << static_cast<int>(scope);
  }
}

TEST(MultiModel, PerModelStatsTrackTileCounts) {
  const std::vector<ResidentModel> models = {
      resident(nn::alexnet(), {256, 256}),
      resident(nn::vgg16(), {256, 256}),
  };
  const auto result = allocate_tiles(models, 4, SharingScope::kNone);
  // Each model's layers carry its index in the layer-id stride, and their
  // pre-sharing tiles are exactly what the model takes alone.
  std::int64_t sum = 0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    std::int64_t tiles = 0;
    std::size_t layers = 0;
    for (const auto& l : result.layers) {
      if (l.layer_id / kModelStride != static_cast<std::int64_t>(m)) continue;
      EXPECT_EQ(l.layer_id % kModelStride, static_cast<std::int64_t>(layers));
      tiles += l.tiles_allocated;
      ++layers;
    }
    EXPECT_EQ(layers, models[m].layers.size()) << models[m].name;
    const auto alone =
        allocate_tiles({models[m]}, 4, SharingScope::kNone).tiles.size();
    EXPECT_EQ(tiles, static_cast<std::int64_t>(alone)) << models[m].name;
    sum += tiles;
  }
  EXPECT_EQ(sum, static_cast<std::int64_t>(result.tiles.size()));
}

TEST(MultiModel, ValidatesInput) {
  const std::vector<ResidentModel> models = {resident(nn::lenet5(), {64, 64})};
  EXPECT_THROW(allocate_tiles(models, 0, SharingScope::kNone),
               std::invalid_argument);
  EXPECT_THROW(allocate_tiles(std::vector<ResidentModel>{}, 4,
                              SharingScope::kNone),
               std::invalid_argument);
  ResidentModel broken;
  broken.name = "broken";
  broken.layers.push_back(nn::make_conv(3, 4, 3, 1, 1, 8, 8));
  // shapes missing
  EXPECT_THROW(allocate_tiles({broken}, 4, SharingScope::kNone),
               std::invalid_argument);
}

}  // namespace
}  // namespace autohet
