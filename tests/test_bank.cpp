#include <gtest/gtest.h>

#include "nn/model_zoo.hpp"
#include "reram/bank.hpp"

namespace autohet {
namespace {

using mapping::Tile;
using reram::BankSpec;
using reram::ChipSpec;
using reram::place_tiles;
using reram::tile_distance;
using reram::TilePlacement;

std::vector<Tile> tiles_n(int n, bool release_every_other = false) {
  std::vector<Tile> tiles(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    tiles[static_cast<std::size_t>(i)].id = i;
    tiles[static_cast<std::size_t>(i)].shape = {64, 64};
    if (release_every_other && i % 2 == 1) {
      tiles[static_cast<std::size_t>(i)].released = true;
    }
  }
  return tiles;
}

TEST(Bank, SpecDefaultsMatchPaper) {
  // §4.1: each bank contains 256x256 tiles.
  const BankSpec bank;
  EXPECT_EQ(bank.tiles(), 256 * 256);
}

TEST(Bank, PlacementIsRowMajor) {
  ChipSpec chip;
  chip.banks = 2;
  chip.bank.tile_rows = 2;
  chip.bank.tile_cols = 3;
  const auto result = place_tiles(tiles_n(7), chip);
  ASSERT_EQ(result.placements.size(), 7u);
  EXPECT_EQ(result.placements[0].bank, 0);
  EXPECT_EQ(result.placements[0].row, 0);
  EXPECT_EQ(result.placements[0].col, 0);
  EXPECT_EQ(result.placements[2].col, 2);
  EXPECT_EQ(result.placements[3].row, 1);
  EXPECT_EQ(result.placements[3].col, 0);
  // Seventh tile spills into bank 1.
  EXPECT_EQ(result.placements[6].bank, 1);
  EXPECT_EQ(result.placements[6].row, 0);
  EXPECT_EQ(result.banks_used, 2);
}

TEST(Bank, ReleasedTilesAreNotPlaced) {
  ChipSpec chip;
  chip.bank.tile_rows = 4;
  chip.bank.tile_cols = 4;
  const auto result = place_tiles(tiles_n(8, /*release_every_other=*/true),
                                  chip);
  EXPECT_EQ(result.tiles_placed, 4);
  for (const auto& p : result.placements) {
    EXPECT_EQ(p.tile_id % 2, 0);
  }
}

TEST(Bank, CapacityExhaustionThrows) {
  ChipSpec chip;
  chip.banks = 1;
  chip.bank.tile_rows = 2;
  chip.bank.tile_cols = 2;
  EXPECT_NO_THROW(place_tiles(tiles_n(4), chip));
  EXPECT_THROW(place_tiles(tiles_n(5), chip), std::invalid_argument);
}

TEST(Bank, OccupancyAndFreeTiles) {
  ChipSpec chip;
  chip.banks = 1;
  chip.bank.tile_rows = 4;
  chip.bank.tile_cols = 4;
  const auto result = place_tiles(tiles_n(4), chip);
  EXPECT_DOUBLE_EQ(result.chip_occupancy, 0.25);
  EXPECT_EQ(result.free_tiles, 12);
}

TEST(Bank, EmptyPlacement) {
  const ChipSpec chip;
  const auto result = place_tiles({}, chip);
  EXPECT_EQ(result.tiles_placed, 0);
  EXPECT_EQ(result.banks_used, 0);
  EXPECT_DOUBLE_EQ(result.chip_occupancy, 0.0);
}

TEST(Bank, WholePaperWorkloadFitsOneBank) {
  // Even the largest paper workload mapped onto the smallest crossbars fits
  // within one 256x256-tile bank with room to spare.
  const auto layers = nn::resnet152().mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(layers.size(), {32, 32});
  const auto allocation = mapping::allocate_tiles(layers, shapes, 4, false);
  const ChipSpec chip;  // 4 banks of 256x256
  const auto placement = place_tiles(allocation.tiles, chip);
  EXPECT_EQ(placement.banks_used, 1);
  EXPECT_LT(placement.chip_occupancy, 0.25);
}

TEST(Bank, TileDistanceManhattan) {
  const TilePlacement a{0, 0, 1, 2};
  const TilePlacement b{1, 0, 4, 6};
  EXPECT_EQ(tile_distance(a, b), 3 + 4);
  EXPECT_EQ(tile_distance(a, a), 0);
}

TEST(Bank, TileDistanceInterBankPenalty) {
  const TilePlacement a{0, 0, 0, 0};
  const TilePlacement b{1, 2, 0, 0};
  EXPECT_EQ(tile_distance(a, b, 64), 2 * 64);
  EXPECT_EQ(tile_distance(a, b, 10), 20);
}

TEST(Bank, SpecValidation) {
  ChipSpec chip;
  chip.banks = 0;
  EXPECT_THROW(chip.validate(), std::invalid_argument);
  chip.banks = 1;
  chip.bank.tile_rows = 0;
  EXPECT_THROW(chip.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace autohet
