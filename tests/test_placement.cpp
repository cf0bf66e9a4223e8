// Placement policies: snake and Hilbert locality vs row-major.
#include <gtest/gtest.h>

#include <set>

#include "nn/model_zoo.hpp"
#include "reram/bank.hpp"
#include "reram/noc.hpp"

namespace autohet {
namespace {

using reram::BankSpec;
using reram::ChipSpec;
using reram::PlacementPolicy;
using reram::place_tiles;
using reram::slot_position;

TEST(Placement, SnakeConsecutiveSlotsAreGridAdjacent) {
  BankSpec bank;
  bank.tile_rows = 5;
  bank.tile_cols = 7;
  for (std::int64_t i = 0; i + 1 < bank.tiles(); ++i) {
    const auto [r1, c1] = slot_position(bank, PlacementPolicy::kSnake, i);
    const auto [r2, c2] = slot_position(bank, PlacementPolicy::kSnake, i + 1);
    EXPECT_EQ(std::abs(r1 - r2) + std::abs(c1 - c2), 1) << "slot " << i;
  }
}

TEST(Placement, HilbertConsecutiveSlotsAreGridAdjacentOnPow2Square) {
  BankSpec bank;
  bank.tile_rows = 8;
  bank.tile_cols = 8;
  for (std::int64_t i = 0; i + 1 < bank.tiles(); ++i) {
    const auto [r1, c1] = slot_position(bank, PlacementPolicy::kHilbert, i);
    const auto [r2, c2] =
        slot_position(bank, PlacementPolicy::kHilbert, i + 1);
    EXPECT_EQ(std::abs(r1 - r2) + std::abs(c1 - c2), 1) << "slot " << i;
  }
}

TEST(Placement, EveryPolicyIsABijectionOverTheGrid) {
  BankSpec bank;
  bank.tile_rows = 6;
  bank.tile_cols = 10;
  for (const auto policy : {PlacementPolicy::kRowMajor,
                            PlacementPolicy::kSnake,
                            PlacementPolicy::kHilbert}) {
    std::set<std::pair<std::int64_t, std::int64_t>> seen;
    for (std::int64_t i = 0; i < bank.tiles(); ++i) {
      const auto pos = slot_position(bank, policy, i);
      EXPECT_GE(pos.first, 0);
      EXPECT_LT(pos.first, bank.tile_rows);
      EXPECT_GE(pos.second, 0);
      EXPECT_LT(pos.second, bank.tile_cols);
      EXPECT_TRUE(seen.insert(pos).second)
          << "duplicate position under policy " << static_cast<int>(policy);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(bank.tiles()));
  }
}

TEST(Placement, SlotPositionValidatesIndex) {
  BankSpec bank;
  bank.tile_rows = 2;
  bank.tile_cols = 2;
  EXPECT_THROW(slot_position(bank, PlacementPolicy::kRowMajor, 4),
               std::invalid_argument);
  EXPECT_THROW(slot_position(bank, PlacementPolicy::kHilbert, -1),
               std::invalid_argument);
}

TEST(Placement, LocalityPoliciesReduceNocHopsOnVgg16) {
  const auto layers = nn::vgg16().mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(layers.size(), {64, 64});
  const auto allocation = mapping::allocate_tiles(layers, shapes, 4, false);
  ChipSpec chip;  // 256x256-tile banks
  const auto hops_under = [&](PlacementPolicy policy) {
    const auto placement = place_tiles(allocation.tiles, chip, policy);
    return reram::evaluate_noc(layers, allocation, placement).mean_hops;
  };
  const double row_major = hops_under(PlacementPolicy::kRowMajor);
  const double snake = hops_under(PlacementPolicy::kSnake);
  const double hilbert = hops_under(PlacementPolicy::kHilbert);
  EXPECT_LE(snake, row_major + 1e-9);
  EXPECT_LT(hilbert, row_major);
}

TEST(Placement, PoliciesPreserveCapacityAccounting) {
  const auto layers = nn::alexnet().mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(layers.size(),
                                                   {128, 128});
  const auto allocation =
      mapping::allocate_tiles(layers, shapes, 4, true);
  ChipSpec chip;
  for (const auto policy : {PlacementPolicy::kRowMajor,
                            PlacementPolicy::kSnake,
                            PlacementPolicy::kHilbert}) {
    const auto placement = place_tiles(allocation.tiles, chip, policy);
    EXPECT_EQ(placement.tiles_placed, allocation.occupied_tiles());
    EXPECT_EQ(placement.free_tiles,
              chip.capacity_tiles() - allocation.occupied_tiles());
  }
}

}  // namespace
}  // namespace autohet
