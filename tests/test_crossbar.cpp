// The key datapath property: the bit-serial crossbar (1-bit DAC cycles ×
// 1-bit weight planes with shift-add merging) is bit-exact to the direct
// integer MVM.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"
#include "reram/crossbar.hpp"

namespace autohet {
namespace {

using reram::LogicalCrossbar;

std::vector<std::int8_t> random_weights(common::Rng& rng, std::int64_t n) {
  std::vector<std::int8_t> w(static_cast<std::size_t>(n));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return w;
}

std::vector<std::uint8_t> random_inputs(common::Rng& rng, std::int64_t n) {
  std::vector<std::uint8_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
  return x;
}

TEST(LogicalCrossbar, KnownTinyProduct) {
  LogicalCrossbar xb({4, 4});
  const std::vector<std::int8_t> w = {1, -2, 3, 4};  // 2x2
  xb.program(w, 2, 2);
  // The crossbar holds exactly the programmed block.
  EXPECT_EQ(xb.rows_used(), 2);
  EXPECT_EQ(xb.cols_used(), 2);
  EXPECT_EQ(xb.cells().size(), 4u);
  const std::vector<std::uint8_t> x = {5, 7};
  const auto ref = xb.mvm_reference(x);
  ASSERT_EQ(ref.size(), 2u);
  EXPECT_EQ(ref[0], 5 * 1 + 7 * 3);
  EXPECT_EQ(ref[1], 5 * -2 + 7 * 4);
  // program() leaves the bit planes unpacked: the bit-serial datapath
  // refuses until they are built.
  EXPECT_FALSE(xb.is_packed());
  EXPECT_THROW(xb.mvm_bit_serial(x), std::invalid_argument);
  xb.ensure_packed();
  EXPECT_EQ(xb.mvm_bit_serial(x), ref);
}

TEST(LogicalCrossbar, ExtremeValues) {
  LogicalCrossbar xb({2, 2});
  const std::vector<std::int8_t> w = {-128, 127, 127, -128};
  xb.program(w, 2, 2);
  xb.ensure_packed();
  const std::vector<std::uint8_t> x = {255, 255};
  const auto ref = xb.mvm_reference(x);
  EXPECT_EQ(ref[0], 255 * (-128) + 255 * 127);
  EXPECT_EQ(xb.mvm_bit_serial(x), ref);
}

TEST(LogicalCrossbar, ZeroInputGivesZero) {
  common::Rng rng(1);
  LogicalCrossbar xb({8, 8});
  xb.program(random_weights(rng, 64), 8, 8);
  xb.ensure_packed();
  const std::vector<std::uint8_t> x(8, 0);
  for (auto v : xb.mvm_bit_serial(x)) EXPECT_EQ(v, 0);
}

class BitSerialEquivalence
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t,
                                                 std::uint64_t>> {};

TEST_P(BitSerialEquivalence, MatchesIntegerReference) {
  const auto [rows, cols, seed] = GetParam();
  common::Rng rng(seed);
  LogicalCrossbar xb({rows, cols});
  // A block smaller than the array; the used rows straddle the 64-bit
  // word edges of the packed planes (61, 63, 64, 125, 128).
  const std::int64_t used_rows = std::max<std::int64_t>(1, rows - 3);
  const std::int64_t used_cols = std::max<std::int64_t>(1, cols - 2);
  xb.program(random_weights(rng, used_rows * used_cols), used_rows, used_cols);
  xb.ensure_packed();
  const auto x = random_inputs(rng, used_rows);
  EXPECT_EQ(xb.mvm_bit_serial(x), xb.mvm_reference(x));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BitSerialEquivalence,
    ::testing::Combine(::testing::Values(1, 4, 9, 32, 36, 64, 66, 67, 128, 131),
                       ::testing::Values(1, 5, 32),
                       ::testing::Values(11u, 22u, 33u)));

TEST(LogicalCrossbar, ValidatesProgramArguments) {
  LogicalCrossbar xb({4, 4});
  const std::vector<std::int8_t> w(25, 1);
  EXPECT_THROW(xb.program(w, 5, 5), std::invalid_argument);
  EXPECT_THROW(xb.program(std::span<const std::int8_t>(w.data(), 3), 2, 2),
               std::invalid_argument);
  EXPECT_THROW(xb.program({}, 0, 0), std::invalid_argument);
}

TEST(LogicalCrossbar, ValidatesInputLength) {
  LogicalCrossbar xb({4, 4});
  const std::vector<std::int8_t> w(4, 1);
  xb.program(w, 2, 2);
  xb.ensure_packed();
  const std::vector<std::uint8_t> wrong(3, 1);
  EXPECT_THROW(xb.mvm_bit_serial(wrong), std::invalid_argument);
  EXPECT_THROW(xb.mvm_reference(wrong), std::invalid_argument);
}

TEST(LogicalCrossbar, ReprogramOverwritesPreviousContents) {
  LogicalCrossbar xb({4, 4});
  std::vector<std::int8_t> w1(16, 3);
  xb.program(w1, 4, 4);
  xb.ensure_packed();
  std::vector<std::int8_t> w2(4, 1);
  xb.program(w2, 2, 2);  // smaller block; old cells must be cleared
  EXPECT_EQ(xb.cells().size(), 4u);
  // Reprogramming drops the old planes: no bit-serial MVM on stale bits.
  EXPECT_FALSE(xb.is_packed());
  const std::vector<std::uint8_t> x = {1, 1};
  EXPECT_THROW(xb.mvm_bit_serial(x), std::invalid_argument);
  const auto out = xb.mvm_reference(x);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 2);
  xb.ensure_packed();
  EXPECT_EQ(xb.mvm_bit_serial(x), out);
}

}  // namespace
}  // namespace autohet
