#include "reram/crossbar.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "reram/kernels/kernels.hpp"

namespace autohet::reram {

namespace {

/// Packs the 8 input bit planes of one sample into xbits[xb * words + w]
/// (bit i of plane xb = bit xb of input[i * stride]). `stride` is the
/// element distance between consecutive rows of this sample: 1 for a
/// contiguous input vector, `count` for one column of a transposed
/// rows × count batch.
void pack_planes(const std::uint8_t* input, std::int64_t rows,
                 std::int64_t stride, std::int64_t words,
                 std::uint64_t* xbits) {
  std::fill_n(xbits, static_cast<std::size_t>(8 * words), std::uint64_t{0});
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::uint8_t x = input[i * stride];
    if (x == 0) continue;
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    const std::int64_t word = i >> 6;
    for (int xb = 0; xb < 8; ++xb) {
      if ((x >> xb) & 1u) xbits[xb * words + word] |= bit;
    }
  }
}

}  // namespace

LogicalCrossbar::LogicalCrossbar(mapping::CrossbarShape shape)
    : shape_(shape) {
  AUTOHET_CHECK(shape.rows > 0 && shape.cols > 0, "invalid crossbar shape");
}

void LogicalCrossbar::program(std::span<const std::int8_t> weights,
                              std::int64_t rows, std::int64_t cols) {
  AUTOHET_CHECK(rows > 0 && rows <= shape_.rows, "rows exceed crossbar");
  AUTOHET_CHECK(cols > 0 && cols <= shape_.cols, "cols exceed crossbar");
  AUTOHET_CHECK(static_cast<std::int64_t>(weights.size()) == rows * cols,
                "weight block size mismatch");
  cells_.assign(weights.begin(), weights.end());
  rows_used_ = rows;
  cols_used_ = cols;
  packed_.clear();
}

void LogicalCrossbar::ensure_packed() {
  if (packed_.empty()) repack();
}

void LogicalCrossbar::repack() {
  const std::int64_t words = (rows_used_ + 63) / 64;
  packed_.assign(static_cast<std::size_t>(8 * cols_used_ * words), 0);
  for (std::int64_t r = 0; r < rows_used_; ++r) {
    const std::int8_t* row = cells_.data() + r * cols_used_;
    const std::uint64_t bit = std::uint64_t{1} << (r & 63);
    const std::int64_t word = r >> 6;
    for (std::int64_t j = 0; j < cols_used_; ++j) {
      const auto bits = static_cast<std::uint8_t>(row[j]);
      if (bits == 0) continue;
      for (int wb = 0; wb < 8; ++wb) {
        if ((bits >> wb) & 1u) {
          packed_[static_cast<std::size_t>((wb * cols_used_ + j) * words +
                                           word)] |= bit;
        }
      }
    }
  }
}

std::vector<std::int32_t> LogicalCrossbar::mvm_bit_serial(
    std::span<const std::uint8_t> input) const {
  AUTOHET_CHECK(is_packed(),
                "bit-serial MVM requires packed planes (ensure_packed())");
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == rows_used_,
                "input length must equal rows_used");
  std::vector<std::int32_t> acc(static_cast<std::size_t>(cols_used_), 0);
  thread_local kernels::KernelScratch scratch;
  mvm_bit_serial_batch_accum(input.data(), 1, acc.data(), scratch);
  return acc;
}

FaultMapStats LogicalCrossbar::burn(const FaultModel& faults,
                                    const BurnKey& key) {
  const FaultMapStats stats =
      faults.burn(cells_, rows_used_, cols_used_, key);
  if (!packed_.empty() && stats.weights_changed > 0) repack();
  return stats;
}

void LogicalCrossbar::mvm_reference_batch_accum(const std::uint8_t* inputs_t,
                                                std::int64_t count,
                                                std::int32_t* acc_t) const {
  kernels::ops().reference_batch(cells_.data(), rows_used_, cols_used_,
                                 inputs_t, count, acc_t);
  OBS_COUNTER_ADD("autohet_kernel_reference_macs_total",
                  rows_used_ * cols_used_ * count);
}

void LogicalCrossbar::mvm_bit_serial_batch_accum(
    const std::uint8_t* inputs_t, std::int64_t count, std::int32_t* acc_t,
    kernels::KernelScratch& scratch) const {
  AUTOHET_CHECK(is_packed(), "batched packed MVM requires packed planes");
  const std::int64_t words = (rows_used_ + 63) / 64;
  std::uint64_t* xbits =
      scratch.input_planes(static_cast<std::size_t>(count * 8 * words));
  for (std::int64_t s = 0; s < count; ++s) {
    pack_planes(inputs_t + s, rows_used_, count, words, xbits + s * 8 * words);
  }
  kernels::ops().bit_serial_mvm(packed_.data(), cols_used_, words, xbits,
                                count, acc_t);
  OBS_COUNTER_ADD("autohet_kernel_bit_serial_words_total",
                  64 * cols_used_ * words * count);
}

std::vector<std::int32_t> LogicalCrossbar::mvm_reference(
    std::span<const std::uint8_t> input) const {
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == rows_used_,
                "input length must equal rows_used");
  std::vector<std::int32_t> acc(static_cast<std::size_t>(cols_used_), 0);
  mvm_reference_batch_accum(input.data(), 1, acc.data());
  return acc;
}

}  // namespace autohet::reram
