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
    : shape_(shape),
      cells_(static_cast<std::size_t>(shape.cells()), 0),
      packed_words_((shape.rows + 63) / 64) {
  AUTOHET_CHECK(shape.rows > 0 && shape.cols > 0, "invalid crossbar shape");
}

void LogicalCrossbar::program(std::span<const std::int8_t> weights,
                              std::int64_t rows, std::int64_t cols) {
  AUTOHET_CHECK(rows >= 0 && rows <= shape_.rows, "rows exceed crossbar");
  AUTOHET_CHECK(cols >= 0 && cols <= shape_.cols, "cols exceed crossbar");
  AUTOHET_CHECK(static_cast<std::int64_t>(weights.size()) == rows * cols,
                "weight block size mismatch");
  std::fill(cells_.begin(), cells_.end(), static_cast<std::int8_t>(0));
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      cells_[static_cast<std::size_t>(i * shape_.cols + j)] =
          weights[static_cast<std::size_t>(i * cols + j)];
    }
  }
  rows_used_ = rows;
  cols_used_ = cols;
  repack();
}

void LogicalCrossbar::program_cell(std::int64_t row, std::int64_t col,
                                   std::int8_t value) {
  AUTOHET_CHECK(row >= 0 && row < shape_.rows && col >= 0 && col < shape_.cols,
                "cell index out of range");
  cells_[static_cast<std::size_t>(row * shape_.cols + col)] = value;
  rows_used_ = std::max(rows_used_, row + 1);
  cols_used_ = std::max(cols_used_, col + 1);
  if (!packed_.empty()) {
    const auto bits = static_cast<std::uint8_t>(value);
    const std::uint64_t bit = std::uint64_t{1} << (row & 63);
    const std::int64_t word = row >> 6;
    for (int wb = 0; wb < 8; ++wb) {
      std::uint64_t& w = packed_[static_cast<std::size_t>(
          (wb * shape_.cols + col) * packed_words_ + word)];
      if ((bits >> wb) & 1u) {
        w |= bit;
      } else {
        w &= ~bit;
      }
    }
  }
}

void LogicalCrossbar::ensure_packed() {
  if (packed_.empty()) repack();
}

void LogicalCrossbar::repack() {
  packed_.assign(static_cast<std::size_t>(8 * shape_.cols * packed_words_), 0);
  // All shape_.rows wordlines are packed (fault burn-in can set cells outside
  // the used region); the kernels' input masks zero everything past
  // rows_used, so stray bits beyond the used rows never contribute.
  for (std::int64_t r = 0; r < shape_.rows; ++r) {
    const std::int8_t* row = cells_.data() + r * shape_.cols;
    const std::uint64_t bit = std::uint64_t{1} << (r & 63);
    const std::int64_t word = r >> 6;
    for (std::int64_t j = 0; j < shape_.cols; ++j) {
      const auto bits = static_cast<std::uint8_t>(row[j]);
      if (bits == 0) continue;
      for (int wb = 0; wb < 8; ++wb) {
        if ((bits >> wb) & 1u) {
          packed_[static_cast<std::size_t>(
              (wb * shape_.cols + j) * packed_words_ + word)] |= bit;
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

void LogicalCrossbar::burn_clones(const FaultModel& model,
                                  std::uint64_t crossbar_id,
                                  std::span<LogicalCrossbar* const> clones,
                                  std::span<BurnTarget> burns) {
  AUTOHET_CHECK(clones.size() == burns.size(), "one burn per clone required");
  if (clones.empty()) return;
  const mapping::CrossbarShape shape = clones.front()->shape_;
  for (std::size_t i = 0; i < clones.size(); ++i) {
    AUTOHET_CHECK(clones[i]->shape_ == shape,
                  "burn clones must share one crossbar shape");
    burns[i].cells = clones[i]->cells_;
  }
  model.burn(burns, shape.rows, shape.cols, shape.cols, crossbar_id);
  const bool moved = burns.front().hits != nullptr || !model.ideal();
  for (LogicalCrossbar* xb : clones) {
    if (!xb->packed_.empty() && moved) xb->repack();
  }
}

FaultMapStats LogicalCrossbar::replay_stuck_faults(
    const FaultModel& model, std::span<const StuckCandidate> hits,
    const StuckBucketEnds& bucket_ends) {
  const FaultMapStats delta =
      model.replay_stuck(cells_, shape_.cols, shape_.cols, hits, bucket_ends);
  if (!packed_.empty() && (delta.stuck_at_zero || delta.stuck_at_one)) {
    repack();
  }
  return delta;
}

void LogicalCrossbar::mvm_reference_batch_accum(const std::uint8_t* inputs_t,
                                                std::int64_t count,
                                                std::int32_t* acc_t) const {
  kernels::ops().reference_batch(cells_.data(), shape_.cols, rows_used_,
                                 cols_used_, inputs_t, count, acc_t);
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
  kernels::ops().bit_serial_mvm(packed_.data(), shape_.cols, packed_words_,
                                cols_used_, words, xbits, count, acc_t);
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
