// Functional model of one logical crossbar (a PE): eight 1-bit physical
// crossbar planes storing the bit planes of 8-bit signed weights, driven
// bit-serially by 1-bit DACs.
//
// Two datapaths are provided:
//   * mvm_bit_serial — the faithful hardware datapath: for every input bit
//     and every weight bit plane, a binary matrix-vector product is formed
//     on the bitlines (Ohm's law + current summation), converted by the
//     ADCs, and shift-added into the accumulator. Weight plane 7 carries the
//     two's-complement sign (contributes with weight -2^7).
//   * mvm_reference — plain int32 GEMV over the programmed weights.
// The two are bit-exact by construction; tests assert it.
//
// Fast path: the eight weight bit planes can additionally be packed into
// per-column uint64 masks (ensure_packed()), turning the bit-serial
// datapath into AND+popcount over words — the bit-level kernel style
// CIM-Explorer uses. Every MVM runs through the dispatched kernels::ops()
// table as a batch of `count` columns; a single column is a batch of one.
// The scalar per-cell datapaths they are tested against live in
// tests/oracle.hpp. Bulk program() packs eagerly, program_cell
// updates the pack incrementally, and fault burn-in repacks. Cell
// precision is a storage property of the fault model
// (FaultConfig::cell_bits), not a separate compute path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mapping/crossbar_shape.hpp"
#include "reram/faults.hpp"
#include "reram/kernels/kernels.hpp"

namespace autohet::reram {

class LogicalCrossbar {
 public:
  explicit LogicalCrossbar(mapping::CrossbarShape shape);

  const mapping::CrossbarShape& shape() const noexcept { return shape_; }
  std::int64_t rows_used() const noexcept { return rows_used_; }
  std::int64_t cols_used() const noexcept { return cols_used_; }

  /// Programs a rows_used × cols_used weight block (row-major) into the
  /// top-left corner of the array; the rest of the cells stay zero
  /// (the wasted cells of Fig. 2 / Fig. 7). Rebuilds the packed bit planes
  /// eagerly so subsequent bit-serial MVMs take the fast kernel.
  void program(std::span<const std::int8_t> weights, std::int64_t rows,
               std::int64_t cols);

  /// Places a weight at an explicit (row, col) cell; used by the
  /// kernel-aligned mapper which leaves gaps inside a row block. Updates the
  /// packed planes incrementally when they exist; otherwise stays unpacked
  /// (pack later with ensure_packed() only if the bit-serial datapath is
  /// wanted — the integer datapath never needs the planes).
  void program_cell(std::int64_t row, std::int64_t col, std::int8_t value);

  /// Builds the packed uint64 bit planes from the current cells. Idempotent;
  /// called automatically by program(). Costs one pass over the array.
  void ensure_packed();
  bool is_packed() const noexcept { return !packed_.empty(); }

  /// The full shape.rows × shape.cols cell array, row-major.
  std::span<const std::int8_t> cells() const noexcept { return cells_; }

  /// Bit-serial MVM over the used region: the batched AND+popcount kernel
  /// with count = 1. `input` must have rows_used() entries. Returns one
  /// int32 accumulation per used column. Requires is_packed() (checked).
  std::vector<std::int32_t> mvm_bit_serial(
      std::span<const std::uint8_t> input) const;

  /// Direct integer reference MVM (identical results, no bit slicing): the
  /// batched integer kernel with count = 1.
  std::vector<std::int32_t> mvm_reference(
      std::span<const std::uint8_t> input) const;

  /// Batched reference accumulate over `count` input columns in transposed
  /// layout: inputs_t is rows_used × count row-major (input row i for all
  /// columns at inputs_t[i·count ..]), acc_t is cols_used × count (output
  /// col j for all columns at acc_t[j·count ..]). The innermost loop runs
  /// contiguously over the batch dimension, so it vectorizes regardless of
  /// how narrow the crossbar is. Integer sums are exact and reassociate
  /// freely — results are bit-identical to `count` separate mvm_reference
  /// calls (zero weights/activations contribute exactly zero, so skipping
  /// them never changes a sum). Accumulates on top of acc_t.
  void mvm_reference_batch_accum(const std::uint8_t* inputs_t,
                                 std::int64_t count,
                                 std::int32_t* acc_t) const;
  /// Batched packed MVMs over `count` input columns in the same transposed
  /// layout as mvm_reference_batch_accum (inputs_t rows_used × count,
  /// acc_t cols_used × count). All `count` samples' input planes are packed
  /// once and run through a single kernel dispatch, so the indirect-call and
  /// weight-plane traffic amortize over the batch. Requires is_packed();
  /// bit-identical to `count` separate mvm_bit_serial calls.
  /// `scratch` is caller-owned kernel scratch (packed input planes), grown
  /// as needed — pass a per-thread instance to stay allocation-free.
  void mvm_bit_serial_batch_accum(const std::uint8_t* inputs_t,
                                  std::int64_t count, std::int32_t* acc_t,
                                  kernels::KernelScratch& scratch) const;

  /// Burns `faults` (stuck-at maps and programming variation — see
  /// reram/faults.hpp) into the programmed rows_used × cols_used cells,
  /// keyed by `key`: FaultModel::burn. The empty cells outside that block
  /// are never read, so they never burn. Repacks when packed and a cell
  /// moved; an ideal model touches nothing.
  FaultMapStats burn(const FaultModel& faults, const BurnKey& key);

 private:
  void repack();
  mapping::CrossbarShape shape_;
  std::int64_t rows_used_ = 0;
  std::int64_t cols_used_ = 0;
  std::vector<std::int8_t> cells_;  // full r×c array, row-major
  /// Packed weight bit planes, [bit][col][word] with words covering all
  /// shape_.rows wordlines; empty = not packed (integer datapath only).
  std::vector<std::uint64_t> packed_;
  std::int64_t packed_words_ = 0;  ///< ceil(shape_.rows / 64)
};

}  // namespace autohet::reram
