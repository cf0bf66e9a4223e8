// Dispatching kernel backend for the packed bit-plane crossbar primitives.
//
// The functional simulator's hot loops — the bit-serial AND+popcount MVM
// over packed uint64 bit planes and the batched integer GEMM over raw
// cells, one per DatapathMode — are implemented once per ISA variant behind
// one table of function pointers (the ggml idiom: each variant lives in its
// own translation unit compiled with that ISA's flags, and the best
// supported variant is selected by CPUID at startup). Three variants exist:
//
//   portable — plain C++ word loops, compiled with the project's baseline
//              flags; always available and the equivalence baseline.
//   avx2     — 256-bit lanes, popcount via the nibble-LUT (vpshufb) +
//              psadbw byte-sum technique, and the register-tiled vpmaddwd
//              integer GEMM; requires AVX2.
//   avx512   — 512-bit lanes with the VPOPCNTDQ instruction and the
//              register-tiled vpmaddwd integer GEMM; requires AVX-512
//              F/BW/VL/VPOPCNTDQ.
//
// Every op is integer-exact, so all variants produce bit-identical results
// on identical inputs — the scalar-reference oracle and the byte-identical
// Monte-Carlo report gates hold for every variant (tested per variant in
// tests/test_kernels.cpp).
//
// Selection (common::KernelDispatch): the best supported variant wins at
// first use; AUTOHET_KERNEL or a driver's --kernel option forces one by name,
// and an unknown or unsupported name is a hard error. The active variant is
// exported as the `autohet_kernel_dispatch` gauge.
//
// Data layouts (all strides in uint64 words unless noted):
//   * weight planes: planes[(wb * cols + j) * words + w] — bit plane wb of
//     column j over the crossbar's programmed rows; bits past the last row
//     of the last word are zero.
//   * cells: cells[i * cols + j] — the programmed block, row-major, int8.
//   * packed inputs: xbits[(s * 8 + xb) * words + w] — 8 contiguous input
//     bit planes per sample; a single sample (count == 1) is the classic
//     xbits[xb * words + w] layout.
//   * accumulators: acc_t[j * count + s] — transposed, batch innermost, so
//     the batch dimension vectorizes even on narrow crossbars. All ops
//     accumulate (+=) on top of the caller's contents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/kernel_variant.hpp"

namespace autohet::reram::kernels {

using Variant = common::KernelVariant;

/// The per-variant kernel table. The MVM ops accumulate into acc_t in the
/// transposed [col][sample] layout documented above and are integer-exact,
/// so results are bit-identical across variants.
struct Ops {
  const char* name = nullptr;

  /// Packed bit-serial MVM of `count` samples against `cols` columns:
  ///   acc_t[j*count+s] += Σ_wb sign(wb)·2^wb · Σ_xb 2^xb ·
  ///                       popcount(xbits[s,xb] & planes[wb,j])
  /// where sign(7) = -1 (two's-complement sign plane).
  void (*bit_serial_mvm)(const std::uint64_t* planes, std::int64_t cols,
                         std::int64_t words, const std::uint64_t* xbits,
                         std::int64_t count, std::int32_t* acc_t) = nullptr;

  /// Batched integer GEMM over the raw cells:
  ///   acc_t[j*count+s] += cells[i*cols+j] · inputs_t[i*count+s]
  /// The samples that fill whole vectors run in register tiles (a block of
  /// columns × sample vectors of accumulators carried across every row,
  /// multiplied with vpmaddwd on the SIMD variants); the remaining samples
  /// run row-oriented per sample and skip zero activations (see
  /// kernel_ops.inl). Every order sums exact integers.
  void (*reference_batch)(const std::int8_t* cells, std::int64_t rows,
                          std::int64_t cols, const std::uint8_t* inputs_t,
                          std::int64_t count, std::int32_t* acc_t) = nullptr;
};

// This table's dispatch, a common::KernelDispatch (see there for the
// first-use resolution and the hard errors) over the variant tables below.
const Ops& ops();                           ///< the active table
Variant active_variant();                   ///< the variant ops() serves
bool supported(Variant v);                  ///< compiled in + CPU runs it
std::vector<Variant> supported_variants();  ///< portable first
void set_variant(Variant v);                ///< hard error if unsupported

inline const char* variant_name(Variant v) {
  return common::kernel_variant_name(v);
}

/// Caller-owned scratch for the packed/batched kernel paths: one object
/// holds every buffer the bit-serial and batched datapaths need, so call
/// sites stop hand-rolling per-purpose vectors. Buffers grow
/// monotonically and are never shrunk; contents are unspecified on return
/// (the pack/compute routines overwrite what they use). Keep one instance
/// per thread (thread_local at the call sites) for allocation-free loops.
class KernelScratch {
 public:
  /// Packed input bit planes: 8·words uint64 per sample.
  std::uint64_t* input_planes(std::size_t words) {
    return grown(planes_, words);
  }
  /// Transposed input tile (rows × count bytes, batch innermost).
  std::uint8_t* columns_t(std::size_t n) { return grown(columns_t_, n); }
  /// Transposed accumulator tile (cols × count int32).
  std::int32_t* accs_t(std::size_t n) { return grown(accs_t_, n); }

 private:
  template <typename T>
  static T* grown(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
    return v.data();
  }
  std::vector<std::uint64_t> planes_;
  std::vector<std::uint8_t> columns_t_;
  std::vector<std::int32_t> accs_t_;
};

namespace detail {
// Variant tables, defined one per translation unit (so each can be compiled
// with its own ISA flags). A variant that is not compiled in leaves its
// function pointers null.
extern const Ops kPortableOps;
extern const Ops kAvx2Ops;
extern const Ops kAvx512Ops;
}  // namespace detail

}  // namespace autohet::reram::kernels
