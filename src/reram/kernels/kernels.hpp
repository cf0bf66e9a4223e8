// Dispatching kernel backend for the packed bit-plane crossbar primitives.
//
// The functional simulator's hot loops — bit-serial and multilevel
// AND+popcount MVMs over packed uint64 bit planes, and the batched integer
// GEMM over raw cells — are implemented once per ISA variant behind one
// table of function pointers (the ggml idiom: each variant lives in its own
// translation unit compiled with that ISA's flags, and the best supported
// variant is selected by CPUID at startup). Three variants exist:
//
//   portable — plain C++ word loops, compiled with the project's baseline
//              flags; always available and the equivalence baseline.
//   avx2     — 256-bit lanes, popcount via the nibble-LUT (vpshufb) +
//              psadbw byte-sum technique; requires AVX2.
//   avx512   — 512-bit lanes with the VPOPCNTDQ instruction; requires
//              AVX-512 F/BW/VL/VPOPCNTDQ.
//
// Every op is integer-exact, so all variants produce bit-identical results
// on identical inputs — the scalar-reference oracle and the byte-identical
// Monte-Carlo report gates hold for every variant (tested per variant in
// tests/test_kernels.cpp).
//
// Selection: the best supported variant wins at first use. The environment
// variable AUTOHET_KERNEL (or the drivers' --kernel flag) forces a specific
// variant by name; naming an unknown or unsupported variant is a hard error
// (a forced run must never silently fall back). The active variant is
// exported as the `autohet_kernel_dispatch` gauge.
//
// Data layouts (all strides in uint64 words unless noted):
//   * weight planes: planes[(wb * plane_cols + j) * col_words + w] — bit
//     plane wb of column j; kernels read words [0, words) of each column
//     (words <= col_words; trailing words cover unused rows and are zero in
//     the input masks).
//   * packed inputs: xbits[(s * 8 + xb) * words + w] — 8 contiguous input
//     bit planes per sample; a single sample (count == 1) is the classic
//     xbits[xb * words + w] layout.
//   * accumulators: acc_t[j * count + s] — transposed, batch innermost, so
//     the batch dimension vectorizes even on narrow crossbars. All ops
//     accumulate (+=) on top of the caller's contents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/kernel_variant.hpp"

namespace autohet::reram::kernels {

using Variant = common::KernelVariant;

inline constexpr int kVariantCount = common::kKernelVariantCount;

/// The per-variant kernel table. Every op accumulates into acc_t in the
/// transposed [col][sample] layout documented above and is integer-exact:
/// results are bit-identical across variants.
struct Ops {
  const char* name = nullptr;

  /// Packed bit-serial MVM of `count` samples against `cols` columns:
  ///   acc_t[j*count+s] += Σ_wb sign(wb)·2^wb · Σ_xb 2^xb ·
  ///                       popcount(xbits[s,xb] & planes[wb,j])
  /// where sign(7) = -1 (two's-complement sign plane).
  void (*bit_serial_mvm)(const std::uint64_t* planes, std::int64_t plane_cols,
                         std::int64_t col_words, std::int64_t cols,
                         std::int64_t words, const std::uint64_t* xbits,
                         std::int64_t count, std::int32_t* acc_t) = nullptr;

  /// Packed multilevel (offset-binary) MVM: plane 7 contributes through its
  /// complement (bitline = popx - popcount), and 128·Σ input is subtracted
  /// per sample via the reference column. popx is [s*8 + xb] (per-sample
  /// input-plane popcounts), refs is [s] (128·Σ input_s).
  void (*multilevel_mvm)(const std::uint64_t* planes, std::int64_t plane_cols,
                         std::int64_t col_words, std::int64_t cols,
                         std::int64_t words, const std::uint64_t* xbits,
                         std::int64_t count, const std::int64_t* popx,
                         const std::int64_t* refs,
                         std::int32_t* acc_t) = nullptr;

  /// Batched integer GEMM over the raw cells (skip-zero weights):
  ///   acc_t[j*count+s] += cells[i*row_stride+j] · inputs_t[i*count+s]
  void (*reference_batch)(const std::int8_t* cells, std::int64_t row_stride,
                          std::int64_t rows, std::int64_t cols,
                          const std::uint8_t* inputs_t, std::int64_t count,
                          std::int32_t* acc_t) = nullptr;

  /// Plain popcount over a word run (input-plane popcounts for multilevel).
  std::int64_t (*popcount_words)(const std::uint64_t* x,
                                 std::int64_t words) = nullptr;
};

/// The active kernel table. First call resolves the AUTOHET_KERNEL override
/// (hard error on an unknown or unsupported name) or picks the best
/// CPUID-supported variant.
const Ops& ops();

/// The variant ops() currently dispatches to.
Variant active_variant();

/// True when `v` is compiled in *and* the host CPU supports it.
bool supported(Variant v);

/// Every supported variant, portable first.
std::vector<Variant> supported_variants();

/// Forces the active variant. Hard error (AUTOHET_CHECK) when unsupported —
/// a forced variant must never silently fall back.
void set_variant(Variant v);

inline const char* variant_name(Variant v) {
  return common::kernel_variant_name(v);
}

/// Parses "portable" / "avx2" / "avx512" into *out; false on unknown names.
inline bool variant_from_name(std::string_view name, Variant* out) {
  return common::kernel_variant_from_name(name, out);
}

/// Applies a `--kernel <name>` / `--kernel=<name>` override found anywhere
/// on a raw argv (the bench binaries' positional conventions predate flag
/// parsing). Hard error on unknown/unsupported names; no-op when absent.
void apply_argv_override(int argc, const char* const* argv);

/// Caller-owned scratch for the packed/batched kernel paths: one object
/// holds every buffer the bit-serial, multilevel and batched datapaths
/// need, so call sites stop hand-rolling per-purpose vectors. Buffers grow
/// monotonically and are never shrunk; contents are unspecified on return
/// (the pack/compute routines overwrite what they use). Keep one instance
/// per thread (thread_local at the call sites) for allocation-free loops.
class KernelScratch {
 public:
  /// Packed input bit planes: 8·words uint64 per sample.
  std::uint64_t* input_planes(std::size_t words) {
    return grown(planes_, words);
  }
  /// One unfolded im2col column (weight_rows bytes).
  std::uint8_t* column(std::size_t n) { return grown(column_, n); }
  /// Transposed input tile (rows × count bytes, batch innermost).
  std::uint8_t* columns_t(std::size_t n) { return grown(columns_t_, n); }
  /// Transposed accumulator tile (cols × count int32).
  std::int32_t* accs_t(std::size_t n) { return grown(accs_t_, n); }
  /// Per-sample int64 terms (multilevel popx / reference sums, row-block
  /// partials).
  std::int64_t* sample_terms(std::size_t n) { return grown(terms_, n); }

 private:
  template <typename T>
  static T* grown(std::vector<T>& v, std::size_t n) {
    if (v.size() < n) v.resize(n);
    return v.data();
  }
  std::vector<std::uint64_t> planes_;
  std::vector<std::uint8_t> column_;
  std::vector<std::uint8_t> columns_t_;
  std::vector<std::int32_t> accs_t_;
  std::vector<std::int64_t> terms_;
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
