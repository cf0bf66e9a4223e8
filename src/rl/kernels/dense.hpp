// Dispatching kernel backend for the DDPG update's dense double math.
//
// The actor/critic update is a handful of small dense GEMMs (batch 64,
// widths 10/11 → 64 → 64 → 1), one Adam step per network and two target
// soft updates. Those three loops live behind one table of function
// pointers, implemented once per ISA variant in its own translation unit
// compiled with that ISA's flags (the idiom of reram/kernels), with the
// best supported variant picked by CPUID at first use:
//
//   portable — the reference: a 4×16 tile of 64-byte vector-extension
//              registers, compiled with the project's baseline flags.
//   avx2     — a 4×8 tile of 256-bit registers (8 accumulators; the 4×16
//              tile would need all 16 ymm registers for accumulators alone).
//              Requires AVX2.
//   avx512   — an 8×16 tile of 512-bit registers (16 accumulators of the
//              32 zmm registers) with masked loads for ragged column tails.
//              Requires AVX-512F.
//
// Bit-identity contract: every variant unit is compiled with
// -ffp-contract=off, so every output element is an IEEE multiply followed
// by an IEEE add, accumulated in ascending k from the caller's C value —
// the order of the per-sample scalar path. Adam and the soft update are
// elementwise IEEE expressions in the same order as the scalar code. All
// variants therefore return the same bits on the same inputs, and a DDPG
// trajectory does not depend on which variant ran it.
//
// Selection: AUTOHET_KERNEL (or a binary's --kernel flag) forces a variant
// by name, shared with reram::kernels; forcing an unknown or unsupported
// variant is a hard error. The two tables resolve independently, so a
// binary that never runs an update never consults this one.
#pragma once

#include <cstddef>
#include <vector>

#include "common/kernel_variant.hpp"

namespace autohet::rl::kernels {

using Variant = common::KernelVariant;

inline constexpr int kVariantCount = common::kKernelVariantCount;

/// Adam's per-step scalars; bc1/bc2 are the bias corrections 1 - β^t.
struct AdamCoeffs {
  double lr;
  double beta1;
  double beta2;
  double epsilon;
  double bc1;
  double bc2;
};

struct Ops {
  /// C[m][n] += Σ_k A[m*sam + k*sak] · B[k*ldb + n], k ascending. The A
  /// strides cover X·Wᵀ (forward), Dᵀ·X (weight gradients) and D·W (input
  /// gradients) without materializing a transpose.
  void (*gemm_acc)(std::size_t M, std::size_t K, std::size_t N,
                   const double* A, std::size_t sam, std::size_t sak,
                   const double* B, std::size_t ldb, double* C,
                   std::size_t ldc) = nullptr;

  /// One Adam step over n parameters:
  ///   m = β1·m + (1-β1)·g;  v = β2·v + (1-β2)·g·g;
  ///   p -= lr·(m/bc1) / (sqrt(v/bc2) + ε)
  void (*adam_step)(double* params, const double* grads, double* m,
                    double* v, std::size_t n, const AdamCoeffs& c) = nullptr;

  /// dst = τ·src + (1-τ)·dst over n elements.
  void (*soft_update)(double* dst, const double* src, std::size_t n,
                      double tau) = nullptr;
};

/// The active table. The first call resolves the AUTOHET_KERNEL override
/// (hard error on an unknown or unsupported name) or picks the best
/// CPUID-supported variant.
const Ops& ops();

/// The variant ops() currently dispatches to.
Variant active_variant();

/// True when `v` is compiled in *and* the host CPU supports it.
bool supported(Variant v);

/// Every supported variant, portable first.
std::vector<Variant> supported_variants();

/// Forces the active variant. Hard error (AUTOHET_CHECK) when unsupported.
void set_variant(Variant v);

inline const char* variant_name(Variant v) {
  return common::kernel_variant_name(v);
}

/// Applies a `--kernel <name>` / `--kernel=<name>` override found anywhere
/// on a raw argv. Hard error on unknown/unsupported names; no-op when absent.
void apply_argv_override(int argc, const char* const* argv);

namespace detail {
// One table per translation unit; a variant that is not compiled in leaves
// its function pointers null and dispatch skips it.
extern const Ops kPortableOps;
extern const Ops kAvx2Ops;
extern const Ops kAvx512Ops;
}  // namespace detail

}  // namespace autohet::rl::kernels
