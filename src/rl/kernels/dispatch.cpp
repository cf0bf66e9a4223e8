// Runtime dispatch of the RL dense kernels: CPUID-probed variant selection
// and the shared AUTOHET_KERNEL / --kernel overrides.
#include <atomic>
#include <mutex>
#include <string>

#include "common/error.hpp"
#include "rl/kernels/dense.hpp"

namespace autohet::rl::kernels {
namespace {

const Ops* variant_table(Variant v) {
  switch (v) {
    case Variant::kPortable:
      return &detail::kPortableOps;
    case Variant::kAvx2:
      return &detail::kAvx2Ops;
    case Variant::kAvx512:
      return &detail::kAvx512Ops;
  }
  return &detail::kPortableOps;
}

bool cpu_supports(Variant v) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  switch (v) {
    case Variant::kPortable:
      return true;
    case Variant::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Variant::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return v == Variant::kPortable;
#endif
}

std::atomic<int> g_active{-1};  // -1 = not yet resolved
std::once_flag g_init_once;

void resolve_initial() {
  if (const auto forced = common::kernel_env_override()) {
    AUTOHET_CHECK(supported(*forced),
                  std::string("AUTOHET_KERNEL: RL variant '") +
                      variant_name(*forced) +
                      "' is not supported on this host/build");
    g_active.store(static_cast<int>(*forced), std::memory_order_release);
    return;
  }
  Variant best = Variant::kPortable;
  for (const Variant v : {Variant::kAvx2, Variant::kAvx512}) {
    if (supported(v)) best = v;
  }
  g_active.store(static_cast<int>(best), std::memory_order_release);
}

}  // namespace

bool supported(Variant v) {
  return variant_table(v)->gemm_acc != nullptr && cpu_supports(v);
}

std::vector<Variant> supported_variants() {
  std::vector<Variant> out;
  for (int i = 0; i < kVariantCount; ++i) {
    if (supported(static_cast<Variant>(i))) {
      out.push_back(static_cast<Variant>(i));
    }
  }
  return out;
}

const Ops& ops() {
  std::call_once(g_init_once, resolve_initial);
  return *variant_table(
      static_cast<Variant>(g_active.load(std::memory_order_acquire)));
}

Variant active_variant() {
  std::call_once(g_init_once, resolve_initial);
  return static_cast<Variant>(g_active.load(std::memory_order_acquire));
}

void set_variant(Variant v) {
  std::call_once(g_init_once, resolve_initial);
  AUTOHET_CHECK(supported(v), std::string("RL kernel variant '") +
                                  variant_name(v) +
                                  "' is not supported on this host/build");
  g_active.store(static_cast<int>(v), std::memory_order_release);
}

void apply_argv_override(int argc, const char* const* argv) {
  if (const auto forced = common::kernel_argv_override(argc, argv)) {
    set_variant(*forced);
  }
}

}  // namespace autohet::rl::kernels
