// Runtime dispatch of the RL dense kernel table: its variant list and CPUID
// rule on common::KernelDispatch.
#include "rl/kernels/dense.hpp"

namespace autohet::rl::kernels {
namespace {

bool cpu_supports([[maybe_unused]] Variant v) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (v == Variant::kAvx2) return __builtin_cpu_supports("avx2") != 0;
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

constinit common::KernelDispatch<Ops> g_dispatch(
    "rl", {&detail::kPortableOps, &detail::kAvx2Ops, &detail::kAvx512Ops},
    [](const Ops& t) { return t.gemm_acc != nullptr; }, cpu_supports);

}  // namespace

const Ops& ops() { return g_dispatch.ops(); }
Variant active_variant() { return g_dispatch.active_variant(); }
bool supported(Variant v) { return g_dispatch.supported(v); }
std::vector<Variant> supported_variants() {
  return g_dispatch.supported_variants();
}
void set_variant(Variant v) { g_dispatch.set_variant(v); }

}  // namespace autohet::rl::kernels
