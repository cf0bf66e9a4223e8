#include "common/kernel_variant.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.hpp"

namespace autohet::common {

const char* kernel_variant_name(KernelVariant v) {
  switch (v) {
    case KernelVariant::kPortable:
      return "portable";
    case KernelVariant::kAvx2:
      return "avx2";
    case KernelVariant::kAvx512:
      return "avx512";
  }
  return "portable";
}

bool kernel_variant_from_name(std::string_view name, KernelVariant* out) {
  for (int i = 0; i < kKernelVariantCount; ++i) {
    const auto v = static_cast<KernelVariant>(i);
    if (name == kernel_variant_name(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

std::optional<KernelVariant> kernel_env_override() {
  const char* env = std::getenv("AUTOHET_KERNEL");
  if (env == nullptr || *env == '\0') return std::nullopt;
  KernelVariant v = KernelVariant::kPortable;
  AUTOHET_CHECK(kernel_variant_from_name(env, &v),
                std::string("AUTOHET_KERNEL: unknown kernel variant '") + env +
                    "' (want portable, avx2 or avx512)");
  return v;
}

std::optional<KernelVariant> kernel_argv_override(int argc,
                                                  const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string_view value;
    if (std::strcmp(arg, "--kernel") == 0 && i + 1 < argc) {
      value = argv[i + 1];
    } else if (std::strncmp(arg, "--kernel=", 9) == 0) {
      value = arg + 9;
    } else {
      continue;
    }
    KernelVariant v = KernelVariant::kPortable;
    AUTOHET_CHECK(kernel_variant_from_name(value, &v),
                  "--kernel: unknown kernel variant '" + std::string(value) +
                      "' (want portable, avx2 or avx512)");
    return v;
  }
  return std::nullopt;
}

}  // namespace autohet::common
