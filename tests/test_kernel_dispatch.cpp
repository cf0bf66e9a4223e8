// common::KernelDispatch over a fake kernel table: first-use resolution,
// the AUTOHET_KERNEL override, forcing, and the compiled-in / CPUID rules —
// each test builds a fresh dispatcher, so first use happens inside it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/kernel_variant.hpp"

namespace autohet {
namespace {

using common::KernelDispatch;
using common::KernelVariant;

struct FakeOps {
  int id = 0;
  bool compiled = false;
};

const FakeOps kPortable{0, true};
const FakeOps kAvx2{1, true};
const FakeOps kAvx512{2, true};
const FakeOps kAvx512NotCompiled{2, false};

bool is_compiled(const FakeOps& ops) { return ops.compiled; }
bool cpu_runs_all(KernelVariant) { return true; }
bool cpu_lacks_avx512(KernelVariant v) { return v != KernelVariant::kAvx512; }

int g_activations = 0;
void count_activation(KernelVariant) { ++g_activations; }

/// Sets (or, with nullptr, unsets) AUTOHET_KERNEL for one test and restores
/// the caller's value afterwards.
class ScopedKernelEnv {
 public:
  explicit ScopedKernelEnv(const char* value) {
    if (const char* old = std::getenv("AUTOHET_KERNEL")) previous_ = old;
    if (value != nullptr) {
      ::setenv("AUTOHET_KERNEL", value, 1);
    } else {
      ::unsetenv("AUTOHET_KERNEL");
    }
  }
  ~ScopedKernelEnv() {
    if (previous_) {
      ::setenv("AUTOHET_KERNEL", previous_->c_str(), 1);
    } else {
      ::unsetenv("AUTOHET_KERNEL");
    }
  }

 private:
  std::optional<std::string> previous_;
};

TEST(KernelDispatchType, PicksBestSupportedVariantWithoutOverride) {
  const ScopedKernelEnv env(nullptr);
  KernelDispatch<FakeOps> all("fake", {&kPortable, &kAvx2, &kAvx512},
                              is_compiled, cpu_runs_all);
  EXPECT_EQ(all.ops().id, 2);
  EXPECT_EQ(all.active_variant(), KernelVariant::kAvx512);
  KernelDispatch<FakeOps> no512("fake", {&kPortable, &kAvx2, &kAvx512},
                                is_compiled, cpu_lacks_avx512);
  EXPECT_EQ(no512.ops().id, 1);
}

TEST(KernelDispatchType, EnvOverrideIsHonouredOnFirstUse) {
  const ScopedKernelEnv env("avx2");
  g_activations = 0;
  KernelDispatch<FakeOps> d("fake", {&kPortable, &kAvx2, &kAvx512},
                            is_compiled, cpu_runs_all, count_activation);
  EXPECT_EQ(g_activations, 0);  // nothing resolves before first use
  EXPECT_EQ(d.active_variant(), KernelVariant::kAvx2);
  EXPECT_EQ(d.ops().id, 1);
  EXPECT_EQ(g_activations, 1);
  d.set_variant(KernelVariant::kPortable);
  EXPECT_EQ(d.ops().id, 0);
  EXPECT_EQ(g_activations, 2);
}

TEST(KernelDispatchType, UnknownEnvNameIsAHardError) {
  const ScopedKernelEnv env("neon");
  KernelDispatch<FakeOps> d("fake", {&kPortable, &kAvx2, &kAvx512},
                            is_compiled, cpu_runs_all);
  try {
    d.ops();
    FAIL() << "AUTOHET_KERNEL=neon resolved";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown kernel variant 'neon'"),
              std::string::npos)
        << e.what();
  }
}

TEST(KernelDispatchType, ForcingAnUnsupportedVariantIsAHardError) {
  {
    const ScopedKernelEnv env("avx512");
    KernelDispatch<FakeOps> d("fake", {&kPortable, &kAvx2, &kAvx512},
                              is_compiled, cpu_lacks_avx512);
    EXPECT_THROW(d.ops(), std::invalid_argument);
  }
  const ScopedKernelEnv env(nullptr);
  KernelDispatch<FakeOps> d("fake", {&kPortable, &kAvx2, &kAvx512},
                            is_compiled, cpu_lacks_avx512);
  EXPECT_THROW(d.set_variant(KernelVariant::kAvx512), std::invalid_argument);
  EXPECT_EQ(d.active_variant(), KernelVariant::kAvx2);  // left unchanged
}

TEST(KernelDispatchType, VariantNotCompiledInIsNeverSupported) {
  const ScopedKernelEnv env(nullptr);
  KernelDispatch<FakeOps> d("fake",
                            {&kPortable, &kAvx2, &kAvx512NotCompiled},
                            is_compiled, cpu_runs_all);
  EXPECT_FALSE(d.supported(KernelVariant::kAvx512));
  EXPECT_EQ(d.active_variant(), KernelVariant::kAvx2);
  EXPECT_THROW(d.set_variant(KernelVariant::kAvx512), std::invalid_argument);
}

TEST(KernelDispatchType, SupportedVariantsListsPortableFirst) {
  KernelDispatch<FakeOps> d("fake", {&kPortable, &kAvx2, &kAvx512},
                            is_compiled, cpu_lacks_avx512);
  const std::vector<KernelVariant> variants = d.supported_variants();
  ASSERT_EQ(variants.size(), 2u);
  EXPECT_EQ(variants[0], KernelVariant::kPortable);
  EXPECT_EQ(variants[1], KernelVariant::kAvx2);
}

}  // namespace
}  // namespace autohet
