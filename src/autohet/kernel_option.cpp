#include "autohet/kernel_option.hpp"

#include "common/error.hpp"
#include "reram/kernels/kernels.hpp"
#include "rl/kernels/dense.hpp"

namespace autohet::core {

void add_kernel_option(common::ArgParser& args) {
  args.add_option("kernel", "",
                  "force the ISA variant of the reram and rl kernel tables: "
                  "portable | avx2 | avx512 (default: best supported; "
                  "equivalent to AUTOHET_KERNEL; results are bit-identical "
                  "across variants)");
}

void apply_kernel_option(const common::ArgParser& args) {
  const std::string& name = args.option("kernel");
  if (name.empty()) return;
  const auto v = common::kernel_variant_from_name(name);
  AUTOHET_CHECK(v, "--kernel: unknown kernel variant '" + name +
                       "' (want portable, avx2 or avx512)");
  reram::kernels::set_variant(*v);
  rl::kernels::set_variant(*v);
}

}  // namespace autohet::core
