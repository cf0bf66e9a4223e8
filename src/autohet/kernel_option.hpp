// The --kernel option of the driver binaries (autohet_cli and the benches):
// one name forces the same ISA variant on both kernel tables, reram::kernels
// and rl::kernels.
#pragma once

#include "common/cli.hpp"

namespace autohet::core {

/// Registers --kernel on a driver's parser.
void add_kernel_option(common::ArgParser& args);

/// After parse(): forces the --kernel variant on both kernel tables; a no-op
/// when the option is unset. Hard error (std::invalid_argument) on an
/// unknown name or on a variant this host/build does not support — a forced
/// run must never silently measure a different code path.
void apply_kernel_option(const common::ArgParser& args);

}  // namespace autohet::core
