// Shared helpers for the experiment-reproduction benches (one binary per
// paper table/figure). Each binary prints the same rows/series the paper
// reports; absolute values are model-dependent, shapes are the target
// (see EXPERIMENTS.md). The binaries that take arguments parse them through
// make_args() + parse_args(); the rest keep `int main()`.
#pragma once

#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "autohet/baselines.hpp"
#include "autohet/kernel_option.hpp"
#include "autohet/search.hpp"
#include "common/cli.hpp"
#include "nn/model_zoo.hpp"
#include "obs/session.hpp"
#include "report/table.hpp"

namespace autohet::bench {

/// The command line every bench binary shares: the positionals the caller
/// registers next (add_optional_positional), the observability flags
/// (--trace-out/--metrics-out/--episode-log/--profile-out/--log-level) and
/// --kernel, which forces the ISA variant of both kernel tables.
inline common::ArgParser make_args(const std::string& program,
                                   const std::string& description) {
  common::ArgParser args(program, description);
  obs::add_cli_options(args);
  core::add_kernel_option(args);
  return args;
}

/// Parses argv into `args`, checks each named count (a positional or an
/// option, with its minimum), applies --kernel and starts the obs session,
/// which main's scope holds and which writes the telemetry files when it
/// dies. On malformed input (or --help) prints the message and returns
/// false, before anything runs or writes an artifact; main then exits 2.
inline bool parse_args(
    common::ArgParser& args, int argc, char** argv,
    const std::vector<std::pair<std::string, int>>& counts,
    std::optional<obs::ObsSession>* session) {
  std::string error;
  try {
    if (args.parse(argc, argv, &error)) {
      for (const auto& [name, min] : counts) args.count(name, min);
      core::apply_kernel_option(args);
      session->emplace(args);
      return true;
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  std::cerr << error << '\n';
  return false;
}

/// The paper's accelerator configuration (default DeviceParams, default
/// ideal FaultConfig, 4 PEs per tile), with the two knobs the benches
/// actually vary. Every bench builds its AcceleratorConfig through this
/// helper so a change to the shared baseline lands everywhere at once.
inline reram::AcceleratorConfig paper_accel(bool tile_shared = false,
                                            std::int64_t pes_per_tile = 4) {
  reram::AcceleratorConfig accel;
  accel.tile_shared = tile_shared;
  accel.pes_per_tile = pes_per_tile;
  return accel;
}

/// Builds an environment with the given candidates/allocation over a
/// network's mappable layers.
inline core::CrossbarEnv make_env(
    const nn::NetworkSpec& net, std::vector<mapping::CrossbarShape> candidates,
    bool tile_shared, std::int64_t pes_per_tile = 4) {
  core::EnvConfig cfg;
  cfg.candidates = std::move(candidates);
  cfg.accel = paper_accel(tile_shared, pes_per_tile);
  return core::CrossbarEnv(net.mappable_layers(), cfg);
}

/// Runs the AutoHet RL search and returns its result.
inline core::SearchResult run_search(const core::CrossbarEnv& env,
                                     int episodes, std::uint64_t seed = 1) {
  core::SearchConfig cfg;
  cfg.episodes = episodes;
  cfg.warmup_episodes = std::min(25, episodes / 4);
  cfg.seed = seed;
  core::AutoHetSearch search(env, cfg);
  return search.run();
}

/// Standard three-metric row for a configuration.
inline std::vector<std::string> metric_row(const std::string& name,
                                           const reram::NetworkReport& r,
                                           double energy_norm = 1.0) {
  return {name, report::format_fixed(r.utilization * 100.0, 1),
          report::format_fixed(r.energy.total_nj() / energy_norm, 2),
          report::format_sci(r.rue(), 3)};
}

inline void print_header(const std::string& title) {
  std::cout << "==== " << title << " ====\n";
}

}  // namespace autohet::bench
