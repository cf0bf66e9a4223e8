// Shared helpers for the experiment benches: paper_results (one section
// per paper table/figure and extension ablation, printing the same
// rows/series the paper reports; absolute values are model-dependent,
// shapes are the target — see EXPERIMENTS.md) and the standalone fault,
// functional, search-time and serving benches, each of which parses its
// command line through make_args() + parse_args().
#pragma once

#include <algorithm>
#include <iostream>
#include <optional>
#include <stdexcept>
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

/// Parses argv into `args` and checks it before anything runs: each named
/// count the command line supplies (a positional or an option, with its
/// minimum; defaults are the program's own) and each choice positional
/// (its allowed values). Then applies --kernel and starts the obs session,
/// which main's scope holds and which writes the telemetry files when it
/// dies. On malformed input (or --help) prints the message and returns
/// false, before anything runs or writes an artifact; main then exits 2.
inline bool parse_args(
    common::ArgParser& args, int argc, char** argv,
    const std::vector<std::pair<std::string, int>>& counts,
    std::optional<obs::ObsSession>* session,
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        choices = {}) {
  std::string error;
  try {
    if (args.parse(argc, argv, &error)) {
      for (const auto& [name, min] : counts) {
        if (args.provided(name)) args.count(name, min);
      }
      for (const auto& [name, allowed] : choices) {
        const std::string& value = args.positional(name);
        if (std::find(allowed.begin(), allowed.end(), value) != allowed.end()) {
          continue;
        }
        std::string list;
        for (std::size_t i = 0; i < allowed.size(); ++i) {
          if (i > 0) list += i + 1 == allowed.size() ? " or " : ", ";
          list += allowed[i];
        }
        throw std::invalid_argument("argument <" + name + "> must be " +
                                    list + ": " + value);
      }
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
