// Shared helpers for the experiment-reproduction benches (one binary per
// paper table/figure). Each binary prints the same rows/series the paper
// reports; absolute values are model-dependent, shapes are the target
// (see EXPERIMENTS.md).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "autohet/baselines.hpp"
#include "autohet/search.hpp"
#include "nn/model_zoo.hpp"
#include "obs/session.hpp"
#include "report/table.hpp"
#include "reram/kernels/kernels.hpp"
#include "rl/kernels/dense.hpp"

namespace autohet::bench {

/// Episodes for RL searches, overridable as argv[1] (all bench binaries
/// accept it) so CI can run quick sweeps and full runs can match the
/// paper's 300 rounds. Also wires up the shared observability flags
/// (--trace-out/--metrics-out/--episode-log/--log-level anywhere on the
/// command line): the static session writes the files at process exit, so
/// the bench binaries gain telemetry without touching their positional
/// conventions.
inline int episodes_from_args(int argc, char** argv, int fallback) {
  static obs::ObsSession session(obs::options_from_argv(argc, argv));
  // `--kernel <name>` anywhere on the line forces the kernel ISA variant of
  // both kernel tables (hard error on unknown/unsupported — a forced bench
  // must not silently measure a different code path).
  reram::kernels::apply_argv_override(argc, argv);
  rl::kernels::apply_argv_override(argc, argv);
  if (argc > 1) {
    const int v = std::atoi(argv[1]);
    if (v > 0) return v;
  }
  return fallback;
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
