// Comparator strategies: the paper's baselines.
//
//   * Homogeneous accelerators (the paper's five SXB baselines, §4.1).
//   * Manual-Hetero (Fig. 3): hand-assigned 512x512 / 256x256 split.
//   * Greedy: per-layer argmax of layer-level utilization/energy — the
//     natural non-learning heuristic; used to show what layer-local choices
//     miss (the tile-granular system effects the RL reward captures).
#pragma once

#include <string>
#include <vector>

#include "autohet/env.hpp"

namespace autohet::core {

struct StrategyResult {
  std::string name;
  std::vector<std::size_t> actions;
  reram::NetworkReport report;
  double reward = 0.0;
};

/// Evaluates one homogeneous configuration (same candidate for all layers).
StrategyResult evaluate_homogeneous_strategy(const CrossbarEnv& env,
                                             std::size_t candidate_index);

/// Evaluates every candidate homogeneously and returns all results.
std::vector<StrategyResult> homogeneous_sweep(const CrossbarEnv& env);

/// The homogeneous configuration with the highest RUE ("Best-Homo", §4.4).
StrategyResult best_homogeneous(const CrossbarEnv& env);

/// Fig. 3's manual heterogeneous assignment: candidate `head_index` for the
/// first `head_layers` layers, `tail_index` for the rest.
StrategyResult manual_hetero(const CrossbarEnv& env, std::size_t head_index,
                             std::size_t tail_index, std::size_t head_layers);

/// Greedy per-layer choice maximizing layer utilization / layer energy.
StrategyResult greedy_search(const CrossbarEnv& env);

}  // namespace autohet::core
