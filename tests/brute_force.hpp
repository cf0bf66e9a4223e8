// Brute-force optimum of a small search space: every one of the C^N
// configurations through the env, the ground truth the baseline and search
// tests measure against. Keep C^N small (the toy nets have 125 and 625).
#pragma once

#include <cstddef>
#include <vector>

#include "autohet/baselines.hpp"

namespace autohet::test {

/// The highest-reward configuration of `env`; ties keep the first one in
/// odometer order (layer 0 varies fastest).
inline core::StrategyResult brute_force_optimum(const core::CrossbarEnv& env) {
  const std::size_t n = env.num_layers();
  std::vector<std::size_t> actions(n, 0);
  core::StrategyResult best;
  best.name = "Exhaustive";
  best.reward = -1.0;
  while (true) {
    const reram::NetworkReport report = env.evaluate(actions);
    if (const double reward = env.reward(report); reward > best.reward) {
      best.reward = reward;
      best.report = report;
      best.actions = actions;
    }
    std::size_t pos = 0;
    while (pos < n && ++actions[pos] == env.num_actions()) actions[pos++] = 0;
    if (pos == n) return best;
  }
}

}  // namespace autohet::test
