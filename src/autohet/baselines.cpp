#include "autohet/baselines.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace autohet::core {

namespace {
StrategyResult finish(const CrossbarEnv& env, std::string name,
                      std::vector<std::size_t> actions) {
  StrategyResult r;
  r.name = std::move(name);
  r.report = env.evaluate(actions);
  r.reward = env.reward(r.report);
  r.actions = std::move(actions);
  return r;
}
}  // namespace

StrategyResult evaluate_homogeneous_strategy(const CrossbarEnv& env,
                                             std::size_t candidate_index) {
  AUTOHET_CHECK(candidate_index < env.num_actions(),
                "candidate index out of range");
  std::vector<std::size_t> actions(env.num_layers(), candidate_index);
  return finish(env, env.candidates()[candidate_index].name(),
                std::move(actions));
}

std::vector<StrategyResult> homogeneous_sweep(const CrossbarEnv& env) {
  OBS_SPAN("homogeneous_sweep");
  // One batch through the engine: the C configurations are independent, so
  // cache misses evaluate in parallel when the env has eval threads.
  std::vector<std::vector<std::size_t>> batch;
  batch.reserve(env.num_actions());
  for (std::size_t c = 0; c < env.num_actions(); ++c) {
    batch.emplace_back(env.num_layers(), c);
  }
  const auto reports = env.evaluate_batch(batch);
  std::vector<StrategyResult> out;
  out.reserve(env.num_actions());
  for (std::size_t c = 0; c < env.num_actions(); ++c) {
    StrategyResult r;
    r.name = env.candidates()[c].name();
    r.report = reports[c];
    r.reward = env.reward(r.report);
    r.actions = std::move(batch[c]);
    out.push_back(std::move(r));
  }
  return out;
}

StrategyResult best_homogeneous(const CrossbarEnv& env) {
  auto sweep = homogeneous_sweep(env);
  auto best = std::max_element(sweep.begin(), sweep.end(),
                               [](const auto& a, const auto& b) {
                                 return a.report.rue() < b.report.rue();
                               });
  StrategyResult r = std::move(*best);
  r.name = "Best-Homo(" + r.name + ")";
  return r;
}

StrategyResult manual_hetero(const CrossbarEnv& env, std::size_t head_index,
                             std::size_t tail_index, std::size_t head_layers) {
  AUTOHET_CHECK(head_index < env.num_actions() &&
                    tail_index < env.num_actions(),
                "candidate index out of range");
  AUTOHET_CHECK(head_layers <= env.num_layers(),
                "head_layers exceeds layer count");
  std::vector<std::size_t> actions(env.num_layers(), tail_index);
  std::fill(actions.begin(),
            actions.begin() + static_cast<std::ptrdiff_t>(head_layers),
            head_index);
  return finish(env, "Manual-Hetero", std::move(actions));
}

StrategyResult greedy_search(const CrossbarEnv& env) {
  OBS_SPAN("greedy_search");
  std::vector<std::size_t> actions;
  actions.reserve(env.num_layers());
  for (std::size_t k = 0; k < env.num_layers(); ++k) {
    double best_score = -1.0;
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < env.num_actions(); ++c) {
      // Layer-local utilization / energy proxy from the engine's
      // precomputed L×C table (identical to a fresh evaluate_layer).
      const reram::LayerReport& lr = env.engine().layer_report(k, c);
      const double e = lr.energy.total_nj();
      const double score = e > 0.0 ? lr.utilization / e : 0.0;
      if (score > best_score) {
        best_score = score;
        best_c = c;
      }
    }
    actions.push_back(best_c);
  }
  return finish(env, "Greedy", std::move(actions));
}

}  // namespace autohet::core
