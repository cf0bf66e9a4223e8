// The RL environment: state space (Table 1), action quantization, and the
// reward function (Eq. 2) over the behavioral hardware model.
//
// One episode walks the network's mappable layers in order. The observation
// for layer k contains eight static layer features plus the two dynamic
// features the paper lists — the action a and utilization u "obtained from
// the decision stage" of the *previous* step (HAQ-style), so the agent sees
// the consequences of its last choice while deciding the next one. All
// features are normalized to [0, 1] against per-network maxima for
// conditioning.
//
// Reward: the paper defines R = u / e and notes R lands in [0, 1] because e
// is orders of magnitude larger than u. We additionally divide e by a fixed
// per-network scale (the energy of the largest-candidate homogeneous
// configuration) — a constant positive factor that leaves the induced
// ordering of configurations unchanged but keeps R in a numerically friendly
// range for the critic regardless of model size.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mapping/crossbar_shape.hpp"
#include "mapping/plan.hpp"
#include "nn/layer.hpp"
#include "reram/eval_engine.hpp"
#include "reram/hardware_model.hpp"

namespace autohet::core {

/// What the search optimizes. The paper's reward is utilization/energy
/// (Eq. 2); the area- and latency-aware variants extend it in the
/// direction of §4.5's discussion (edge deployments care about chip area
/// and latency too) by dividing by the additional normalized cost.
enum class RewardObjective {
  kUtilizationPerEnergy,  ///< Eq. 2: R = u / e (the paper)
  kAreaAware,             ///< R = u / (e · a)
  kLatencyAware,          ///< R = u / (e · t)
  /// R = (u / e) · (1 − v) where v is the analytic network fault
  /// vulnerability under accel.faults (reram/faults.hpp). With the default
  /// ideal FaultConfig v = 0, so this reduces exactly to Eq. 2 — opting in
  /// only changes the search when a non-ideal device is configured.
  kRobustnessAware
};

/// The in-search Monte-Carlo budget: a deliberately small adaptive spend
/// (the memo amortizes revisits, the CI target keeps decisive allocations
/// at the minimum) tuned so a robustness-aware search stays within ~2× the
/// plain-reward wall clock (bench/search_time.cpp tracks the ratio).
inline reram::RobustnessOptions default_search_mc_options() {
  reram::RobustnessOptions mc;
  mc.trials = 2;
  mc.samples = 6;
  mc.budget.mode = reram::RobustnessBudget::Mode::kAdaptive;
  // Loose on purpose: one all-agree trial (6/6, Wilson half-width ≈ 0.20)
  // already stops, so decisive allocations cost a single fabric burn. The
  // reward only needs a coarse robustness signal — report-grade CIs come
  // from evaluate_robustness with a real budget.
  mc.budget.ci_halfwidth = 0.2;
  mc.budget.min_trials = 1;
  mc.budget.chunk_trials = 1;
  // Serial on purpose: at this budget a call is one or two forwards, and
  // spawning a per-call worker pool costs more than it saves.
  mc.threads = 1;
  return mc;
}

struct EnvConfig {
  std::vector<mapping::CrossbarShape> candidates;  ///< the action space
  reram::AcceleratorConfig accel;
  RewardObjective objective = RewardObjective::kUtilizationPerEnergy;
  /// Measured robustness in the reward loop. When non-null and the
  /// objective is kRobustnessAware (with a non-ideal accel.faults), each
  /// episode's analytic (1 − v) factor is replaced by the *measured*
  /// Monte-Carlo accuracy of this model on the episode's allocation, via
  /// the engine's budgeted+memoized evaluate_robustness_cached under
  /// default_search_mc_options(). Null (the default) keeps the analytic
  /// proxy and leaves every existing reward bit-identical. The model must
  /// outlive the environment and match its mappable layers.
  const nn::Model* mc_reward_model = nullptr;
};

inline constexpr int kStateDim = 10;  // paper Table 1

class CrossbarEnv {
 public:
  CrossbarEnv(std::vector<nn::LayerSpec> mappable_layers, EnvConfig config);

  std::size_t num_layers() const noexcept { return layers_.size(); }
  std::size_t num_actions() const noexcept {
    return config_.candidates.size();
  }
  const std::vector<mapping::CrossbarShape>& candidates() const noexcept {
    return config_.candidates;
  }
  const std::vector<nn::LayerSpec>& layers() const noexcept { return layers_; }
  const reram::AcceleratorConfig& accel() const noexcept {
    return config_.accel;
  }
  /// Reward normalization divisors, calibrated at construction against the
  /// largest-candidate homogeneous configuration (see above).
  double energy_scale_nj() const noexcept { return energy_scale_nj_; }
  double area_scale_um2() const noexcept { return area_scale_um2_; }
  double latency_scale_ns() const noexcept { return latency_scale_ns_; }
  RewardObjective objective() const noexcept { return config_.objective; }

  /// Table-1 state vector for layer `k`. `prev_action` / `prev_utilization`
  /// are the dynamic features from step k-1 (use 0, 0 for the first layer).
  std::vector<double> state(std::size_t k, std::size_t prev_action,
                            double prev_utilization) const;

  /// Quantizes a continuous DDPG action in [0, 1] to a candidate index.
  std::size_t action_to_index(double action) const noexcept;

  /// Eq. 4 utilization of layer `k` under candidate `action_index`.
  double layer_utilization(std::size_t k, std::size_t action_index) const;

  /// Full hardware evaluation of a per-layer candidate assignment.
  /// Memoized: repeated configurations return the cached NetworkReport,
  /// bit-identical to the uncached path.
  reram::NetworkReport evaluate(
      const std::vector<std::size_t>& action_indices) const;

  /// The shared evaluation engine (L×C layer-report table + report memo).
  const reram::EvaluationEngine& engine() const noexcept { return *engine_; }

  /// Compiles one action assignment into a DeploymentPlan for `network`
  /// under this environment's accelerator config — the bridge from a search
  /// result to the save/replay/deploy artifact (mapping/plan.hpp).
  plan::DeploymentPlan compile(const std::vector<std::size_t>& action_indices,
                               std::string network) const;

  /// Eq. 2 reward from a hardware report (utilization over scaled energy).
  double reward(const reram::NetworkReport& report) const;

  /// Reward with the episode's allocation in hand: identical to
  /// reward(report) unless a `mc_reward_model` is configured under the
  /// kRobustnessAware objective, in which case the analytic vulnerability
  /// factor is replaced by the measured (budgeted, memoized) Monte-Carlo
  /// accuracy of that allocation — robustness in the search loop.
  double reward(const reram::NetworkReport& report,
                const std::vector<std::size_t>& action_indices) const;

 private:
  std::vector<nn::LayerSpec> layers_;
  EnvConfig config_;
  /// Shared so copies of the environment share one table + memo.
  std::shared_ptr<reram::EvaluationEngine> engine_;
  double energy_scale_nj_ = 1.0;
  double area_scale_um2_ = 1.0;
  double latency_scale_ns_ = 1.0;
  // Per-network normalization maxima for the state features.
  double max_inc_ = 1.0;
  double max_outc_ = 1.0;
  double max_ks_ = 1.0;
  double max_stride_ = 1.0;
  double max_weights_ = 1.0;
  double max_ins_ = 1.0;
};

}  // namespace autohet::core
