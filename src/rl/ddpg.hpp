// Deep Deterministic Policy Gradient (Silver et al. 2014 / Lillicrap et al.)
// for continuous 1-D actions in [0, 1].
//
// The paper constructs its RL agent "based on the DDPG algorithm, which
// includes paired actor and critic networks" (§3.2). The actor maps the
// 10-dim layer state to an action; the critic estimates Q(s, a). AutoHet
// quantizes the continuous action to a crossbar-candidate index (HAQ-style),
// which keeps the action space continuous for DDPG while the hardware choice
// stays discrete.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "rl/adam.hpp"
#include "rl/mlp.hpp"
#include "rl/noise.hpp"
#include "rl/prioritized_replay.hpp"
#include "rl/replay_buffer.hpp"

namespace autohet::rl {

enum class NoiseKind {
  kGaussianDecay,      ///< N(0, sigma) with per-episode multiplicative decay
  kOrnsteinUhlenbeck,  ///< temporally correlated OU process (classic DDPG)
};

struct DdpgConfig {
  int state_dim = 10;
  std::vector<int> actor_hidden = {64, 64};
  std::vector<int> critic_hidden = {64, 64};
  double actor_lr = 1e-4;
  double critic_lr = 1e-3;
  double gamma = 0.99;  ///< discount across layers within an episode
  double tau = 0.01;    ///< target-network soft-update rate
  std::size_t replay_capacity = 20000;
  std::size_t batch_size = 64;
  NoiseKind noise_kind = NoiseKind::kGaussianDecay;
  double ou_theta = 0.15;  ///< OU mean-reversion rate
  double ou_sigma = 0.2;   ///< OU diffusion
  /// Prioritized experience replay (Schaul et al.) instead of the uniform
  /// pool; per_* are the usual alpha/beta/epsilon knobs.
  bool prioritized_replay = false;
  double per_alpha = 0.6;
  double per_beta = 0.4;
  double per_epsilon = 1e-3;
};

class DdpgAgent {
 public:
  DdpgAgent(DdpgConfig config, common::Rng rng);

  /// Deterministic policy action in [0, 1].
  double act(std::span<const double> state) const;
  /// Policy action plus exploration noise, clamped to [0, 1].
  double act_with_noise(std::span<const double> state);

  /// Decays the exploration noise (call once per episode). For OU noise
  /// this resets the process state instead (episodes are independent).
  void decay_noise();
  double noise_sigma() const noexcept;

  void remember(Transition t);
  std::size_t replay_size() const noexcept;

  /// One minibatch update of critic and actor plus target soft updates.
  /// No-op until the replay buffer holds at least one batch.
  /// Returns the critic's minibatch MSE loss (0.0 when skipped).
  double update();

  /// Critic Q-value for diagnostics/tests.
  double q_value(std::span<const double> state, double action) const;

  const DdpgConfig& config() const noexcept { return config_; }

 private:
  static std::vector<int> layer_sizes(int in, const std::vector<int>& hidden,
                                      int out);

  DdpgConfig config_;
  common::Rng rng_;
  Mlp actor_;
  Mlp critic_;
  Mlp actor_target_;
  Mlp critic_target_;
  Adam actor_opt_;
  Adam critic_opt_;
  ReplayBuffer replay_;
  PrioritizedReplayBuffer prioritized_replay_;
  DecayingGaussian noise_;
  OrnsteinUhlenbeck ou_noise_;

  // update() scratch — sized on first use, reused every minibatch so the
  // hot path allocates nothing in steady state.
  Mlp::BatchCache actor_target_cache_;
  Mlp::BatchCache critic_target_cache_;
  Mlp::BatchCache critic_cache_;
  Mlp::BatchCache actor_cache_;
  Mlp::BatchCache critic_q_cache_;
  std::vector<const Transition*> batch_;  ///< prioritized minibatch
  std::vector<double> next_states_;
  std::vector<double> states_;
  std::vector<double> sa_;
  std::vector<double> delta_;
  std::vector<double> dq_dsa_;
};

}  // namespace autohet::rl
