#include "rl/ddpg.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace autohet::rl {

std::vector<int> DdpgAgent::layer_sizes(int in, const std::vector<int>& hidden,
                                        int out) {
  std::vector<int> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

namespace {
std::vector<Activation> hidden_relu_then(Activation last, std::size_t hidden) {
  std::vector<Activation> acts(hidden, Activation::kRelu);
  acts.push_back(last);
  return acts;
}
}  // namespace

DdpgAgent::DdpgAgent(DdpgConfig config, common::Rng rng)
    : config_(config),
      rng_(rng),
      actor_(layer_sizes(config.state_dim, config.actor_hidden, 1),
             hidden_relu_then(Activation::kSigmoid,
                              config.actor_hidden.size()),
             rng_),
      critic_(layer_sizes(config.state_dim + 1, config.critic_hidden, 1),
              hidden_relu_then(Activation::kLinear,
                               config.critic_hidden.size()),
              rng_),
      actor_target_(layer_sizes(config.state_dim, config.actor_hidden, 1),
                    hidden_relu_then(Activation::kSigmoid,
                                     config.actor_hidden.size()),
                    rng_),
      critic_target_(layer_sizes(config.state_dim + 1, config.critic_hidden, 1),
                     hidden_relu_then(Activation::kLinear,
                                      config.critic_hidden.size()),
                     rng_),
      actor_opt_(actor_.param_count(), config.actor_lr),
      critic_opt_(critic_.param_count(), config.critic_lr),
      replay_(config.replay_capacity) {
  AUTOHET_CHECK(config.state_dim > 0, "state_dim must be positive");
  AUTOHET_CHECK(config.batch_size > 0, "batch_size must be positive");
  AUTOHET_CHECK(config.gamma >= 0.0 && config.gamma <= 1.0,
                "gamma must be in [0, 1]");
  AUTOHET_CHECK(config.tau > 0.0 && config.tau <= 1.0, "tau must be in (0, 1]");
  actor_target_.copy_params_from(actor_);
  critic_target_.copy_params_from(critic_);
}

namespace {
/// One sample through `net` as a batch of one. The scratch is per thread,
/// so steady-state calls allocate nothing and concurrent calls stay safe.
double forward_one(const Mlp& net, std::span<const double> input) {
  AUTOHET_CHECK(static_cast<int>(input.size()) == net.input_size(),
                "MLP input size mismatch");
  thread_local Mlp::BatchCache cache;
  return net.forward_batch(input.data(), 1, cache)[0];
}
}  // namespace

double DdpgAgent::act(std::span<const double> state) const {
  return forward_one(actor_, state);
}

double DdpgAgent::act_with_noise(std::span<const double> state) {
  return std::clamp(act(state) + noise_.sample(rng_), 0.0, 1.0);
}

void DdpgAgent::decay_noise() { noise_.decay(); }

double DdpgAgent::noise_sigma() const noexcept { return noise_.sigma(); }

double DdpgAgent::q_value(std::span<const double> state, double action) const {
  std::vector<double> sa(state.begin(), state.end());
  sa.push_back(action);
  return forward_one(critic_, sa);
}

void DdpgAgent::remember(Transition t) { replay_.add(std::move(t)); }

std::size_t DdpgAgent::replay_size() const noexcept { return replay_.size(); }

double DdpgAgent::update() {
  if (replay_size() < config_.batch_size) return 0.0;

  // The pool samples into scratch it owns, so this allocates nothing.
  const std::vector<const Transition*>& batch =
      replay_.sample(rng_, config_.batch_size);
  const std::size_t B = batch.size();
  const double inv_batch = 1.0 / static_cast<double>(B);
  const auto S = static_cast<std::size_t>(config_.state_dim);
  const std::size_t SA = S + 1;

  // Pack the minibatch once; every network pass below runs batched through
  // the vectorized kernels (per-sample arithmetic identical to forwarding
  // each transition on its own — see Mlp::forward_batch).
  next_states_.resize(B * S);
  states_.resize(B * S);
  sa_.resize(B * SA);
  for (std::size_t b = 0; b < B; ++b) {
    const Transition* t = batch[b];
    std::copy(t->next_state.begin(), t->next_state.end(),
              next_states_.begin() + static_cast<std::ptrdiff_t>(b * S));
    std::copy(t->state.begin(), t->state.end(),
              states_.begin() + static_cast<std::ptrdiff_t>(b * S));
    std::copy(t->state.begin(), t->state.end(),
              sa_.begin() + static_cast<std::ptrdiff_t>(b * SA));
    sa_[b * SA + S] = t->action;
  }

  // ---- critic: minimize MSE(Q(s,a), r + gamma * Q'(s', mu'(s'))) ----
  // Target values for terminal transitions are computed (the forwards are
  // pure) but never consumed, exactly as if they had been skipped.
  const std::vector<double>& next_a =
      actor_target_.forward_batch(next_states_.data(), B, actor_target_cache_);
  delta_.resize(B * SA);
  for (std::size_t b = 0; b < B; ++b) {
    std::copy(next_states_.begin() + static_cast<std::ptrdiff_t>(b * S),
              next_states_.begin() + static_cast<std::ptrdiff_t>(b * S + S),
              delta_.begin() + static_cast<std::ptrdiff_t>(b * SA));
    delta_[b * SA + S] = next_a[b];
  }
  const std::vector<double>& q_next =
      critic_target_.forward_batch(delta_.data(), B, critic_target_cache_);
  const std::vector<double>& q =
      critic_.forward_batch(sa_.data(), B, critic_cache_);

  critic_.zero_grads();
  double critic_loss = 0.0;
  delta_.resize(B);
  for (std::size_t b = 0; b < B; ++b) {
    const Transition* t = batch[b];
    double target = t->reward;
    if (!t->terminal) target += config_.gamma * q_next[b];
    const double err = q[b] - target;
    critic_loss += err * err * inv_batch;
    delta_[b] = 2.0 * err * inv_batch;
  }
  critic_.backward_batch(critic_cache_, delta_, nullptr);
  critic_opt_.step(critic_.params(), critic_.grads());

  // ---- actor: ascend dQ(s, mu(s))/d(theta_mu) ----
  actor_.zero_grads();
  const std::vector<double>& a =
      actor_.forward_batch(states_.data(), B, actor_cache_);
  for (std::size_t b = 0; b < B; ++b) sa_[b * SA + S] = a[b];
  critic_.forward_batch(sa_.data(), B, critic_q_cache_);
  delta_.assign(B, 1.0);
  // Only dQ/d(state,action) is needed here, not critic weight gradients.
  critic_.backward_batch(critic_q_cache_, delta_, &dq_dsa_,
                         /*accumulate_param_grads=*/false);
  for (std::size_t b = 0; b < B; ++b) {
    // Minimize -Q  =>  dL/da = -dQ/da.
    delta_[b] = -dq_dsa_[b * SA + S] * inv_batch;
  }
  actor_.backward_batch(actor_cache_, delta_, nullptr);
  actor_opt_.step(actor_.params(), actor_.grads());

  // ---- target soft updates ----
  actor_target_.soft_update_from(actor_, config_.tau);
  critic_target_.soft_update_from(critic_, config_.tau);
  return critic_loss;
}

}  // namespace autohet::rl
