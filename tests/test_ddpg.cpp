// DDPG agent: learning on small synthetic problems.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rl/ddpg.hpp"

namespace autohet {
namespace {

rl::DdpgConfig small_config() {
  rl::DdpgConfig cfg;
  cfg.state_dim = 2;
  cfg.actor_hidden = {24, 24};
  cfg.critic_hidden = {24, 24};
  cfg.actor_lr = 3e-3;
  cfg.critic_lr = 1e-2;
  cfg.gamma = 0.0;  // contextual bandit
  cfg.batch_size = 32;
  cfg.replay_capacity = 4000;
  return cfg;
}

TEST(Ddpg, ActionsAreInUnitInterval) {
  rl::DdpgAgent agent(small_config(), common::Rng(1));
  common::Rng rng(2);
  for (int t = 0; t < 100; ++t) {
    const std::vector<double> s = {rng.uniform(), rng.uniform()};
    const double a = agent.act(s);
    EXPECT_GT(a, 0.0);
    EXPECT_LT(a, 1.0);
    const double an = agent.act_with_noise(s);
    EXPECT_GE(an, 0.0);
    EXPECT_LE(an, 1.0);
  }
}

TEST(Ddpg, ActRejectsWrongStateSize) {
  const rl::DdpgAgent agent(small_config(), common::Rng(1));
  const std::vector<double> wrong = {1.0, 2.0, 3.0};
  EXPECT_THROW(agent.act(wrong), std::invalid_argument);
  EXPECT_THROW(agent.act({}), std::invalid_argument);
  EXPECT_THROW(agent.q_value(wrong, 0.5), std::invalid_argument);
}

TEST(Ddpg, UpdateIsNoopUntilBatchAvailable) {
  rl::DdpgAgent agent(small_config(), common::Rng(3));
  EXPECT_EQ(agent.update(), 0.0);
  rl::Transition t;
  t.state = {0.1, 0.2};
  t.next_state = {0.3, 0.4};
  t.action = 0.5;
  t.reward = 1.0;
  t.terminal = true;
  agent.remember(t);
  EXPECT_EQ(agent.replay_size(), 1u);
  EXPECT_EQ(agent.update(), 0.0);  // still below batch size
}

TEST(Ddpg, LearnsContextualBandit) {
  // Reward = 1 - (a - s0)^2: the optimal action equals the first state
  // component. After training the policy should track it closely.
  auto cfg = small_config();
  rl::DdpgAgent agent(cfg, common::Rng(4));
  common::Rng rng(5);

  for (int episode = 0; episode < 600; ++episode) {
    const std::vector<double> s = {rng.uniform(0.1, 0.9), rng.uniform()};
    const double a = (episode < 100)
                         ? rng.uniform()  // warmup exploration
                         : agent.act_with_noise(s);
    rl::Transition t;
    t.state = s;
    t.next_state = s;
    t.action = a;
    t.reward = 1.0 - (a - s[0]) * (a - s[0]);
    t.terminal = true;
    agent.remember(std::move(t));
    agent.update();
    if (episode % 10 == 0) agent.decay_noise();
  }

  double total_err = 0.0;
  constexpr int kProbe = 20;
  for (int i = 0; i < kProbe; ++i) {
    const std::vector<double> s = {0.1 + 0.8 * i / (kProbe - 1), 0.5};
    total_err += std::fabs(agent.act(s) - s[0]);
  }
  EXPECT_LT(total_err / kProbe, 0.15);
}

TEST(Ddpg, CriticLearnsActionValues) {
  // With fixed state, Q(s, a) must rank the rewarding action above others.
  auto cfg = small_config();
  rl::DdpgAgent agent(cfg, common::Rng(6));
  common::Rng rng(7);
  const std::vector<double> s = {0.5, 0.5};
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform();
    rl::Transition t;
    t.state = s;
    t.next_state = s;
    t.action = a;
    t.reward = (a > 0.4 && a < 0.6) ? 1.0 : 0.0;
    t.terminal = true;
    agent.remember(std::move(t));
    agent.update();
  }
  EXPECT_GT(agent.q_value(s, 0.5), agent.q_value(s, 0.05));
  EXPECT_GT(agent.q_value(s, 0.5), agent.q_value(s, 0.95));
}

TEST(Ddpg, NoiseDecays) {
  rl::DdpgAgent agent(small_config(), common::Rng(8));
  const double before = agent.noise_sigma();
  for (int i = 0; i < 50; ++i) agent.decay_noise();
  EXPECT_LT(agent.noise_sigma(), before);
  for (int i = 0; i < 1000; ++i) agent.decay_noise();
  EXPECT_GE(agent.noise_sigma(), 0.0);
}

TEST(Ddpg, DeterministicForSeed) {
  rl::DdpgAgent a(small_config(), common::Rng(9));
  rl::DdpgAgent b(small_config(), common::Rng(9));
  const std::vector<double> s = {0.3, 0.6};
  EXPECT_EQ(a.act(s), b.act(s));
  EXPECT_EQ(a.act_with_noise(s), b.act_with_noise(s));
}

TEST(Ddpg, ValidatesConfig) {
  auto cfg = small_config();
  cfg.state_dim = 0;
  EXPECT_THROW(rl::DdpgAgent(cfg, common::Rng(1)), std::invalid_argument);
  cfg = small_config();
  cfg.gamma = 1.5;
  EXPECT_THROW(rl::DdpgAgent(cfg, common::Rng(1)), std::invalid_argument);
  cfg = small_config();
  cfg.tau = 0.0;
  EXPECT_THROW(rl::DdpgAgent(cfg, common::Rng(1)), std::invalid_argument);
}

rl::Transition bandit_transition(std::vector<double> state, double action,
                                 double reward, bool terminal = true) {
  rl::Transition t;
  t.next_state = state;
  t.state = std::move(state);
  t.action = action;
  t.reward = reward;
  t.terminal = terminal;
  return t;
}

TEST(Ddpg, ReplayPoolIsBoundedByCapacity) {
  auto cfg = small_config();
  cfg.replay_capacity = 5;
  cfg.batch_size = 4;
  rl::DdpgAgent agent(cfg, common::Rng(10));
  for (int i = 0; i < 12; ++i) {
    agent.remember(bandit_transition({0.1 * i, 0.5}, 0.5, 1.0));
    EXPECT_EQ(agent.replay_size(), std::min<std::size_t>(i + 1, 5)) << i;
  }
  EXPECT_GT(agent.update(), 0.0);
  EXPECT_EQ(agent.replay_size(), 5u);  // sampling does not consume
}

TEST(Ddpg, CriticLossIsUnweightedMinibatchMse) {
  // Every pooled transition is the same terminal one, so whichever indices
  // the minibatch draws, the loss is (Q(s, a) - r)^2 with equal weights.
  rl::DdpgAgent agent(small_config(), common::Rng(11));
  const std::vector<double> s = {0.25, 0.75};
  const double action = 0.4;
  const double reward = 0.9;
  for (int i = 0; i < 32; ++i) {
    agent.remember(bandit_transition(s, action, reward));
  }
  const double err = agent.q_value(s, action) - reward;
  const double loss = agent.update();
  EXPECT_NEAR(loss, err * err, err * err * 1e-12);
  // The critic stepped towards the target.
  const double err_after = agent.q_value(s, action) - reward;
  EXPECT_LT(std::fabs(err_after), std::fabs(err));
}

TEST(Ddpg, FirstFullBatchUpdatesActorAndCritic) {
  rl::DdpgAgent agent(small_config(), common::Rng(12));
  const std::vector<double> s = {0.6, 0.2};
  common::Rng rng(13);
  for (int i = 0; i < 31; ++i) {
    agent.remember(bandit_transition(s, rng.uniform(), rng.uniform()));
  }
  const double act_before = agent.act(s);
  const double q_before = agent.q_value(s, 0.5);
  EXPECT_EQ(agent.update(), 0.0);  // 31 < batch_size
  EXPECT_EQ(agent.act(s), act_before);
  EXPECT_EQ(agent.q_value(s, 0.5), q_before);

  agent.remember(bandit_transition(s, rng.uniform(), rng.uniform()));
  const double loss = agent.update();
  EXPECT_GT(loss, 0.0);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NE(agent.act(s), act_before);
  EXPECT_NE(agent.q_value(s, 0.5), q_before);
}

TEST(Ddpg, TerminalTransitionsIgnoreNextState) {
  // With gamma > 0 the target bootstraps from Q'(s', mu'(s')) only for
  // non-terminal transitions: two agents that differ only in next_state
  // train identically when every transition is terminal, and diverge
  // when none is.
  auto cfg = small_config();
  cfg.gamma = 0.9;
  auto run = [&](double next0, bool terminal) {
    rl::DdpgAgent agent(cfg, common::Rng(14));
    common::Rng rng(15);
    std::vector<double> losses;
    for (int i = 0; i < 64; ++i) {
      const std::vector<double> s = {rng.uniform(), rng.uniform()};
      auto t = bandit_transition(s, rng.uniform(), rng.uniform(), terminal);
      t.next_state = {next0, 1.0 - next0};
      agent.remember(std::move(t));
      losses.push_back(agent.update());
    }
    losses.push_back(agent.act(std::vector<double>{0.5, 0.5}));
    return losses;
  };
  EXPECT_EQ(run(0.1, true), run(0.9, true));
  EXPECT_NE(run(0.1, false), run(0.9, false));
}

TEST(Ddpg, TrainingIsDeterministicForSeed) {
  auto train = [] {
    rl::DdpgAgent agent(small_config(), common::Rng(16));
    common::Rng rng(17);
    std::vector<double> trace;
    for (int episode = 0; episode < 120; ++episode) {
      const std::vector<double> s = {rng.uniform(), rng.uniform()};
      const double a = agent.act_with_noise(s);
      agent.remember(bandit_transition(s, a, 1.0 - (a - s[0]) * (a - s[0])));
      trace.push_back(a);
      trace.push_back(agent.update());
      agent.decay_noise();
    }
    return trace;
  };
  const auto first = train();
  EXPECT_EQ(first, train());
  // The run got past warm-up: later updates returned real losses.
  EXPECT_GT(first.back(), 0.0);
}

TEST(Ddpg, NoiseFollowsDefaultDecaySchedule) {
  // The search's exploration schedule: sigma 0.5, x0.99 per episode, floor
  // 0.02 (reached after 321 decays).
  rl::DdpgAgent agent(small_config(), common::Rng(18));
  double want = 0.5;
  EXPECT_EQ(agent.noise_sigma(), want);
  for (int i = 1; i <= 400; ++i) {
    agent.decay_noise();
    want = std::max(want * 0.99, 0.02);
    ASSERT_EQ(agent.noise_sigma(), want) << i;
    if (i < 321) {
      EXPECT_GT(want, 0.02) << i;
    }
  }
  EXPECT_EQ(agent.noise_sigma(), 0.02);
}

TEST(Ddpg, ExplorationNoiseIsGaussianAroundThePolicy) {
  rl::DdpgAgent agent(small_config(), common::Rng(19));
  const std::vector<double> s = {0.4, 0.7};
  const double policy = agent.act(s);
  ASSERT_GT(policy, 0.2);
  ASSERT_LT(policy, 0.8);
  for (int i = 0; i < 400; ++i) agent.decay_noise();  // sigma at its floor
  const double sigma = agent.noise_sigma();

  constexpr int kDraws = 4000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double d = agent.act_with_noise(s) - policy;
    sum += d;
    sum_sq += d * d;
  }
  const double mean = sum / kDraws;
  const double stddev = std::sqrt(sum_sq / kDraws - mean * mean);
  EXPECT_LT(std::fabs(mean), 4.0 * sigma / std::sqrt(kDraws));
  EXPECT_NEAR(stddev, sigma, 0.1 * sigma);
}

TEST(DecayingGaussian, RespectsFloor) {
  rl::DecayingGaussian g(1.0, 0.5, 0.1);
  for (int i = 0; i < 100; ++i) g.decay();
  EXPECT_DOUBLE_EQ(g.sigma(), 0.1);
}

TEST(DecayingGaussian, SampleIsSigmaTimesUnitNormal) {
  rl::DecayingGaussian g(0.3, 0.5, 0.1);
  common::Rng rng(20);
  common::Rng reference(20);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(g.sample(rng), g.sigma() * reference.normal()) << i;
    g.decay();
  }
  EXPECT_EQ(g.sigma(), 0.1);
}

}  // namespace
}  // namespace autohet
