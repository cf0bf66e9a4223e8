#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "rl/ddpg.hpp"
#include "rl/prioritized_replay.hpp"

namespace autohet {
namespace {

using rl::PrioritizedReplayBuffer;

rl::Transition make_transition(double reward) {
  rl::Transition t;
  t.state = {reward, 0.0};
  t.next_state = {reward, 1.0};
  t.action = 0.5;
  t.reward = reward;
  t.terminal = true;
  return t;
}

TEST(PrioritizedReplay, ValidatesConstruction) {
  EXPECT_THROW(PrioritizedReplayBuffer(0), std::invalid_argument);
  EXPECT_THROW(PrioritizedReplayBuffer(4, 1.5), std::invalid_argument);
  EXPECT_THROW(PrioritizedReplayBuffer(4, 0.5, 0.0), std::invalid_argument);
}

TEST(PrioritizedReplay, EmptySampleThrows) {
  PrioritizedReplayBuffer buf(4);
  common::Rng rng(1);
  EXPECT_THROW(buf.sample(rng, 1, 0.4), std::invalid_argument);
}

TEST(PrioritizedReplay, SampleReusesItsScratch) {
  PrioritizedReplayBuffer buf(8);
  for (int i = 0; i < 8; ++i) buf.add(make_transition(i));
  common::Rng rng(3);
  const auto& first = buf.sample(rng, 16, 0.4);
  const auto* const data = first.data();
  const auto& second = buf.sample(rng, 16, 0.4);
  EXPECT_EQ(&second, &first);
  EXPECT_EQ(second.data(), data);  // no reallocation in steady state
  EXPECT_EQ(second.size(), 16u);
}

TEST(PrioritizedReplay, NewTransitionsAreSampleable) {
  PrioritizedReplayBuffer buf(8);
  for (int i = 0; i < 8; ++i) buf.add(make_transition(i));
  common::Rng rng(2);
  std::map<double, int> seen;
  for (const auto& s : buf.sample(rng, 800, 0.4)) {
    ++seen[s.transition->reward];
  }
  EXPECT_EQ(seen.size(), 8u);  // uniform max-priority start covers all
}

TEST(PrioritizedReplay, HighPriorityDominatesSampling) {
  PrioritizedReplayBuffer buf(8, /*alpha=*/1.0);
  for (int i = 0; i < 8; ++i) buf.add(make_transition(i));
  // Crush every priority except transition 3's.
  common::Rng rng(3);
  for (const auto& s : buf.sample(rng, 200, 0.0)) {
    buf.update_priority(s.index, s.transition->reward == 3.0 ? 100.0 : 0.0);
  }
  int hits = 0;
  constexpr int kDraws = 400;
  for (const auto& s : buf.sample(rng, kDraws, 0.0)) {
    if (s.transition->reward == 3.0) ++hits;
  }
  EXPECT_GT(hits, kDraws * 9 / 10);
}

TEST(PrioritizedReplay, ImportanceWeightsAreNormalized) {
  PrioritizedReplayBuffer buf(16, 1.0);
  for (int i = 0; i < 16; ++i) buf.add(make_transition(i));
  common::Rng rng(4);
  // Diversify priorities.
  for (const auto& s : buf.sample(rng, 64, 0.4)) {
    buf.update_priority(s.index, s.transition->reward + 0.1);
  }
  const auto samples = buf.sample(rng, 64, 1.0);
  double max_w = 0.0;
  for (const auto& s : samples) {
    EXPECT_GT(s.weight, 0.0);
    EXPECT_LE(s.weight, 1.0 + 1e-12);
    max_w = std::max(max_w, s.weight);
  }
  EXPECT_NEAR(max_w, 1.0, 1e-12);
}

TEST(PrioritizedReplay, RingEviction) {
  PrioritizedReplayBuffer buf(2);
  buf.add(make_transition(1));
  buf.add(make_transition(2));
  buf.add(make_transition(3));  // evicts 1
  EXPECT_EQ(buf.size(), 2u);
  common::Rng rng(5);
  for (const auto& s : buf.sample(rng, 100, 0.4)) {
    EXPECT_NE(s.transition->reward, 1.0);
  }
}

TEST(PrioritizedReplay, UpdatePriorityValidates) {
  PrioritizedReplayBuffer buf(4);
  buf.add(make_transition(1));
  EXPECT_THROW(buf.update_priority(1, 0.5), std::invalid_argument);
  EXPECT_THROW(buf.update_priority(0, -1.0), std::invalid_argument);
  EXPECT_NO_THROW(buf.update_priority(0, 0.0));
}

// The DDPG agent still learns the contextual bandit with PER enabled.
TEST(DdpgWithPrioritizedReplay, LearnsContextualBandit) {
  rl::DdpgConfig cfg;
  cfg.state_dim = 2;
  cfg.actor_hidden = {24, 24};
  cfg.critic_hidden = {24, 24};
  cfg.actor_lr = 3e-3;
  cfg.critic_lr = 1e-2;
  cfg.gamma = 0.0;
  cfg.batch_size = 32;
  cfg.replay_capacity = 4000;
  cfg.prioritized_replay = true;
  rl::DdpgAgent agent(cfg, common::Rng(6));
  common::Rng rng(7);
  for (int episode = 0; episode < 600; ++episode) {
    const std::vector<double> s = {rng.uniform(0.1, 0.9), rng.uniform()};
    const double a =
        (episode < 100) ? rng.uniform() : agent.act_with_noise(s);
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
  EXPECT_LT(total_err / kProbe, 0.17);
}

TEST(DdpgWithOuNoise, ActionsStayInRangeAndResetWorks) {
  rl::DdpgConfig cfg;
  cfg.state_dim = 2;
  cfg.noise_kind = rl::NoiseKind::kOrnsteinUhlenbeck;
  cfg.ou_sigma = 0.3;
  rl::DdpgAgent agent(cfg, common::Rng(8));
  const std::vector<double> s = {0.5, 0.5};
  for (int i = 0; i < 200; ++i) {
    const double a = agent.act_with_noise(s);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
  EXPECT_DOUBLE_EQ(agent.noise_sigma(), 0.3);
  agent.decay_noise();  // resets the OU state, sigma unchanged
  EXPECT_DOUBLE_EQ(agent.noise_sigma(), 0.3);
}

}  // namespace
}  // namespace autohet
