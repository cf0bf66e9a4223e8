#include <gtest/gtest.h>

#include <set>

#include "rl/replay_buffer.hpp"

namespace autohet {
namespace {

rl::Transition make_transition(double reward) {
  rl::Transition t;
  t.state = {reward};
  t.next_state = {reward + 1.0};
  t.action = 0.5;
  t.reward = reward;
  return t;
}

TEST(ReplayBuffer, StartsEmpty) {
  rl::ReplayBuffer buf(10);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 10u);
  common::Rng rng(1);
  EXPECT_THROW(buf.sample(rng, 1), std::invalid_argument);
}

TEST(ReplayBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(rl::ReplayBuffer(0), std::invalid_argument);
}

TEST(ReplayBuffer, GrowsUntilCapacity) {
  rl::ReplayBuffer buf(3);
  buf.add(make_transition(1));
  EXPECT_EQ(buf.size(), 1u);
  buf.add(make_transition(2));
  buf.add(make_transition(3));
  buf.add(make_transition(4));  // evicts the oldest
  EXPECT_EQ(buf.size(), 3u);
}

TEST(ReplayBuffer, RingEvictsOldestFirst) {
  rl::ReplayBuffer buf(2);
  buf.add(make_transition(1));
  buf.add(make_transition(2));
  buf.add(make_transition(3));
  common::Rng rng(2);
  std::set<double> rewards;
  for (int i = 0; i < 200; ++i) {
    rewards.insert(buf.sample(rng, 1)[0]->reward);
  }
  EXPECT_FALSE(rewards.contains(1.0));
  EXPECT_TRUE(rewards.contains(2.0));
  EXPECT_TRUE(rewards.contains(3.0));
}

TEST(ReplayBuffer, SampleReturnsRequestedCount) {
  rl::ReplayBuffer buf(10);
  for (int i = 0; i < 5; ++i) buf.add(make_transition(i));
  common::Rng rng(3);
  EXPECT_EQ(buf.sample(rng, 7).size(), 7u);  // with replacement
  EXPECT_EQ(buf.sample(rng, 1).size(), 1u);
}

TEST(ReplayBuffer, SampleCoversAllEntries) {
  rl::ReplayBuffer buf(8);
  for (int i = 0; i < 8; ++i) buf.add(make_transition(i));
  common::Rng rng(4);
  std::set<double> seen;
  for (const auto* t : buf.sample(rng, 400)) seen.insert(t->reward);
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ReplayBuffer, StoresTransitionFieldsFaithfully) {
  rl::ReplayBuffer buf(1);
  rl::Transition t;
  t.state = {1.0, 2.0};
  t.next_state = {3.0, 4.0};
  t.action = 0.75;
  t.reward = -0.5;
  t.terminal = true;
  buf.add(t);
  common::Rng rng(5);
  const auto* got = buf.sample(rng, 1)[0];
  EXPECT_EQ(got->state, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(got->next_state, (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(got->action, 0.75);
  EXPECT_EQ(got->reward, -0.5);
  EXPECT_TRUE(got->terminal);
}

TEST(ReplayBuffer, SampleReusesItsScratchWithTheSameDraws) {
  rl::ReplayBuffer buf(32);
  for (int i = 0; i < 32; ++i) buf.add(make_transition(i));
  common::Rng rng(9);
  common::Rng twin(9);
  const auto& first = buf.sample(rng, 16);
  const auto* const data = first.data();
  for (const auto* t : first) EXPECT_EQ(t->reward, twin.uniform_u64(32));
  const auto& second = buf.sample(rng, 16);
  EXPECT_EQ(&second, &first);
  EXPECT_EQ(second.data(), data);  // no reallocation in steady state
  for (const auto* t : second) EXPECT_EQ(t->reward, twin.uniform_u64(32));
}

}  // namespace
}  // namespace autohet
