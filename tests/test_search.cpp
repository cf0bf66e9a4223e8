// The AutoHet RL search loop: convergence, determinism, and quality
// relative to the exhaustive optimum on small spaces.
#include <gtest/gtest.h>

#include <numeric>

#include "autohet/baselines.hpp"
#include "autohet/search.hpp"
#include "brute_force.hpp"
#include "nn/model_zoo.hpp"

namespace autohet {
namespace {

using core::AutoHetSearch;
using core::CrossbarEnv;
using core::EnvConfig;
using core::SearchConfig;

CrossbarEnv make_env(const nn::NetworkSpec& net) {
  EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  cfg.accel.tile_shared = true;
  return CrossbarEnv(net.mappable_layers(), cfg);
}

nn::NetworkSpec toy_net() {
  nn::NetworkSpec net;
  net.name = "toy";
  net.layers.push_back(nn::make_conv(3, 16, 3, 1, 1, 8, 8));
  net.layers.push_back(nn::make_conv(16, 32, 3, 1, 1, 8, 8));
  net.layers.push_back(nn::make_conv(32, 32, 3, 1, 1, 8, 8));
  net.layers.push_back(nn::make_fc(32 * 8 * 8, 10));
  return net;
}

SearchConfig fast_config(int episodes = 80) {
  SearchConfig cfg;
  cfg.episodes = episodes;
  cfg.warmup_episodes = 15;
  cfg.seed = 3;
  return cfg;
}

TEST(AutoHetSearch, ProducesValidConfiguration) {
  const auto env = make_env(toy_net());
  AutoHetSearch search(env, fast_config(40));
  const auto result = search.run();
  ASSERT_EQ(result.best_actions.size(), env.num_layers());
  for (auto a : result.best_actions) EXPECT_LT(a, env.num_actions());
  EXPECT_GT(result.best_reward, 0.0);
  EXPECT_EQ(result.history.size(), 40u);
}

TEST(AutoHetSearch, BestRewardIsMaxOfHistory) {
  const auto env = make_env(toy_net());
  AutoHetSearch search(env, fast_config(40));
  const auto result = search.run();
  double max_seen = 0.0;
  for (const auto& e : result.history) max_seen = std::max(max_seen, e.reward);
  EXPECT_DOUBLE_EQ(result.best_reward, max_seen);
  // The stored report corresponds to the stored actions.
  const auto re_eval = env.evaluate(result.best_actions);
  EXPECT_DOUBLE_EQ(env.reward(re_eval), result.best_reward);
}

TEST(AutoHetSearch, DeterministicForSeed) {
  const auto env = make_env(toy_net());
  const auto r1 = AutoHetSearch(env, fast_config(30)).run();
  const auto r2 = AutoHetSearch(env, fast_config(30)).run();
  EXPECT_EQ(r1.best_actions, r2.best_actions);
  EXPECT_EQ(r1.best_reward, r2.best_reward);
  ASSERT_EQ(r1.history.size(), r2.history.size());
  for (std::size_t i = 0; i < r1.history.size(); ++i) {
    EXPECT_EQ(r1.history[i].actions, r2.history[i].actions) << i;
  }
}

TEST(AutoHetSearch, NearOptimalOnSmallSpace) {
  // With the exhaustive optimum known (5^4 = 625 configs), the RL search
  // must land within 5% of it.
  const auto env = make_env(toy_net());
  const auto optimum = test::brute_force_optimum(env);
  const auto result = AutoHetSearch(env, fast_config(120)).run();
  EXPECT_GE(result.best_reward, 0.95 * optimum.reward);
}

TEST(AutoHetSearch, BeatsBestHomogeneousOnAlexNet) {
  // Fig. 9 headline, in miniature: the learned heterogeneous config beats
  // the best homogeneous RUE.
  const auto env = make_env(nn::alexnet());
  const auto homo = core::best_homogeneous(env);
  const auto result = AutoHetSearch(env, fast_config(120)).run();
  EXPECT_GT(result.best_report.rue(), homo.report.rue());
}

TEST(AutoHetSearch, LearningImprovesOverWarmup) {
  // Mean reward of the last 20 (policy) episodes should not be worse than
  // the mean of the random warmup episodes.
  const auto env = make_env(toy_net());
  auto cfg = fast_config(100);
  cfg.warmup_episodes = 20;
  const auto result = AutoHetSearch(env, cfg).run();
  const auto mean = [](auto begin, auto end) {
    double sum = 0.0;
    int n = 0;
    for (auto it = begin; it != end; ++it, ++n) sum += it->reward;
    return sum / n;
  };
  const double warmup_mean =
      mean(result.history.begin(), result.history.begin() + 20);
  const double tail_mean = mean(result.history.end() - 20,
                                result.history.end());
  EXPECT_GE(tail_mean, warmup_mean * 0.9);
}

TEST(AutoHetSearch, TracksTimeBreakdown) {
  const auto env = make_env(toy_net());
  const auto result = AutoHetSearch(env, fast_config(20)).run();
  EXPECT_GT(result.decision_seconds, 0.0);
  EXPECT_GT(result.simulator_seconds, 0.0);
  EXPECT_GT(result.learning_seconds, 0.0);
}

TEST(AutoHetSearch, ValidatesConfig) {
  const auto env = make_env(toy_net());
  SearchConfig bad;
  bad.episodes = 0;
  EXPECT_THROW(AutoHetSearch(env, bad), std::invalid_argument);
  SearchConfig negative_warmup;
  negative_warmup.warmup_episodes = -1;
  EXPECT_THROW(AutoHetSearch(env, negative_warmup), std::invalid_argument);
}

TEST(AutoHetSearch, EpisodeRecordsAreConsistent) {
  const auto env = make_env(toy_net());
  const auto result = AutoHetSearch(env, fast_config(10)).run();
  for (const auto& e : result.history) {
    EXPECT_EQ(e.actions.size(), env.num_layers());
    EXPECT_GT(e.energy_nj, 0.0);
    EXPECT_GT(e.utilization, 0.0);
    EXPECT_LE(e.utilization, 1.0);
    EXPECT_NEAR(e.rue, e.utilization * 100.0 / e.energy_nj, 1e-9);
  }
}

}  // namespace
}  // namespace autohet
