// Search-driver variants: seeded and unseeded warmup, and objective
// plumbing all flow through AutoHetSearch correctly.
#include <gtest/gtest.h>

#include "autohet/baselines.hpp"
#include "autohet/search.hpp"
#include "nn/model_zoo.hpp"

namespace autohet {
namespace {

using core::AutoHetSearch;
using core::CrossbarEnv;
using core::EnvConfig;
using core::SearchConfig;

CrossbarEnv make_env(core::RewardObjective objective =
                         core::RewardObjective::kUtilizationPerEnergy) {
  EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  cfg.accel.tile_shared = true;
  cfg.objective = objective;
  return CrossbarEnv(nn::alexnet().mappable_layers(), cfg);
}

SearchConfig base_config(int episodes = 60) {
  SearchConfig cfg;
  cfg.episodes = episodes;
  cfg.warmup_episodes = 15;
  cfg.seed = 2;
  return cfg;
}

TEST(SearchVariants, SeededWarmupDominatesGreedyByConstruction) {
  const auto env = make_env();
  const auto greedy = core::greedy_search(env);
  auto cfg = base_config(30);
  const auto result = AutoHetSearch(env, cfg).run();
  EXPECT_GE(result.best_reward, greedy.reward);
}

TEST(SearchVariants, UnseededWarmupStillRuns) {
  const auto env = make_env();
  auto cfg = base_config(30);
  cfg.seeded_warmup = false;
  const auto result = AutoHetSearch(env, cfg).run();
  EXPECT_EQ(result.history.size(), 30u);
  EXPECT_GT(result.best_reward, 0.0);
}

TEST(SearchVariants, SeededAndUnseededDiverge) {
  const auto env = make_env();
  auto seeded_cfg = base_config(20);
  auto unseeded_cfg = base_config(20);
  unseeded_cfg.seeded_warmup = false;
  const auto seeded = AutoHetSearch(env, seeded_cfg).run();
  const auto unseeded = AutoHetSearch(env, unseeded_cfg).run();
  // First episode differs: a homogeneous demonstration vs random actions.
  EXPECT_NE(seeded.history[0].actions, unseeded.history[0].actions);
  // Seeded episode 0 is the all-candidate-0 homogeneous configuration.
  EXPECT_EQ(seeded.history[0].actions,
            std::vector<std::size_t>(env.num_layers(), 0));
}

TEST(SearchVariants, ObjectiveReachesSearchReward) {
  const auto area_env = make_env(core::RewardObjective::kAreaAware);
  const auto result = AutoHetSearch(area_env, base_config(40)).run();
  // The recorded best reward is the area-aware reward of the best config.
  EXPECT_NEAR(result.best_reward,
              area_env.reward(area_env.evaluate(result.best_actions)),
              result.best_reward * 1e-12);
}

TEST(SearchVariants, CriticLossAppearsOncePoolFills) {
  const auto env = make_env();
  const auto result = AutoHetSearch(env, base_config(40)).run();
  // Early episodes (pool below one batch of 64 transitions: 8 layers per
  // episode -> 8 episodes) report zero loss; later ones report positive.
  EXPECT_EQ(result.history.front().mean_critic_loss, 0.0);
  bool saw_positive = false;
  for (const auto& e : result.history) {
    if (e.mean_critic_loss > 0.0) saw_positive = true;
  }
  EXPECT_TRUE(saw_positive);
}

}  // namespace
}  // namespace autohet
