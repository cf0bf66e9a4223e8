// The determinism anchor of the paper's §4.5 search: VGG16, hybrid
// candidates, tile-shared allocation, 300 episodes (25 warm-up), seed 1
// reaches best reward 0.834291. The search is seeded and the hardware model
// analytical, so any drift is a real behaviour change. The DDPG update runs
// through the ISA-dispatched RL kernels, whose variants are bit-identical by
// contract: the whole episode history must match under every one of them.
#include <gtest/gtest.h>

#include <cmath>

#include "autohet/search.hpp"
#include "nn/model_zoo.hpp"
#include "rl/kernels/dense.hpp"

namespace autohet {
namespace {

namespace rk = rl::kernels;

core::SearchResult run_anchor_search(const core::CrossbarEnv& env) {
  core::SearchConfig cfg;
  cfg.episodes = 300;
  cfg.warmup_episodes = 25;
  cfg.seed = 1;
  return core::AutoHetSearch(env, cfg).run();
}

TEST(SearchAnchor, Vgg16BestRewardAndHistoryIdenticalAcrossRlVariants) {
  core::EnvConfig env_cfg;
  env_cfg.candidates = mapping::hybrid_candidates();
  env_cfg.accel.tile_shared = true;
  env_cfg.accel.pes_per_tile = 4;
  const core::CrossbarEnv env(nn::vgg16().mappable_layers(), env_cfg);

  const rk::Variant previous = rk::active_variant();
  rk::set_variant(rk::Variant::kPortable);
  const core::SearchResult reference = run_anchor_search(env);
  EXPECT_LE(std::fabs(reference.best_reward - 0.834291), 5e-7)
      << "best reward " << reference.best_reward;
  ASSERT_EQ(reference.history.size(), 300u);

  for (const rk::Variant v : rk::supported_variants()) {
    if (v == rk::Variant::kPortable) continue;
    SCOPED_TRACE(rk::variant_name(v));
    rk::set_variant(v);
    const core::SearchResult result = run_anchor_search(env);
    EXPECT_EQ(result.best_reward, reference.best_reward);
    ASSERT_EQ(result.history.size(), reference.history.size());
    for (std::size_t e = 0; e < result.history.size(); ++e) {
      ASSERT_EQ(result.history[e].reward, reference.history[e].reward)
          << "episode " << e;
      ASSERT_EQ(result.history[e].mean_critic_loss,
                reference.history[e].mean_critic_loss)
          << "episode " << e;
      ASSERT_EQ(result.history[e].actions, reference.history[e].actions)
          << "episode " << e;
    }
  }
  rk::set_variant(previous);
}

}  // namespace
}  // namespace autohet
