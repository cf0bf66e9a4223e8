#include <gtest/gtest.h>

#include "autohet/baselines.hpp"
#include "brute_force.hpp"
#include "nn/model_zoo.hpp"

namespace autohet {
namespace {

using core::CrossbarEnv;
using core::EnvConfig;

CrossbarEnv make_env(const nn::NetworkSpec& net,
                     std::vector<mapping::CrossbarShape> candidates =
                         mapping::hybrid_candidates()) {
  EnvConfig cfg;
  cfg.candidates = std::move(candidates);
  cfg.accel.tile_shared = true;
  return CrossbarEnv(net.mappable_layers(), cfg);
}

// A 3-layer toy network keeps the exhaustive space tiny (5^3 = 125).
nn::NetworkSpec toy_net() {
  nn::NetworkSpec net;
  net.name = "toy";
  net.layers.push_back(nn::make_conv(3, 16, 3, 1, 1, 8, 8));
  net.layers.push_back(nn::make_conv(16, 32, 3, 1, 1, 8, 8));
  net.layers.push_back(nn::make_fc(32 * 8 * 8, 10));
  return net;
}

TEST(Baselines, HomogeneousSweepCoversAllCandidates) {
  const auto env = make_env(nn::alexnet());
  const auto sweep = core::homogeneous_sweep(env);
  ASSERT_EQ(sweep.size(), 5u);
  for (std::size_t c = 0; c < sweep.size(); ++c) {
    EXPECT_EQ(sweep[c].actions,
              std::vector<std::size_t>(env.num_layers(), c));
    EXPECT_EQ(sweep[c].name, env.candidates()[c].name());
  }
}

TEST(Baselines, BestHomogeneousPicksHighestRue) {
  const auto env = make_env(nn::vgg16());
  const auto best = core::best_homogeneous(env);
  for (const auto& s : core::homogeneous_sweep(env)) {
    EXPECT_GE(best.report.rue(), s.report.rue());
  }
  EXPECT_TRUE(best.name.starts_with("Best-Homo"));
}

TEST(Baselines, ManualHeteroAssignsHeadAndTail) {
  const auto env = make_env(nn::vgg16(), mapping::square_candidates());
  // Fig. 3: 512x512 (idx 4) for first 10 layers, 256x256 (idx 3) for rest.
  const auto manual = core::manual_hetero(env, 4, 3, 10);
  for (std::size_t k = 0; k < env.num_layers(); ++k) {
    EXPECT_EQ(manual.actions[k], k < 10 ? 4u : 3u) << k;
  }
  EXPECT_THROW(core::manual_hetero(env, 9, 0, 10), std::invalid_argument);
  EXPECT_THROW(core::manual_hetero(env, 0, 0, 99), std::invalid_argument);
}

TEST(Baselines, Fig3ManualHeteroCompetitiveWithEveryHomogeneous) {
  // The paper's motivating observation (Fig. 3): a hand-tuned heterogeneous
  // config (512x512 head, 256x256 tail) tops the homogeneous accelerators
  // in RUE. In our model the paper's exact head=10 split beats the four
  // smaller homogeneous configs outright and lands within a few percent of
  // SXB512 (the precise ordering against SXB512 is sensitive to MNSIM's
  // internal energy tables — see EXPERIMENTS.md); a nearby manual split
  // (256x256 for the FC tail only) beats all five.
  const auto env = make_env(nn::vgg16(), mapping::square_candidates());
  const auto sweep = core::homogeneous_sweep(env);
  const auto paper_split = core::manual_hetero(env, 4, 3, 10);
  for (std::size_t c = 0; c + 1 < sweep.size(); ++c) {
    EXPECT_GT(paper_split.report.rue(), sweep[c].report.rue())
        << sweep[c].name;
  }
  EXPECT_GT(paper_split.report.rue(), 0.9 * sweep.back().report.rue());
  const auto fc_tail_split = core::manual_hetero(env, 4, 3, 13);
  for (const auto& homo : sweep) {
    EXPECT_GT(fc_tail_split.report.rue(), homo.report.rue()) << homo.name;
  }
}

TEST(Baselines, GreedyProducesValidActions) {
  const auto env = make_env(nn::alexnet());
  const auto greedy = core::greedy_search(env);
  ASSERT_EQ(greedy.actions.size(), env.num_layers());
  for (auto a : greedy.actions) EXPECT_LT(a, env.num_actions());
  EXPECT_GT(greedy.reward, 0.0);
}

TEST(Baselines, GreedyIsDeterministicAndScoresItsOwnActions) {
  const auto env = make_env(nn::alexnet());
  const auto first = core::greedy_search(env);
  const auto again = core::greedy_search(env);
  EXPECT_EQ(first.actions, again.actions);
  EXPECT_EQ(first.reward, again.reward);
  // The reported reward and report are those of the chosen allocation.
  const reram::NetworkReport report = env.evaluate(first.actions);
  EXPECT_EQ(first.reward, env.reward(report));
  EXPECT_EQ(first.report.energy.total_nj(), report.energy.total_nj());
  EXPECT_EQ(first.report.latency_ns, report.latency_ns);
  EXPECT_EQ(first.report.utilization, report.utilization);
}

TEST(Baselines, ExhaustiveFindsGlobalOptimum) {
  const auto env = make_env(toy_net());
  const auto best = test::brute_force_optimum(env);
  // Nothing can beat it: spot-check against the baselines.
  EXPECT_GE(best.reward, core::greedy_search(env).reward);
  EXPECT_GE(best.reward, core::best_homogeneous(env).reward);
}

TEST(Baselines, ExhaustiveEnumeratesWholeSpace) {
  // On a single-layer env the exhaustive optimum equals the best candidate.
  nn::NetworkSpec net;
  net.name = "one";
  net.layers.push_back(nn::make_conv(16, 64, 3, 1, 1, 8, 8));
  const auto env = make_env(net);
  const auto best = test::brute_force_optimum(env);
  double expected = -1.0;
  for (std::size_t c = 0; c < env.num_actions(); ++c) {
    expected = std::max(expected,
                        core::evaluate_homogeneous_strategy(env, c).reward);
  }
  EXPECT_DOUBLE_EQ(best.reward, expected);
}

TEST(Baselines, HeterogeneousOptimumBeatsBestHomogeneousOnToyNet) {
  // The central premise of the paper, verified exactly on a small space.
  const auto env = make_env(toy_net());
  const auto best = test::brute_force_optimum(env);
  const auto homo = core::best_homogeneous(env);
  EXPECT_GE(best.reward, homo.reward);
}

}  // namespace
}  // namespace autohet
