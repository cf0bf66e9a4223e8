// The RL environment: Table-1 state construction, action quantization, and
// the Eq. 2 reward over hardware reports.
#include <gtest/gtest.h>

#include "autohet/env.hpp"
#include "nn/model_zoo.hpp"

namespace autohet {
namespace {

using core::CrossbarEnv;
using core::EnvConfig;

CrossbarEnv make_env(const nn::NetworkSpec& net = nn::alexnet(),
                     bool shared = false) {
  EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  cfg.accel.tile_shared = shared;
  return CrossbarEnv(net.mappable_layers(), cfg);
}

TEST(CrossbarEnv, BasicGeometry) {
  const auto env = make_env();
  EXPECT_EQ(env.num_layers(), 8u);
  EXPECT_EQ(env.num_actions(), 5u);
  EXPECT_GT(env.energy_scale_nj(), 0.0);
}

TEST(CrossbarEnv, StateVectorHasTenFeatures) {
  const auto env = make_env();
  const auto s = env.state(0, 0, 0.0);
  ASSERT_EQ(s.size(), static_cast<std::size_t>(core::kStateDim));
  for (double v : s) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(CrossbarEnv, StateEncodesLayerType) {
  const auto env = make_env();
  // AlexNet layer 0 is CONV (t = 1), layer 5 is FC (t = 0).
  EXPECT_EQ(env.state(0, 0, 0.0)[1], 1.0);
  EXPECT_EQ(env.state(5, 0, 0.0)[1], 0.0);
}

TEST(CrossbarEnv, StateCarriesDynamicFeatures) {
  const auto env = make_env();
  const auto s = env.state(3, 2, 0.7);
  EXPECT_DOUBLE_EQ(s[8], 2.0 / 4.0);  // a_k normalized by C-1
  EXPECT_DOUBLE_EQ(s[9], 0.7);        // u_k
}

TEST(CrossbarEnv, LayerIndexFeatureIsMonotone) {
  const auto env = make_env();
  double prev = -1.0;
  for (std::size_t k = 0; k < env.num_layers(); ++k) {
    const double v = env.state(k, 0, 0.0)[0];
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(CrossbarEnv, ActionQuantizationCoversAllCandidates) {
  const auto env = make_env();
  EXPECT_EQ(env.action_to_index(0.0), 0u);
  EXPECT_EQ(env.action_to_index(0.19), 0u);
  EXPECT_EQ(env.action_to_index(0.21), 1u);
  EXPECT_EQ(env.action_to_index(0.99), 4u);
  EXPECT_EQ(env.action_to_index(1.0), 4u);   // boundary clamps into range
  EXPECT_EQ(env.action_to_index(-5.0), 0u);  // clamped
  EXPECT_EQ(env.action_to_index(7.0), 4u);
}

TEST(CrossbarEnv, LayerUtilizationMatchesMapping) {
  const auto env = make_env(nn::vgg16());
  // VGG16 L4 (k=3, 128->128): 100% on 36x32 (§3.3).
  const auto& candidates = env.candidates();
  std::size_t idx36 = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i] == mapping::CrossbarShape{36, 32}) idx36 = i;
  }
  EXPECT_DOUBLE_EQ(env.layer_utilization(3, idx36), 1.0);
}

TEST(CrossbarEnv, EvaluateRequiresOneActionPerLayer) {
  const auto env = make_env();
  EXPECT_THROW(env.evaluate({0, 1}), std::invalid_argument);
  std::vector<std::size_t> bad(env.num_layers(), 9);
  EXPECT_THROW(env.evaluate(bad), std::invalid_argument);
}

TEST(CrossbarEnv, CompileResolvesCandidatesAndRejectsBadActions) {
  const auto env = make_env();
  const auto& candidates = env.candidates();
  std::vector<std::size_t> actions(env.num_layers());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    actions[i] = (actions.size() - i) % candidates.size();
  }
  const plan::DeploymentPlan p = env.compile(actions, "AlexNet");
  ASSERT_EQ(p.shapes().size(), actions.size());
  for (std::size_t i = 0; i < actions.size(); ++i) {
    EXPECT_EQ(p.shapes()[i], candidates[actions[i]]) << "layer " << i;
  }
  EXPECT_EQ(p.network, "AlexNet");

  EXPECT_THROW(env.compile({0, 1}, "AlexNet"), std::invalid_argument);
  std::vector<std::size_t> out_of_range = actions;
  out_of_range.back() = candidates.size();
  EXPECT_THROW(env.compile(out_of_range, "AlexNet"), std::invalid_argument);
}

TEST(CrossbarEnv, RewardPrefersBetterConfigurations) {
  const auto env = make_env(nn::vgg16());
  // All-largest (576x512, index 4) should beat all-smallest (32x32) on
  // reward for VGG16: the energy term dominates.
  const auto small = env.evaluate(std::vector<std::size_t>(16, 0));
  const auto large = env.evaluate(std::vector<std::size_t>(16, 4));
  EXPECT_GT(env.reward(large), env.reward(small));
}

TEST(CrossbarEnv, RewardIsScaledToFriendlyRange) {
  const auto env = make_env(nn::vgg16());
  for (std::size_t c = 0; c < env.num_actions(); ++c) {
    const auto r = env.evaluate(std::vector<std::size_t>(16, c));
    const double reward = env.reward(r);
    EXPECT_GT(reward, 0.0);
    EXPECT_LT(reward, 10.0);
  }
}

TEST(CrossbarEnv, RewardOrderingMatchesRue) {
  // For a fixed env, reward(cfg) ordering must equal RUE ordering — the
  // scaling is a constant factor.
  const auto env = make_env(nn::alexnet());
  std::vector<std::pair<double, double>> pairs;  // (reward, rue)
  for (std::size_t c = 0; c < env.num_actions(); ++c) {
    const auto r = env.evaluate(std::vector<std::size_t>(8, c));
    pairs.emplace_back(env.reward(r), r.rue());
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = 0; j < pairs.size(); ++j) {
      EXPECT_EQ(pairs[i].first < pairs[j].first,
                pairs[i].second < pairs[j].second)
          << i << " vs " << j;
    }
  }
}

TEST(CrossbarEnv, ScalesAreCalibratedPerNetworkNotPerObjective) {
  // Every objective divides by the same three scales: the largest
  // candidate's homogeneous report on the env's own network.
  for (const auto& net : {nn::alexnet(), nn::vgg16()}) {
    const auto env = make_env(net);
    const auto ref = env.evaluate(std::vector<std::size_t>(
        env.num_layers(), env.num_actions() - 1));  // 576x512
    EXPECT_EQ(env.energy_scale_nj(), ref.energy.total_nj()) << net.name;
    EXPECT_EQ(env.area_scale_um2(), ref.area.total_um2()) << net.name;
    EXPECT_EQ(env.latency_scale_ns(), ref.latency_ns) << net.name;
    for (const auto objective : {core::RewardObjective::kAreaAware,
                                 core::RewardObjective::kLatencyAware}) {
      EnvConfig cfg;
      cfg.candidates = mapping::hybrid_candidates();
      cfg.objective = objective;
      const CrossbarEnv other(net.mappable_layers(), cfg);
      EXPECT_EQ(other.energy_scale_nj(), env.energy_scale_nj()) << net.name;
      EXPECT_EQ(other.area_scale_um2(), env.area_scale_um2()) << net.name;
      EXPECT_EQ(other.latency_scale_ns(), env.latency_scale_ns()) << net.name;
    }
  }
  EXPECT_NE(make_env(nn::alexnet()).energy_scale_nj(),
            make_env(nn::vgg16()).energy_scale_nj());
}

TEST(CrossbarEnv, ValidatesConstruction) {
  EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  EXPECT_THROW(CrossbarEnv({}, cfg), std::invalid_argument);
  EnvConfig no_candidates;
  EXPECT_THROW(CrossbarEnv(nn::alexnet().mappable_layers(), no_candidates),
               std::invalid_argument);
}

TEST(CrossbarEnv, RejectsPoolingLayers) {
  EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  std::vector<nn::LayerSpec> layers = {nn::make_maxpool(4, 2, 2, 8, 8)};
  EXPECT_THROW(CrossbarEnv(layers, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace autohet
