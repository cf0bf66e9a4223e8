// Multi-objective reward variants of the search environment.
#include <gtest/gtest.h>

#include <algorithm>

#include "autohet/baselines.hpp"
#include "autohet/env.hpp"
#include "autohet/search.hpp"
#include "nn/model_zoo.hpp"

namespace autohet {
namespace {

using core::CrossbarEnv;
using core::EnvConfig;
using core::RewardObjective;

CrossbarEnv make_env(RewardObjective objective,
                     const nn::NetworkSpec& net = nn::alexnet()) {
  EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  cfg.accel.tile_shared = true;
  cfg.objective = objective;
  return CrossbarEnv(net.mappable_layers(), cfg);
}

TEST(Objectives, DefaultMatchesPaperEquation2) {
  const auto env = make_env(RewardObjective::kUtilizationPerEnergy);
  const auto r = env.evaluate(std::vector<std::size_t>(8, 4));
  EXPECT_NEAR(env.reward(r),
              r.utilization / (r.energy.total_nj() / env.energy_scale_nj()),
              1e-12);
}

TEST(Objectives, AreaAwarePenalizesArea) {
  // Two configurations with similar u/e but different area must rank
  // differently under the area-aware objective when the area gap is big
  // enough. Compare the all-32x32 config (huge ADC area) against
  // all-576x512 under both objectives.
  const auto rue_env = make_env(RewardObjective::kUtilizationPerEnergy);
  const auto area_env = make_env(RewardObjective::kAreaAware);
  const std::vector<std::size_t> small(8, 0);
  const std::vector<std::size_t> large(8, 4);
  const auto r_small = rue_env.evaluate(small);
  const auto r_large = rue_env.evaluate(large);
  // Ratio of rewards (large/small) must be strictly bigger under the
  // area-aware objective: the large config's smaller area boosts it.
  const double rue_ratio =
      rue_env.reward(r_large) / rue_env.reward(r_small);
  const double area_ratio =
      area_env.reward(area_env.evaluate(large)) /
      area_env.reward(area_env.evaluate(small));
  EXPECT_GT(area_ratio, rue_ratio);
}

TEST(Objectives, LatencyAwareDividesByNormalizedLatency) {
  const auto env = make_env(RewardObjective::kLatencyAware);
  const auto base_env = make_env(RewardObjective::kUtilizationPerEnergy);
  const std::vector<std::size_t> actions(8, 2);
  const auto r = env.evaluate(actions);
  const double base = base_env.reward(r);
  const double got = env.reward(r);
  EXPECT_NEAR(got, base / (r.latency_ns / env.latency_scale_ns()),
              got * 1e-12);
}

TEST(Objectives, RewardsArePositiveAndFiniteAcrossCandidates) {
  for (const auto objective :
       {RewardObjective::kUtilizationPerEnergy, RewardObjective::kAreaAware,
        RewardObjective::kLatencyAware}) {
    const auto env = make_env(objective);
    for (std::size_t c = 0; c < env.num_actions(); ++c) {
      const double r =
          env.reward(env.evaluate(std::vector<std::size_t>(8, c)));
      EXPECT_GT(r, 0.0);
      EXPECT_LT(r, 1e6);
    }
  }
}

TEST(Objectives, AreaAwareSearchFindsSmallerChips) {
  // Full searches under u/e vs area-aware: the area-aware result must not
  // have a larger chip.
  const auto rue_env = make_env(RewardObjective::kUtilizationPerEnergy,
                                nn::alexnet());
  const auto area_env = make_env(RewardObjective::kAreaAware, nn::alexnet());
  core::SearchConfig cfg;
  cfg.episodes = 80;
  cfg.seed = 13;
  const auto rue_result = core::AutoHetSearch(rue_env, cfg).run();
  const auto area_result = core::AutoHetSearch(area_env, cfg).run();
  EXPECT_LE(area_result.best_report.area.total_um2(),
            rue_result.best_report.area.total_um2() * 1.02);
}

TEST(Objectives, CalibratedScalesGiveExactAreaAndLatencyRewards) {
  const auto area_env = make_env(RewardObjective::kAreaAware);
  const auto latency_env = make_env(RewardObjective::kLatencyAware);
  // The scales are the largest candidate's homogeneous report.
  const auto& candidates = area_env.candidates();
  const auto largest = static_cast<std::size_t>(
      std::max_element(candidates.begin(), candidates.end()) -
      candidates.begin());
  const std::vector<std::size_t> homogeneous(area_env.num_layers(), largest);
  const auto ref = area_env.evaluate(homogeneous);
  EXPECT_EQ(area_env.energy_scale_nj(),
            std::max(ref.energy.total_nj(), 1.0));
  EXPECT_EQ(area_env.area_scale_um2(), std::max(ref.area.total_um2(), 1.0));
  EXPECT_EQ(latency_env.latency_scale_ns(), std::max(ref.latency_ns, 1.0));

  const auto r = area_env.evaluate(std::vector<std::size_t>(8, 2));
  const double area_expected =
      r.utilization / (r.energy.total_nj() / area_env.energy_scale_nj()) /
      (r.area.total_um2() / area_env.area_scale_um2());
  EXPECT_NEAR(area_env.reward(r), area_expected, area_expected * 1e-12);
  const double latency_expected =
      r.utilization / (r.energy.total_nj() / latency_env.energy_scale_nj()) /
      (r.latency_ns / latency_env.latency_scale_ns());
  EXPECT_NEAR(latency_env.reward(r), latency_expected,
              latency_expected * 1e-12);
}

}  // namespace
}  // namespace autohet
