// The seeded non-ideality model: deterministic fault maps, bit-identity of
// the ideal config, stuck-at semantics in the programming path, monotone
// degradation, and the Monte-Carlo robustness plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "autohet/env.hpp"
#include "common/rng.hpp"
#include "nn/model_zoo.hpp"
#include "reram/eval_engine.hpp"
#include "reram/faults.hpp"
#include "reram/functional.hpp"
#include "reram/programming.hpp"
#include "tensor/ops.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::FaultConfig;
using reram::FaultMapStats;
using reram::FaultModel;
using reram::SimulatedModel;

FaultConfig stuck_config(double rate, int cell_bits = 1) {
  FaultConfig faults;
  faults.stuck_at_zero_rate = rate / 2.0;
  faults.stuck_at_one_rate = rate / 2.0;
  faults.cell_bits = cell_bits;
  return faults;
}

std::vector<std::int8_t> ramp_weights(std::size_t n) {
  std::vector<std::int8_t> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = static_cast<std::int8_t>(static_cast<int>(i % 255) - 127);
  }
  return w;
}

TEST(FaultConfig, DefaultIsIdeal) {
  EXPECT_TRUE(FaultConfig{}.ideal());
  EXPECT_FALSE(stuck_config(0.01).ideal());
  FaultConfig drift_only;
  drift_only.drift_time_s = 1e6;
  drift_only.drift_nu = 0.1;
  EXPECT_FALSE(drift_only.ideal());
  // Drift needs both a time and an exponent.
  drift_only.drift_nu = 0.0;
  EXPECT_TRUE(drift_only.ideal());
}

TEST(FaultConfig, ForTrialDerivesDistinctSeeds) {
  const FaultConfig base = stuck_config(0.01);
  const auto a = base.for_trial(0);
  const auto b = base.for_trial(1);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.seed, base.seed);
  EXPECT_EQ(a.stuck_at_zero_rate, base.stuck_at_zero_rate);
  // Same trial, same derived seed.
  EXPECT_EQ(base.for_trial(7).seed, base.for_trial(7).seed);
}

TEST(FaultModel, SameSeedSameFaultMap) {
  const FaultModel model(stuck_config(0.05, 2));
  auto a = ramp_weights(64 * 64);
  auto b = ramp_weights(64 * 64);
  const FaultMapStats sa = model.apply(a, 64, 64, 64, /*crossbar_id=*/42);
  const FaultMapStats sb = model.apply(b, 64, 64, 64, /*crossbar_id=*/42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa.stuck_at_zero, sb.stuck_at_zero);
  EXPECT_EQ(sa.stuck_at_one, sb.stuck_at_one);
  EXPECT_GT(sa.stuck_at_zero + sa.stuck_at_one, 0);
  EXPECT_EQ(sa.physical_cells, 64 * 64 * 4);  // 4 planes at 2 bits/cell
}

TEST(FaultModel, DifferentCrossbarsGetIndependentMaps) {
  const FaultModel model(stuck_config(0.05));
  auto a = ramp_weights(64 * 64);
  auto b = ramp_weights(64 * 64);
  model.apply(a, 64, 64, 64, /*crossbar_id=*/1);
  model.apply(b, 64, 64, 64, /*crossbar_id=*/2);
  EXPECT_NE(a, b);
}

TEST(FaultModel, IdealApplyIsNoOp) {
  const FaultModel model(FaultConfig{});
  auto w = ramp_weights(32 * 32);
  const auto original = w;
  const FaultMapStats stats = model.apply(w, 32, 32, 32, 0);
  EXPECT_EQ(w, original);
  EXPECT_EQ(stats.physical_cells, 0);
  EXPECT_EQ(stats.weights_changed, 0);
}

TEST(FaultModel, StuckAtOneForcesFullScale) {
  FaultConfig faults;
  faults.stuck_at_one_rate = 1.0;
  const FaultModel model(faults);
  auto w = ramp_weights(16);
  const FaultMapStats stats = model.apply(w, 4, 4, 4, 0);
  // Every plane stuck at its top level: offset 255 -> weight +127.
  for (const std::int8_t v : w) EXPECT_EQ(v, 127);
  EXPECT_EQ(stats.stuck_at_one, 16 * 8);
  EXPECT_EQ(stats.stuck_at_zero, 0);
}

TEST(FaultModel, StuckAtZeroForcesOffsetZero) {
  FaultConfig faults;
  faults.stuck_at_zero_rate = 1.0;
  faults.cell_bits = 4;
  const FaultModel model(faults);
  auto w = ramp_weights(16);
  const FaultMapStats stats = model.apply(w, 4, 4, 4, 0);
  // Every plane stuck at level 0: offset 0 -> weight -128 (HRS everywhere).
  for (const std::int8_t v : w) EXPECT_EQ(v, -128);
  EXPECT_EQ(stats.stuck_at_zero, 16 * 2);  // 2 planes at 4 bits/cell
}

TEST(FaultModel, AmplificationGrowsWithCellBits) {
  const double a1 = FaultModel::level_noise_amplification(1);
  const double a2 = FaultModel::level_noise_amplification(2);
  const double a4 = FaultModel::level_noise_amplification(4);
  const double a8 = FaultModel::level_noise_amplification(8);
  EXPECT_LT(a1, a2);
  EXPECT_LT(a2, a4);
  EXPECT_LT(a4, a8);
  // 1 bit/cell: E[v²] = 1/2 over {0,1}, Σ 4^p = (4^8-1)/3 = 21845.
  EXPECT_NEAR(a1, std::sqrt(0.5 * 21845.0), 1e-9);
}

TEST(FaultModel, ValidateRejectsBadConfigs) {
  FaultConfig bad = stuck_config(0.01);
  bad.cell_bits = 3;  // does not divide 8
  EXPECT_THROW(FaultModel{bad}, std::invalid_argument);
  FaultConfig negative;
  negative.program_sigma = -0.1;
  EXPECT_THROW(FaultModel{negative}, std::invalid_argument);
  FaultConfig too_much;
  too_much.stuck_at_zero_rate = 0.7;
  too_much.stuck_at_one_rate = 0.7;
  EXPECT_THROW(FaultModel{too_much}, std::invalid_argument);
}

TEST(SimulatedModelFaults, IdealConfigIsBitIdentical) {
  common::Rng rng(11);
  const nn::Model model(nn::lenet5(), rng);
  const std::vector<CrossbarShape> shapes(5, {128, 128});
  const SimulatedModel clean(model, shapes);
  const SimulatedModel ideal(model, shapes, reram::DatapathMode::kInteger,
                             FaultConfig{});
  common::Rng img_rng(12);
  for (int s = 0; s < 4; ++s) {
    const auto img = nn::synthetic_image(img_rng, 1, 32, 32);
    const auto a = clean.forward(img);
    const auto b = ideal.forward(img);
    EXPECT_EQ(tensor::max_abs_diff(a, b), 0.0f) << s;
  }
  EXPECT_EQ(ideal.fault_stats().weights_changed, 0);
}

TEST(SimulatedModelFaults, SameSeedSameFabric) {
  common::Rng rng(11);
  const nn::Model model(nn::lenet5(), rng);
  const std::vector<CrossbarShape> shapes(5, {128, 128});
  const FaultConfig faults = stuck_config(0.01, 2);
  const SimulatedModel a(model, shapes, reram::DatapathMode::kInteger, faults);
  const SimulatedModel b(model, shapes, reram::DatapathMode::kInteger, faults);
  EXPECT_EQ(a.fault_stats().stuck_at_zero, b.fault_stats().stuck_at_zero);
  EXPECT_GT(a.fault_stats().weights_changed, 0);
  common::Rng img_rng(12);
  const auto img = nn::synthetic_image(img_rng, 1, 32, 32);
  EXPECT_EQ(tensor::max_abs_diff(a.forward(img), b.forward(img)), 0.0f);
}

TEST(SimulatedModelFaults, ReadNoiseIsDeterministicPerInstance) {
  common::Rng rng(11);
  const nn::Model model(nn::lenet5(), rng);
  const std::vector<CrossbarShape> shapes(5, {128, 128});
  FaultConfig faults;
  faults.read_sigma = 0.002;
  const SimulatedModel a(model, shapes, reram::DatapathMode::kInteger, faults);
  const SimulatedModel b(model, shapes, reram::DatapathMode::kInteger, faults);
  common::Rng img_rng(12);
  const auto img = nn::synthetic_image(img_rng, 1, 32, 32);
  // Fresh fabrics start their read-noise streams at the same point.
  EXPECT_EQ(tensor::max_abs_diff(a.forward(img), b.forward(img)), 0.0f);
  // Read noise is only modeled on the integer datapath.
  EXPECT_THROW(SimulatedModel(model, shapes, reram::DatapathMode::kBitSerial,
                              faults),
               std::invalid_argument);
}

TEST(AnalyticVulnerability, MonotoneInRateAndFragmentation) {
  const auto layers = nn::lenet5().mappable_layers();
  const std::vector<CrossbarShape> big(layers.size(), {576, 512});
  const std::vector<CrossbarShape> small(layers.size(), {64, 64});
  double prev = 0.0;
  for (const double rate : {0.0, 1e-4, 1e-3, 1e-2, 1e-1}) {
    const double v =
        reram::analytic_network_vulnerability(layers, big, stuck_config(rate));
    EXPECT_GE(v, prev);
    if (rate > 0.0) {
      EXPECT_GT(v, prev);
    }
    prev = v;
  }
  // Fragmenting a layer across more row blocks accumulates more
  // conversion-referred error.
  const FaultConfig faults = stuck_config(1e-3);
  EXPECT_GT(reram::analytic_network_vulnerability(layers, small, faults),
            reram::analytic_network_vulnerability(layers, big, faults));
  // Multi-bit cells amplify the same defect rate.
  EXPECT_GT(
      reram::analytic_network_vulnerability(layers, big, stuck_config(1e-3, 4)),
      reram::analytic_network_vulnerability(layers, big, stuck_config(1e-3, 1)));
  EXPECT_EQ(reram::analytic_network_vulnerability(layers, big, FaultConfig{}),
            0.0);
}

TEST(EvaluationEngine, ReportsCarryAnalyticVulnerability) {
  const auto layers = nn::lenet5().mappable_layers();
  const std::vector<CrossbarShape> candidates = {{64, 64}, {576, 512}};
  reram::AcceleratorConfig accel;
  accel.faults = stuck_config(1e-3);
  const reram::EvaluationEngine engine(layers, candidates, accel);
  const std::vector<std::size_t> actions(layers.size(), 1);
  const auto engine_report = engine.evaluate(actions);
  const auto direct = plan::evaluate_plan(plan::compile_plan(
      "LeNet5", layers,
      std::vector<CrossbarShape>(layers.size(), candidates[1]), accel));
  EXPECT_GT(engine_report.fault_vulnerability, 0.0);
  EXPECT_EQ(engine_report.fault_vulnerability, direct.fault_vulnerability);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    EXPECT_EQ(engine_report.layers[l].fault_vulnerability,
              direct.layers[l].fault_vulnerability);
  }
  // Ideal accel: vulnerability stays zero everywhere.
  const reram::EvaluationEngine ideal(layers, candidates,
                                      reram::AcceleratorConfig{});
  EXPECT_EQ(ideal.evaluate(actions).fault_vulnerability, 0.0);
}

TEST(EvaluationEngine, MonteCarloRobustnessPlumbing) {
  common::Rng rng(11);
  const nn::Model model(nn::lenet5(), rng);
  const auto layers = nn::lenet5().mappable_layers();
  const std::vector<CrossbarShape> candidates = {{128, 128}, {576, 512}};
  const reram::EvaluationEngine engine(layers, candidates,
                                       reram::AcceleratorConfig{});
  const std::vector<std::size_t> actions(layers.size(), 0);
  reram::RobustnessOptions opts;
  opts.trials = 3;
  opts.samples = 6;
  const auto a =
      engine.evaluate_robustness(model, actions, stuck_config(0.01), opts);
  EXPECT_EQ(a.trials, 3);
  EXPECT_EQ(a.samples, 6);
  EXPECT_GE(a.mean_accuracy, 0.0);
  EXPECT_LE(a.mean_accuracy, 1.0);
  EXPECT_GE(a.stddev_accuracy, 0.0);
  EXPECT_LE(a.min_accuracy, a.mean_accuracy);
  EXPECT_GE(a.max_accuracy, a.mean_accuracy);
  EXPECT_EQ(a.layer_error.size(), layers.size());
  EXPECT_GT(a.fault_stats.physical_cells, 0);
  // Deterministic: a second run reproduces every statistic.
  const auto b =
      engine.evaluate_robustness(model, actions, stuck_config(0.01), opts);
  EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_EQ(a.stddev_accuracy, b.stddev_accuracy);
  EXPECT_EQ(a.mean_logit_error, b.mean_logit_error);
  // An ideal config scores perfect agreement with zero spread.
  const auto ideal =
      engine.evaluate_robustness(model, actions, FaultConfig{}, opts);
  EXPECT_EQ(ideal.mean_accuracy, 1.0);
  EXPECT_EQ(ideal.stddev_accuracy, 0.0);
  // Heavy faults degrade below the ideal score.
  const auto heavy =
      engine.evaluate_robustness(model, actions, stuck_config(0.05), opts);
  EXPECT_LT(heavy.mean_accuracy, 1.0);
  EXPECT_GE(heavy.mean_logit_error, a.mean_logit_error);
}

TEST(Programming, FaultRetriesCostEnergyAndLatency) {
  const auto layers = nn::lenet5().mappable_layers();
  const std::vector<CrossbarShape> shapes(layers.size(), {128, 128});
  const auto allocation =
      mapping::allocate_tiles(layers, shapes, 4, false);
  const reram::DeviceParams device;
  const reram::ProgrammingParams params;
  const auto clean = reram::evaluate_programming(allocation, device, params);
  const auto ideal =
      reram::evaluate_programming(allocation, device, params, FaultConfig{});
  EXPECT_EQ(clean.energy_nj, ideal.energy_nj);
  EXPECT_EQ(clean.latency_ns, ideal.latency_ns);
  EXPECT_EQ(ideal.cells_stuck, 0);
  const auto faulty =
      reram::evaluate_programming(allocation, device, params, stuck_config(0.01));
  EXPECT_GT(faulty.cells_stuck, 0);
  EXPECT_GT(faulty.energy_nj, clean.energy_nj);
  EXPECT_GT(faulty.latency_ns, clean.latency_ns);
  // More defects, more retries.
  const auto worse =
      reram::evaluate_programming(allocation, device, params, stuck_config(0.05));
  EXPECT_GT(worse.cells_stuck, faulty.cells_stuck);
  EXPECT_GT(worse.energy_nj, faulty.energy_nj);
}

TEST(Reward, RobustnessAwareReducesToPaperRewardWhenIdeal) {
  const auto layers = nn::lenet5().mappable_layers();
  core::EnvConfig base_cfg;
  base_cfg.candidates = {{64, 64}, {576, 512}};
  const core::CrossbarEnv base_env(layers, base_cfg);

  core::EnvConfig robust_cfg = base_cfg;
  robust_cfg.objective = core::RewardObjective::kRobustnessAware;
  const core::CrossbarEnv ideal_env(layers, robust_cfg);

  const std::vector<std::size_t> actions(layers.size(), 1);
  const auto report = base_env.evaluate(actions);
  EXPECT_EQ(ideal_env.reward(ideal_env.evaluate(actions)),
            base_env.reward(report));

  // A non-ideal device discounts the reward by the vulnerability.
  robust_cfg.accel.faults = stuck_config(1e-2);
  const core::CrossbarEnv faulty_env(layers, robust_cfg);
  const auto faulty_report = faulty_env.evaluate(actions);
  EXPECT_GT(faulty_report.fault_vulnerability, 0.0);
  EXPECT_LT(faulty_env.reward(faulty_report), base_env.reward(report));
  EXPECT_NEAR(faulty_env.reward(faulty_report),
              base_env.reward(report) *
                  (1.0 - faulty_report.fault_vulnerability),
              1e-12);
}

}  // namespace
}  // namespace autohet
