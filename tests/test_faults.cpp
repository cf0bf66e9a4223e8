// The seeded non-ideality model: deterministic fault maps, bit-identity of
// the ideal config, stuck-at semantics in the programming path, monotone
// degradation, and the Monte-Carlo robustness plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>

#include "autohet/env.hpp"
#include "common/rng.hpp"
#include "nn/model_zoo.hpp"
#include "oracle.hpp"
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

TEST(SimulatedModelFaults, ProgramVariationDegradesAccuracyGracefully) {
  // LeNet-5 with 2-bit cells: small programming variation keeps most argmax
  // agreement with the float model; huge variation does no better.
  common::Rng rng(14);
  const nn::Model model(nn::lenet5(), rng);
  const std::vector<CrossbarShape> shapes(5, {128, 128});

  const auto agreement_at = [&](double sigma) {
    FaultConfig faults;
    faults.program_sigma = sigma;
    faults.cell_bits = 2;
    const SimulatedModel sim(model, shapes, reram::DatapathMode::kInteger,
                             faults);
    common::Rng imgs(16);
    int agree = 0;
    for (int t = 0; t < 10; ++t) {
      const auto img = nn::synthetic_image(imgs, 1, 32, 32);
      if (tensor::argmax(model.forward(img)) ==
          tensor::argmax(sim.forward(img))) {
        ++agree;
      }
    }
    return agree;
  };
  EXPECT_GE(agreement_at(0.0), 9);
  EXPECT_GE(agreement_at(0.05), 7);
  EXPECT_LE(agreement_at(1.0), agreement_at(0.05));
}

std::vector<std::int8_t> random_weights(common::Rng& rng, std::int64_t n) {
  std::vector<std::int8_t> w(static_cast<std::size_t>(n));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return w;
}

std::vector<std::uint8_t> random_inputs(common::Rng& rng, std::int64_t n) {
  std::vector<std::uint8_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
  return x;
}

/// A non-ideal config whose lognormal spread is far below half a level at
/// every precision: the burn-in runs the full plane split and fold-back
/// but no level can round off its grid point.
FaultConfig sub_level_variation(int cell_bits) {
  FaultConfig faults;
  faults.program_sigma = 1e-6;
  faults.cell_bits = cell_bits;
  return faults;
}

class CellStorageRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CellStorageRoundTrip, SubLevelVariationKeepsWeightsExact) {
  // Offset-binary split into 8 / cell_bits planes, then folded back into
  // the two's-complement cell both datapaths read: exact at every
  // precision when no level moves.
  const int cell_bits = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(cell_bits) * 101);
  reram::LogicalCrossbar xb({36, 32});
  xb.program(random_weights(rng, 30 * 20), 30, 20);
  const auto x = random_inputs(rng, 30);
  const auto before = xb.mvm_reference(x);
  const FaultModel model(sub_level_variation(cell_bits));
  ASSERT_FALSE(model.ideal());
  reram::LogicalCrossbar* clone = &xb;
  reram::BurnTarget burn;
  burn.seed = model.config().seed;
  reram::LogicalCrossbar::burn_clones(model, /*crossbar_id=*/3,
                                      std::span(&clone, 1),
                                      std::span(&burn, 1));
  const FaultMapStats stats = burn.stats;
  EXPECT_EQ(stats.physical_cells, 36 * 32 * (8 / cell_bits));
  EXPECT_EQ(stats.weights_changed, 0);
  EXPECT_EQ(xb.mvm_reference(x), before);
  EXPECT_EQ(xb.mvm_bit_serial(x), before);
}

INSTANTIATE_TEST_SUITE_P(CellPrecisions, CellStorageRoundTrip,
                         ::testing::Values(1, 2, 4, 8));

TEST(CellStorage, ExtremeWeightsSurviveEveryPrecision) {
  const std::vector<std::int8_t> extremes = {-128, 127, 1, -1, 0};
  for (const int bits : {1, 2, 4, 8}) {
    const FaultModel model(sub_level_variation(bits));
    common::Rng rng(17);
    FaultMapStats stats;
    for (const std::int8_t w : extremes) {
      EXPECT_EQ(oracle::perturb_weight(model.config(), w, rng, stats), w)
          << "cell_bits=" << bits << " w=" << int{w};
    }
    EXPECT_EQ(stats.weights_changed, 0) << bits;
    EXPECT_EQ(stats.physical_cells,
              static_cast<std::int64_t>(extremes.size()) * (8 / bits));
  }
}

TEST(CellStorage, RejectsInvalidCellBits) {
  for (const int bits : {0, 3, 5, 16, -1}) {
    FaultConfig faults;
    faults.cell_bits = bits;
    EXPECT_THROW(faults.validate(), std::invalid_argument) << bits;
    EXPECT_THROW(FaultModel{faults}, std::invalid_argument) << bits;
  }
  for (const int bits : {1, 2, 4, 8}) {
    FaultConfig faults;
    faults.cell_bits = bits;
    EXPECT_NO_THROW(faults.validate()) << bits;
  }
}

TEST(CellStorage, BurnedCellsFeedBothDatapathsIdentically) {
  // After a real burn (variation plus stuck-at), the bit-serial plane
  // datapath and the integer datapath still read the same perturbed
  // weights, at every cell precision.
  for (const int bits : {1, 2, 4, 8}) {
    common::Rng rng(7);
    reram::LogicalCrossbar xb({64, 64});
    xb.program(random_weights(rng, 64 * 64), 64, 64);
    const auto x = random_inputs(rng, 64);
    const auto clean = xb.mvm_reference(x);
    FaultConfig faults = stuck_config(0.01, bits);
    faults.program_sigma = 0.3;
    reram::LogicalCrossbar* clone = &xb;
    reram::BurnTarget burn;
    burn.seed = faults.seed;
    reram::LogicalCrossbar::burn_clones(FaultModel(faults), 5,
                                        std::span(&clone, 1),
                                        std::span(&burn, 1));
    const FaultMapStats stats = burn.stats;
    EXPECT_GT(stats.weights_changed, 0) << bits;
    const auto noisy = xb.mvm_reference(x);
    EXPECT_NE(noisy, clean) << bits;
    EXPECT_EQ(xb.mvm_bit_serial(x), noisy) << bits;
  }
}

TEST(ProgramVariation, OffCellsStayOff) {
  // Weight −128 is level 0 (HRS) on every plane: an off cell has nothing
  // to vary, so it survives any σ while programmed levels move.
  for (const int bits : {1, 2, 4, 8}) {
    FaultConfig faults;
    faults.program_sigma = 0.5;
    faults.cell_bits = bits;
    const FaultModel model(faults);
    std::vector<std::int8_t> cells(16 * 16, -128);
    for (std::size_t i = 0; i < cells.size(); i += 2) cells[i] = 100;
    const FaultMapStats stats = model.apply(cells, 16, 16, 16, 9);
    for (std::size_t i = 1; i < cells.size(); i += 2) {
      ASSERT_EQ(cells[i], -128) << "cell_bits=" << bits << " i=" << i;
    }
    EXPECT_GT(stats.weights_changed, 0) << bits;
    EXPECT_LE(stats.weights_changed,
              static_cast<std::int64_t>(cells.size() / 2))
        << bits;
  }
}

TEST(ProgramVariation, ErrorGrowsWithSigma) {
  common::Rng rng(11);
  const std::vector<std::int8_t> w = random_weights(rng, 32 * 32);
  const auto x = random_inputs(rng, 32);
  const auto error_at = [&](double sigma) {
    reram::LogicalCrossbar xb({32, 32});
    xb.program(w, 32, 32);
    const auto clean = xb.mvm_reference(x);
    FaultConfig faults;
    faults.program_sigma = sigma;
    faults.cell_bits = 2;
    reram::LogicalCrossbar* clone = &xb;
    reram::BurnTarget burn;
    burn.seed = faults.seed;
    reram::LogicalCrossbar::burn_clones(FaultModel(faults), 12,
                                        std::span(&clone, 1),
                                        std::span(&burn, 1));
    const auto noisy = xb.mvm_reference(x);
    double err = 0.0;
    for (std::size_t j = 0; j < clean.size(); ++j) {
      err += std::abs(static_cast<double>(noisy[j]) - clean[j]);
    }
    return err;
  };
  const double small = error_at(0.1);
  const double large = error_at(0.4);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

TEST(ProgramVariation, FabricRejectsNegativeSigma) {
  common::Rng rng(13);
  const nn::Model model(nn::lenet5(), rng);
  const std::vector<CrossbarShape> shapes(5, {128, 128});
  FaultConfig faults;
  faults.program_sigma = -0.1;
  EXPECT_THROW(SimulatedModel(model, shapes, reram::DatapathMode::kInteger,
                              faults),
               std::invalid_argument);
  EXPECT_THROW(reram::monte_carlo_robustness(model, shapes, faults),
               std::invalid_argument);
}

TEST(ProgramVariation, MonteCarloAgreementFallsWithSigma) {
  // The variation study's measurement: mean agreement with the ideal
  // fabric over seeded trials, with its confidence interval.
  common::Rng rng(14);
  const nn::Model model(nn::lenet5(), rng);
  const std::vector<CrossbarShape> shapes(5, {128, 128});
  reram::RobustnessOptions opts;
  opts.trials = 4;
  opts.samples = 8;
  const auto at = [&](double sigma) {
    FaultConfig faults;
    faults.program_sigma = sigma;
    faults.cell_bits = 2;
    return reram::monte_carlo_robustness(model, shapes, faults, opts);
  };
  const auto zero = at(0.0);
  EXPECT_EQ(zero.mean_accuracy, 1.0);
  EXPECT_EQ(zero.fault_stats.weights_changed, 0);
  const auto heavy = at(1.0);
  EXPECT_GT(heavy.fault_stats.weights_changed, 0);
  EXPECT_LT(heavy.mean_accuracy, zero.mean_accuracy);
  EXPECT_GT(heavy.mean_logit_error, zero.mean_logit_error);
  EXPECT_LE(heavy.accuracy_ci_lower, heavy.mean_accuracy);
  EXPECT_GE(heavy.accuracy_ci_upper, heavy.mean_accuracy);
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
