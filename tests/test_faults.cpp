// The seeded non-ideality model: deterministic fault maps, bit-identity of
// the ideal config, stuck-at semantics in the programming path, monotone
// degradation, and the Monte-Carlo robustness plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "autohet/env.hpp"
#include "common/rng.hpp"
#include "nn/model_zoo.hpp"
#include "oracle.hpp"
#include "reram/eval_engine.hpp"
#include "reram/faults.hpp"
#include "reram/functional.hpp"
#include "reram/kernels/kernels.hpp"
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
  const FaultMapStats sa = model.apply(a, 64, 64, /*layer=*/42);
  const FaultMapStats sb = model.apply(b, 64, 64, /*layer=*/42);
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
  model.apply(a, 64, 64, /*layer=*/1);
  model.apply(b, 64, 64, /*layer=*/2);
  EXPECT_NE(a, b);
}

TEST(FaultModel, IdealApplyIsNoOp) {
  const FaultModel model(FaultConfig{});
  auto w = ramp_weights(32 * 32);
  const auto original = w;
  const FaultMapStats stats = model.apply(w, 32, 32, 0);
  EXPECT_EQ(w, original);
  EXPECT_EQ(stats.physical_cells, 0);
  EXPECT_EQ(stats.weights_changed, 0);
}

TEST(FaultModel, StuckAtOneForcesFullScale) {
  FaultConfig faults;
  faults.stuck_at_one_rate = 1.0;
  const FaultModel model(faults);
  auto w = ramp_weights(16);
  const FaultMapStats stats = model.apply(w, 4, 4, 0);
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
  const FaultMapStats stats = model.apply(w, 4, 4, 0);
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
  xb.ensure_packed();
  const auto x = random_inputs(rng, 30);
  const auto before = xb.mvm_reference(x);
  const FaultModel model(sub_level_variation(cell_bits));
  ASSERT_FALSE(model.ideal());
  const FaultMapStats stats =
      xb.burn(model, reram::BurnKey{model.config().seed, 3, 0, 0});
  // Only the programmed 30 × 20 block burns.
  EXPECT_EQ(stats.physical_cells, 30 * 20 * (8 / cell_bits));
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
    FaultMapStats stats;
    for (std::size_t i = 0; i < extremes.size(); ++i) {
      const std::int8_t w = extremes[i];
      EXPECT_EQ(oracle::perturb_weight(model.config(), w, 17, 0, 0,
                                       static_cast<std::int64_t>(i), stats),
                w)
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
    xb.ensure_packed();  // the burn repacks the moved cells
    const auto x = random_inputs(rng, 64);
    const auto clean = xb.mvm_reference(x);
    FaultConfig faults = stuck_config(0.01, bits);
    faults.program_sigma = 0.3;
    const FaultMapStats stats =
        xb.burn(FaultModel(faults), reram::BurnKey{faults.seed, 5, 0, 0});
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
    const FaultMapStats stats = model.apply(cells, 16, 16, 9);
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
    (void)xb.burn(FaultModel(faults), reram::BurnKey{faults.seed, 12, 0, 0});
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

// ---------------------------------------------------------------------------
// The keyed burn against the fault model's distribution. Seeds are fixed, so
// every check is deterministic; each bound is a binomial quantile.

/// [lo, hi] with P(X < lo) ≤ α/2 and P(X > hi) ≤ α/2 for X ~ Binomial(n, p),
/// from the exact pmf summed over mean ± 40 sd (the mass outside is far
/// below α).
std::pair<std::int64_t, std::int64_t> binomial_bounds(std::int64_t n, double p,
                                                      double alpha = 1e-6) {
  if (p <= 0.0) return {0, 0};
  if (p >= 1.0) return {n, n};
  const double mean = static_cast<double>(n) * p;
  const double span = 40.0 * std::sqrt(mean * (1.0 - p)) + 40.0;
  const auto k0 = std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::floor(mean - span)));
  const auto k1 = std::min<std::int64_t>(
      n, static_cast<std::int64_t>(std::ceil(mean + span)));
  const double log_norm = std::lgamma(static_cast<double>(n) + 1.0);
  std::vector<double> pmf;
  for (std::int64_t k = k0; k <= k1; ++k) {
    const double kd = static_cast<double>(k);
    pmf.push_back(std::exp(log_norm - std::lgamma(kd + 1.0) -
                           std::lgamma(static_cast<double>(n) - kd + 1.0) +
                           kd * std::log(p) +
                           (static_cast<double>(n) - kd) * std::log1p(-p)));
  }
  std::int64_t lo = k0;
  for (double below = pmf[0]; below <= alpha / 2.0 && lo < k1;
       below += pmf[static_cast<std::size_t>(++lo - k0)]) {
  }
  std::int64_t hi = k1;
  for (double above = pmf.back(); above <= alpha / 2.0 && hi > k0;
       above += pmf[static_cast<std::size_t>(--hi - k0)]) {
  }
  return {lo, hi};
}

/// Φ(ln((j + ½)/L)/σ): the probability that variation moves level L to at
/// most j (1 past the top level).
double level_cdf(unsigned level, unsigned j, unsigned mask, double sigma) {
  if (j >= mask) return 1.0;
  const double z = std::log((j + 0.5) / level) / sigma;
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

TEST(KeyedBurn, StuckCountsFollowTheBinomial) {
  // A 256 × 256 block: every plane is stuck-at-0 with probability z₀ and
  // stuck-at-1 with probability z₁, independently.
  for (const int bits : {1, 4}) {
    for (const double rate : {1e-4, 1e-3, 1e-2, 0.1}) {
      FaultConfig faults;
      faults.stuck_at_zero_rate = 0.6 * rate;
      faults.stuck_at_one_rate = 0.4 * rate;
      faults.cell_bits = bits;
      faults.seed = 0x5eed + static_cast<std::uint64_t>(bits);
      std::vector<std::int8_t> cells = ramp_weights(256 * 256);
      const FaultMapStats stats =
          FaultModel(faults).apply(cells, 256, 256, /*layer=*/2);
      const std::int64_t n = 256 * 256 * (8 / bits);
      ASSERT_EQ(stats.physical_cells, n);
      const auto zero = binomial_bounds(n, faults.stuck_at_zero_rate);
      const auto one = binomial_bounds(n, faults.stuck_at_one_rate);
      SCOPED_TRACE(::testing::Message() << "bits " << bits << " rate " << rate);
      EXPECT_GE(stats.stuck_at_zero, zero.first);
      EXPECT_LE(stats.stuck_at_zero, zero.second);
      EXPECT_GE(stats.stuck_at_one, one.first);
      EXPECT_LE(stats.stuck_at_one, one.second);
    }
  }
}

/// The stuck planes of a 128 × 96 block burned at the given stuck rates
/// (variation off): all-127 cells (every plane at its top level) show the
/// stuck-at-0 planes, all −128 cells (every plane at 0) the stuck-at-1
/// planes. Returns one flag per plane, 1 = stuck-at-0 and 2 = stuck-at-1.
std::vector<int> stuck_planes(double zero_rate, double one_rate, int bits) {
  constexpr std::int64_t rows = 128, cols = 96;
  FaultConfig faults;
  faults.stuck_at_zero_rate = zero_rate;
  faults.stuck_at_one_rate = one_rate;
  faults.cell_bits = bits;
  faults.seed = 0xab5e7;
  const FaultModel model(faults);
  std::vector<std::int8_t> high(rows * cols, 127);
  std::vector<std::int8_t> low(rows * cols, -128);
  (void)model.apply(high, rows, cols, 1);
  (void)model.apply(low, rows, cols, 1);
  const int planes = 8 / bits;
  const unsigned mask = (1u << bits) - 1u;
  std::vector<int> flags(static_cast<std::size_t>(rows * cols * planes), 0);
  for (std::size_t i = 0; i < high.size(); ++i) {
    const auto h = static_cast<unsigned>(high[i] + 128);
    const auto l = static_cast<unsigned>(low[i] + 128);
    for (int p = 0; p < planes; ++p) {
      const bool zero = ((h >> (p * bits)) & mask) == 0;
      const bool one = ((l >> (p * bits)) & mask) == mask;
      EXPECT_FALSE(zero && one) << "plane stuck both ways";
      const auto plane = i * static_cast<std::size_t>(planes) +
                         static_cast<std::size_t>(p);
      flags[plane] = zero ? 1 : one ? 2 : 0;
    }
  }
  return flags;
}

TEST(KeyedBurn, StuckSetsNestAcrossRates) {
  // A plane's stuck draw ignores the rates, so the stuck set at rate r is
  // a subset of the stuck set at every r' > r (its stuck value may flip as
  // the zero/one split moves).
  const double rates[] = {1e-3, 5e-3, 1e-2, 5e-2, 0.2};
  for (const int bits : {1, 2, 4}) {
    std::vector<int> previous;
    std::int64_t previous_count = 0;
    for (const double rate : rates) {
      const std::vector<int> flags = stuck_planes(0.6 * rate, 0.4 * rate, bits);
      std::int64_t count = 0;
      for (std::size_t i = 0; i < flags.size(); ++i) {
        count += flags[i] != 0;
        if (!previous.empty() && previous[i] != 0) {
          ASSERT_NE(flags[i], 0)
              << "bits " << bits << " rate " << rate << " plane " << i;
        }
      }
      EXPECT_GT(count, previous_count) << "bits " << bits << " rate " << rate;
      previous = flags;
      previous_count = count;
    }
  }
}

TEST(KeyedBurn, LevelTransitionsFollowPhiIntervals) {
  // 4-bit cells with both planes at level L (weight 17L − 128), 4096 per
  // level: the frequency of L → j matches the Φ-interval probability
  // Φ(ln((j + ½)/L)/σ) − Φ(ln((j − ½)/L)/σ), the ends clamped.
  constexpr std::int64_t kPerLevel = 4096;
  constexpr unsigned mask = 15;
  for (const double sigma : {0.05, 0.1}) {
    FaultConfig faults;
    faults.program_sigma = sigma;
    faults.cell_bits = 4;
    faults.seed = 0x1e7e1;
    std::vector<std::int8_t> cells(mask * kPerLevel);
    for (unsigned level = 1; level <= mask; ++level) {
      std::fill_n(cells.begin() + (level - 1) * kPerLevel, kPerLevel,
                  static_cast<std::int8_t>(17 * static_cast<int>(level) - 128));
    }
    (void)FaultModel(faults).apply(cells, mask, kPerLevel, 4);
    for (unsigned level = 1; level <= mask; ++level) {
      std::vector<std::int64_t> counts(mask + 1, 0);
      for (std::int64_t c = 0; c < kPerLevel; ++c) {
        const auto offset = static_cast<unsigned>(
            cells[static_cast<std::size_t>((level - 1) * kPerLevel + c)] + 128);
        ++counts[offset & mask];
        ++counts[offset >> 4];
      }
      for (unsigned j = 0; j <= mask; ++j) {
        const double p = level_cdf(level, j, mask, sigma) -
                         (j == 0 ? 0.0 : level_cdf(level, j - 1, mask, sigma));
        const auto [lo, hi] = binomial_bounds(2 * kPerLevel, p);
        EXPECT_GE(counts[j], lo)
            << "sigma " << sigma << " L " << level << " j " << j;
        EXPECT_LE(counts[j], hi)
            << "sigma " << sigma << " L " << level << " j " << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shape invariance: the keyed draws depend on the logical weight, never on
// the crossbar that holds it, and both datapaths are exact integer
// arithmetic over the programmed cells. So a faulty fabric computes the
// same function under every allocation.

std::vector<std::vector<CrossbarShape>> lenet_allocations() {
  const auto candidates = mapping::hybrid_candidates();
  const std::size_t layers = nn::lenet5().mappable_layers().size();
  std::vector<CrossbarShape> hetero(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    hetero[l] = candidates[l % candidates.size()];
  }
  return {hetero, std::vector<CrossbarShape>(layers, {72, 64}),
          std::vector<CrossbarShape>(layers, {576, 512})};
}

FaultConfig invariance_faults() {
  FaultConfig faults = stuck_config(5e-3, 2);
  faults.program_sigma = 0.05;
  return faults;
}

bool same_report(const reram::RobustnessReport& a,
                 const reram::RobustnessReport& b) {
  return a.trials == b.trials && a.accuracy_ci_lower == b.accuracy_ci_lower &&
         a.accuracy_ci_upper == b.accuracy_ci_upper &&
         a.mean_accuracy == b.mean_accuracy &&
         a.stddev_accuracy == b.stddev_accuracy &&
         a.min_accuracy == b.min_accuracy && a.max_accuracy == b.max_accuracy &&
         a.mean_logit_error == b.mean_logit_error &&
         a.layer_error == b.layer_error &&
         a.fault_stats.physical_cells == b.fault_stats.physical_cells &&
         a.fault_stats.stuck_at_zero == b.fault_stats.stuck_at_zero &&
         a.fault_stats.stuck_at_one == b.fault_stats.stuck_at_one &&
         a.fault_stats.weights_changed == b.fault_stats.weights_changed;
}

TEST(ShapeInvariance, RobustnessReportsAreIdenticalAcrossAllocations) {
  // The Monte-Carlo report (integer datapath) of LeNet-5 under one faulty
  // config, fault_stats included, for the heterogeneous allocation,
  // Homo(72×64) and Homo(576×512).
  common::Rng rng(21);
  const nn::Model model(nn::lenet5(), rng);
  reram::RobustnessOptions mc;
  mc.trials = 4;
  mc.samples = 6;
  const auto allocations = lenet_allocations();
  const auto want = reram::monte_carlo_robustness(model, allocations[0],
                                                  invariance_faults(), mc);
  EXPECT_GT(want.fault_stats.weights_changed, 0);
  EXPECT_GT(want.mean_logit_error, 0.0);
  for (std::size_t a = 1; a < allocations.size(); ++a) {
    EXPECT_TRUE(same_report(reram::monte_carlo_robustness(
                                model, allocations[a], invariance_faults(), mc),
                            want))
        << "allocation " << a;
  }
}

TEST(ShapeInvariance, BitSerialForwardsAreIdenticalAcrossAllocations) {
  // The same on the bit-serial datapath: every traced output and the fault
  // counts of one faulty fabric per allocation.
  common::Rng rng(21);
  const nn::Model model(nn::lenet5(), rng);
  common::Rng img_rng(12);
  std::vector<tensor::Tensor> images;
  for (int s = 0; s < 4; ++s) {
    images.push_back(nn::synthetic_image(img_rng, 1, 32, 32));
  }
  const auto allocations = lenet_allocations();
  std::vector<std::vector<SimulatedModel::ForwardTrace>> traces;
  std::vector<FaultMapStats> stats;
  for (const auto& shapes : allocations) {
    const SimulatedModel fabric(model, shapes,
                                reram::DatapathMode::kBitSerial,
                                invariance_faults());
    traces.push_back(fabric.forward_batch(images));
    stats.push_back(fabric.fault_stats());
  }
  for (std::size_t a = 1; a < allocations.size(); ++a) {
    EXPECT_EQ(stats[a].physical_cells, stats[0].physical_cells);
    EXPECT_EQ(stats[a].stuck_at_zero, stats[0].stuck_at_zero);
    EXPECT_EQ(stats[a].stuck_at_one, stats[0].stuck_at_one);
    EXPECT_EQ(stats[a].weights_changed, stats[0].weights_changed);
    for (std::size_t s = 0; s < images.size(); ++s) {
      EXPECT_EQ(tensor::max_abs_diff(traces[a][s].output,
                                     traces[0][s].output),
                0.0f)
          << "allocation " << a << " sample " << s;
      for (std::size_t l = 0; l < traces[0][s].mappable_outputs.size(); ++l) {
        EXPECT_EQ(tensor::max_abs_diff(traces[a][s].mappable_outputs[l],
                                       traces[0][s].mappable_outputs[l]),
                  0.0f)
            << "allocation " << a << " sample " << s << " layer " << l;
      }
    }
  }
}

/// A layer's effective logical weights read back through its crossbars: the
/// MVM of the identity batch (input row i is sample i), weight_cols ×
/// weight_rows.
std::vector<std::int32_t> effective_weights(const reram::MappedLayer& layer) {
  const std::int64_t rows = layer.spec().weight_rows();
  const std::int64_t cols = layer.spec().weight_cols();
  std::vector<std::uint8_t> identity(static_cast<std::size_t>(rows * rows), 0);
  for (std::int64_t i = 0; i < rows; ++i) {
    identity[static_cast<std::size_t>(i * rows + i)] = 1;
  }
  std::vector<std::int32_t> accs(static_cast<std::size_t>(cols * rows));
  reram::kernels::KernelScratch scratch;
  layer.mvm_batch_into(identity.data(), rows, reram::DatapathMode::kInteger,
                       accs, scratch);
  return accs;
}

TEST(ShapeInvariance, BurnedLogicalWeightsAreIdenticalAcrossShapes) {
  common::Rng rng(21);
  const nn::Model model(nn::lenet5(), rng);
  const auto allocations = lenet_allocations();
  const SimulatedModel clean(model, allocations[0]);
  std::vector<SimulatedModel> burned;
  for (const auto& shapes : allocations) {
    burned.push_back(SimulatedModel(model, shapes).with_faults(
        invariance_faults()));
  }
  std::size_t moved = 0;
  for (std::size_t l = 0; l < clean.mapped_layers().size(); ++l) {
    const auto want = effective_weights(burned[0].mapped_layers()[l]);
    moved += want != effective_weights(clean.mapped_layers()[l]);
    for (std::size_t a = 1; a < burned.size(); ++a) {
      EXPECT_EQ(effective_weights(burned[a].mapped_layers()[l]), want)
          << "allocation " << a << " layer " << l;
    }
  }
  EXPECT_GT(moved, 0u);
}

}  // namespace
}  // namespace autohet
