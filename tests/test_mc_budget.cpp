// Adaptive Monte-Carlo budgets: the Wilson interval, the sequential
// stopping rule on raw Bernoulli streams (coverage, monotonicity, clamps),
// fixed-mode bit-identity across threads and kernel policies, the
// adaptive-prefix property (an adaptive run reports exactly the fixed-mode
// statistics of its executed trials), the reference cache at zero rates,
// the workload-keyed robustness memo (one report serves every allocation),
// the build-once SlotStore, model-identity cache keys, and the in-search
// reward plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "autohet/env.hpp"
#include "autohet/search.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "oracle.hpp"
#include "reram/eval_engine.hpp"
#include "reram/faults.hpp"
#include "reram/functional.hpp"
#include "reram/memo.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::FaultConfig;
using reram::RobustnessBudget;
using reram::RobustnessOptions;
using reram::RobustnessReport;
using reram::SequentialStopper;
using reram::WilsonInterval;
using reram::wilson_interval;

nn::NetworkSpec tiny_net() {
  nn::NetworkSpec net;
  net.name = "tiny";
  net.layers.push_back(nn::make_conv(2, 4, 3, 1, 1, 6, 6));
  net.layers.push_back(nn::make_maxpool(4, 2, 2, 6, 6));
  net.layers.push_back(nn::make_fc(4 * 3 * 3, 10, /*relu=*/false));
  return net;
}

FaultConfig noisy_config() {
  FaultConfig fc;
  fc.stuck_at_zero_rate = 2e-3;
  fc.stuck_at_one_rate = 2e-3;
  fc.program_sigma = 0.05;
  fc.cell_bits = 2;
  return fc;
}

// Full-field equality including the budget-era fields. Everything but
// trials_requested / early_stopped must match for "statistically the same
// run"; callers that expect complete identity compare those too.
void expect_stats_identical(const RobustnessReport& a,
                            const RobustnessReport& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_EQ(a.stddev_accuracy, b.stddev_accuracy);
  EXPECT_EQ(a.min_accuracy, b.min_accuracy);
  EXPECT_EQ(a.max_accuracy, b.max_accuracy);
  EXPECT_EQ(a.mean_logit_error, b.mean_logit_error);
  EXPECT_EQ(a.accuracy_ci_lower, b.accuracy_ci_lower);
  EXPECT_EQ(a.accuracy_ci_upper, b.accuracy_ci_upper);
  EXPECT_EQ(a.layer_error, b.layer_error);
  EXPECT_EQ(a.fault_stats.physical_cells, b.fault_stats.physical_cells);
  EXPECT_EQ(a.fault_stats.stuck_at_zero, b.fault_stats.stuck_at_zero);
  EXPECT_EQ(a.fault_stats.stuck_at_one, b.fault_stats.stuck_at_one);
  EXPECT_EQ(a.fault_stats.weights_changed, b.fault_stats.weights_changed);
}

void expect_reports_identical(const RobustnessReport& a,
                              const RobustnessReport& b) {
  expect_stats_identical(a, b);
  EXPECT_EQ(a.trials_requested, b.trials_requested);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
}

// ---------------------------------------------------------------------------
// Wilson interval.

TEST(WilsonIntervalTest, DegenerateAndBoundaryCases) {
  const WilsonInterval empty = wilson_interval(0.0, 0.0);
  EXPECT_EQ(empty.lower, 0.0);
  EXPECT_EQ(empty.upper, 1.0);

  // All-success: lower bound rises with n, upper pinned at 1.
  const WilsonInterval n4 = wilson_interval(4.0, 4.0);
  const WilsonInterval n64 = wilson_interval(64.0, 64.0);
  EXPECT_NEAR(n4.upper, 1.0, 1e-12);
  EXPECT_NEAR(n64.upper, 1.0, 1e-12);
  EXPECT_GT(n64.lower, n4.lower);
  EXPECT_GT(n4.lower, 0.0);

  // All-failure mirrors all-success.
  const WilsonInterval zeros = wilson_interval(0.0, 64.0);
  EXPECT_NEAR(zeros.lower, 0.0, 1e-12);
  EXPECT_NEAR(zeros.upper, 1.0 - n64.lower, 1e-12);
}

TEST(WilsonIntervalTest, HalfwidthShrinksWithN) {
  double prev = 1.0;
  for (const double n : {8.0, 32.0, 128.0, 512.0}) {
    const WilsonInterval ci = wilson_interval(n / 2.0, n);
    EXPECT_LT(ci.halfwidth(), prev);
    EXPECT_GT(ci.lower, 0.0);
    EXPECT_LT(ci.upper, 1.0);
    prev = ci.halfwidth();
  }
}

TEST(WilsonIntervalTest, StaysInsideUnitInterval) {
  for (int s = 0; s <= 10; ++s) {
    const WilsonInterval ci = wilson_interval(s, 10.0);
    EXPECT_GE(ci.lower, 0.0);
    EXPECT_LE(ci.upper, 1.0);
    EXPECT_LE(ci.lower, ci.upper);
  }
}

// ---------------------------------------------------------------------------
// Sequential stopping rule on raw Bernoulli streams.

// Drives the stopper exactly as the Monte-Carlo loop does: run to the next
// decision boundary, feed the per-trial successes, stop when it says so.
int run_stopper(const RobustnessBudget& budget, int requested,
                const std::vector<int>& successes, int samples_per_trial) {
  SequentialStopper stopper(budget, requested);
  int executed = 0;
  for (;;) {
    const int boundary = stopper.next_boundary(executed);
    while (executed < boundary) {
      stopper.add_trial(successes[static_cast<std::size_t>(executed)],
                        samples_per_trial);
      ++executed;
    }
    if (stopper.should_stop()) return executed;
  }
}

std::vector<int> bernoulli_trials(common::Rng& rng, int trials, int samples,
                                  double p) {
  std::vector<int> successes(static_cast<std::size_t>(trials), 0);
  for (auto& s : successes) {
    for (int i = 0; i < samples; ++i) s += rng.uniform() < p ? 1 : 0;
  }
  return successes;
}

TEST(SequentialStopperTest, PooledCoverageOnIndependentDraws) {
  // With one sample per trial every draw is independent, so the pooled
  // interval is the exact Wilson CI and should cover the true p at close to
  // the nominal 95% rate. Seeded, so the count is a constant.
  common::Rng rng(0xc0ffee);
  constexpr int kReps = 200;
  constexpr double kTrueP = 0.3;
  int covered = 0;
  for (int r = 0; r < kReps; ++r) {
    SequentialStopper stopper({}, /*requested=*/400);
    for (int t = 0; t < 400; ++t) {
      stopper.add_trial(rng.uniform() < kTrueP ? 1 : 0, 1);
    }
    const WilsonInterval ci = stopper.pooled_interval();
    if (ci.lower <= kTrueP && kTrueP <= ci.upper) ++covered;
  }
  EXPECT_GE(covered, static_cast<int>(kReps * 0.90));
}

TEST(SequentialStopperTest, RobustIntervalNeverTighterThanPooled) {
  // Clustered trials (whole-fabric successes/failures) inflate the design
  // effect; the reported interval must widen, never narrow.
  SequentialStopper stopper({}, /*requested=*/16);
  for (int t = 0; t < 16; ++t) stopper.add_trial(t % 2 == 0 ? 8 : 0, 8);
  EXPECT_GT(stopper.design_effect(), 1.0);
  EXPECT_GE(stopper.interval().halfwidth(),
            stopper.pooled_interval().halfwidth());
}

TEST(SequentialStopperTest, ConsistentTrialsKeepFullSampleSize) {
  // Zero between-trial variance at an interior p̂: ρ̂ = 0, DEFF = 1, the
  // robust interval equals the pooled one.
  SequentialStopper stopper({}, /*requested=*/8);
  for (int t = 0; t < 8; ++t) stopper.add_trial(4, 8);
  EXPECT_EQ(stopper.design_effect(), 1.0);
  EXPECT_EQ(stopper.interval().lower, stopper.pooled_interval().lower);
  EXPECT_EQ(stopper.interval().upper, stopper.pooled_interval().upper);
}

TEST(SequentialStopperTest, TrialsUsedMonotoneInCiTarget) {
  // Tightening the CI target can only cost more trials on the same stream.
  common::Rng rng(42);
  const std::vector<int> successes = bernoulli_trials(rng, 512, 8, 0.5);
  int prev = 0;
  for (const double hw : {0.30, 0.20, 0.10, 0.05, 0.03}) {
    RobustnessBudget budget;
    budget.mode = RobustnessBudget::Mode::kAdaptive;
    budget.ci_halfwidth = hw;
    budget.min_trials = 1;
    const int used = run_stopper(budget, 512, successes, 8);
    EXPECT_GE(used, prev) << "halfwidth " << hw;
    prev = used;
  }
  // The loosest target stops well short of the cap; the tightest needs more
  // than the minimum.
  EXPECT_LT(prev, 512);
  EXPECT_GT(prev, 1);
}

TEST(SequentialStopperTest, MinTrialsClampHolds) {
  // An immediately decisive stream (every sample agrees) still runs the
  // configured minimum.
  RobustnessBudget budget;
  budget.mode = RobustnessBudget::Mode::kAdaptive;
  budget.ci_halfwidth = 0.5;  // trivially met after one trial
  budget.min_trials = 4;
  const std::vector<int> all_agree(64, 8);
  EXPECT_EQ(run_stopper(budget, 64, all_agree, 8), 4);
}

TEST(SequentialStopperTest, MaxTrialsClampHolds) {
  // A stream that never meets the target exhausts the cap: max_trials when
  // set, the requested count otherwise.
  common::Rng rng(7);
  const std::vector<int> noisy = bernoulli_trials(rng, 64, 2, 0.5);
  RobustnessBudget budget;
  budget.mode = RobustnessBudget::Mode::kAdaptive;
  budget.ci_halfwidth = 1e-6;  // unreachable
  budget.min_trials = 1;
  EXPECT_EQ(run_stopper(budget, 64, noisy, 2), 64);
  budget.max_trials = 5;
  EXPECT_EQ(run_stopper(budget, 64, noisy, 2), 5);
}

TEST(SequentialStopperTest, ChunkTrialsQuantizesStopPoints) {
  // Decisions only happen at chunk boundaries: with chunk 4 and min 2 the
  // executed count is 2, 6, 10, ... regardless of where the target is met.
  common::Rng rng(9);
  const std::vector<int> noisy = bernoulli_trials(rng, 256, 8, 0.5);
  RobustnessBudget budget;
  budget.mode = RobustnessBudget::Mode::kAdaptive;
  budget.ci_halfwidth = 0.05;
  budget.min_trials = 2;
  budget.chunk_trials = 4;
  const int used = run_stopper(budget, 256, noisy, 8);
  EXPECT_TRUE(used == 2 || (used - 2) % 4 == 0 || used == 256) << used;
}

TEST(RobustnessBudgetTest, ValidateRejectsNonsense) {
  RobustnessBudget budget;
  budget.ci_halfwidth = 0.0;
  EXPECT_THROW(budget.validate(), std::invalid_argument);
  budget = {};
  budget.min_trials = 0;
  EXPECT_THROW(budget.validate(), std::invalid_argument);
  budget = {};
  budget.chunk_trials = 0;
  EXPECT_THROW(budget.validate(), std::invalid_argument);
  budget = {};
  budget.max_trials = -1;
  EXPECT_THROW(budget.validate(), std::invalid_argument);
  budget = {};
  EXPECT_NO_THROW(budget.validate());
}

// ---------------------------------------------------------------------------
// Fixed mode: byte-identity and the executed/requested trial accounting.

TEST(FixedModeTest, TrialsEqualsRequestedAndNeverEarlyStops) {
  common::Rng wr(3);
  const nn::Model model(tiny_net(), wr);
  RobustnessOptions mc;
  mc.trials = 3;
  mc.samples = 4;
  const auto report =
      reram::monte_carlo_robustness(model, noisy_config(), mc);
  EXPECT_EQ(report.trials, 3);
  EXPECT_EQ(report.trials_requested, 3);
  EXPECT_FALSE(report.early_stopped);
  // The report carries the cluster-robust CI around the pooled agreement.
  EXPECT_LE(report.accuracy_ci_lower, report.mean_accuracy);
  EXPECT_GE(report.accuracy_ci_upper, report.mean_accuracy);
}

TEST(FixedModeTest, BitIdenticalAcrossThreadsAndKernels) {
  common::Rng wr(3);
  const nn::Model model(tiny_net(), wr);
  const std::vector<CrossbarShape> shapes(2, CrossbarShape{32, 32});
  RobustnessOptions mc;
  mc.trials = 3;
  mc.samples = 4;
  // The oracle's serial from-scratch run is the reference.
  const auto baseline =
      oracle::monte_carlo_robustness(model, shapes, noisy_config(), mc);
  for (const int threads : {1, 3}) {
    RobustnessOptions v = mc;
    v.threads = threads;
    const auto report =
        reram::monte_carlo_robustness(model, noisy_config(), v);
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    expect_reports_identical(baseline, report);
  }
}

// ---------------------------------------------------------------------------
// Adaptive mode: determinism, the prefix property, and trial accounting.

RobustnessOptions adaptive_mc(int trials = 12) {
  RobustnessOptions mc;
  mc.trials = trials;
  mc.samples = 6;
  mc.budget.mode = RobustnessBudget::Mode::kAdaptive;
  mc.budget.ci_halfwidth = 0.12;
  mc.budget.min_trials = 2;
  return mc;
}

TEST(AdaptiveModeTest, DeterministicAcrossThreadCounts) {
  common::Rng wr(3);
  const nn::Model model(tiny_net(), wr);
  const auto serial =
      reram::monte_carlo_robustness(model, noisy_config(), adaptive_mc());
  for (const int threads : {2, 4}) {
    RobustnessOptions mc = adaptive_mc();
    mc.threads = threads;
    const auto parallel =
        reram::monte_carlo_robustness(model, noisy_config(), mc);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    expect_reports_identical(serial, parallel);
  }
}

TEST(AdaptiveModeTest, ExecutedTrialsAreAFixedModePrefix) {
  // An adaptive run that stopped after T trials must report exactly what a
  // fixed run of T trials reports — the same seeded trial stream, cut short,
  // not an approximation.
  common::Rng wr(3);
  const nn::Model model(tiny_net(), wr);
  const auto adaptive = reram::monte_carlo_robustness(
      model, noisy_config(), adaptive_mc());
  EXPECT_LE(adaptive.trials, adaptive.trials_requested);
  EXPECT_EQ(adaptive.trials_requested, 12);
  EXPECT_EQ(adaptive.early_stopped, adaptive.trials < 12);

  RobustnessOptions fixed;
  fixed.trials = adaptive.trials;
  fixed.samples = 6;
  const auto prefix =
      reram::monte_carlo_robustness(model, noisy_config(), fixed);
  expect_stats_identical(adaptive, prefix);
}

TEST(AdaptiveModeTest, LooseTargetStopsAtMinTrials) {
  // An ideal-agreement workload (tiny stuck rate, no variation) is decisive
  // immediately: the run stops at the clamp and banks the savings.
  common::Rng wr(3);
  const nn::Model model(tiny_net(), wr);
  FaultConfig fc;
  fc.stuck_at_zero_rate = 1e-6;
  RobustnessOptions mc = adaptive_mc(16);
  mc.budget.ci_halfwidth = 0.2;
  const auto report = reram::monte_carlo_robustness(model, fc, mc);
  EXPECT_EQ(report.trials, mc.budget.min_trials);
  EXPECT_TRUE(report.early_stopped);
  EXPECT_EQ(report.trials_requested, 16);
}

// ---------------------------------------------------------------------------
// The reference cache at zero stuck rates: exact in both budget modes.

TEST(ReferenceCacheTest, AdaptiveZeroRatePointMatchesUncached) {
  // An adaptive zero-rate point run through a cache warmed at a nonzero
  // rate burns its own trials: byte-identical to the uncached run, with
  // variation but no stuck cells.
  common::Rng wr(3);
  const nn::Model model(tiny_net(), wr);
  reram::TrialFabricCache cache;

  FaultConfig zero = noisy_config();
  zero.stuck_at_zero_rate = 0.0;
  zero.stuck_at_one_rate = 0.0;
  zero.program_sigma = 0.3;  // wide enough to move levels of the tiny net

  RobustnessOptions mc = adaptive_mc(6);
  const auto uncached = reram::monte_carlo_robustness(model, zero, mc);
  mc.cache = &cache;
  (void)reram::monte_carlo_robustness(model, noisy_config(), mc);
  const auto cached = reram::monte_carlo_robustness(model, zero, mc);
  expect_reports_identical(uncached, cached);
  EXPECT_EQ(cached.fault_stats.stuck_at_zero, 0);
  EXPECT_EQ(cached.fault_stats.stuck_at_one, 0);
  EXPECT_GT(cached.fault_stats.weights_changed, 0);
}

TEST(CacheSpanningTest, FixedModeNeverSpans) {
  // kFixed reports are byte-identical with and without the cache, including
  // at zero stuck rates after a nonzero-rate point.
  common::Rng wr(3);
  const nn::Model model(tiny_net(), wr);
  reram::TrialFabricCache cache;

  FaultConfig zero = noisy_config();
  zero.stuck_at_zero_rate = 0.0;
  zero.stuck_at_one_rate = 0.0;

  RobustnessOptions mc;
  mc.trials = 3;
  mc.samples = 4;
  const auto uncached = reram::monte_carlo_robustness(model, zero, mc);
  mc.cache = &cache;
  // Warm with a nonzero-rate run first.
  (void)reram::monte_carlo_robustness(model, noisy_config(), mc);
  const auto cached = reram::monte_carlo_robustness(model, zero, mc);
  expect_reports_identical(uncached, cached);
}

// ---------------------------------------------------------------------------
// The memoized engine entry and the in-search reward plumbing.

reram::EvaluationEngine lenet_engine(const nn::NetworkSpec& net) {
  return reram::EvaluationEngine(net.mappable_layers(),
                                 mapping::hybrid_candidates(),
                                 reram::AcceleratorConfig{});
}

TEST(RobustnessMemoTest, CachedEntryMatchesUncachedAndHitsOnRepeat) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const auto engine = lenet_engine(net);
  const std::vector<std::size_t> actions(net.mappable_layers().size(), 2);

  const RobustnessOptions mc = adaptive_mc(4);
  const auto first =
      engine.evaluate_robustness_cached(model, actions, noisy_config(), mc);
  const auto miss_stats = engine.robustness_cache_stats();
  EXPECT_EQ(miss_stats.misses, 1u);
  EXPECT_EQ(miss_stats.hits, 0u);

  const auto repeat =
      engine.evaluate_robustness_cached(model, actions, noisy_config(), mc);
  EXPECT_EQ(engine.robustness_cache_stats().hits, 1u);
  expect_reports_identical(first, repeat);

  // The memoized entry is what the unmemoized engine entry computes.
  const auto uncached =
      engine.evaluate_robustness(model, actions, noisy_config(), mc);
  expect_reports_identical(first, uncached);
}

TEST(ReferenceCacheTest, EngineCallsOnTwoAllocationsShareOneReferenceBuild) {
  // evaluate_robustness takes an allocation but the Monte-Carlo does not:
  // two action vectors on one caller cache build the ideal references once
  // and get one report.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const auto engine = lenet_engine(net);
  const std::size_t layers = net.mappable_layers().size();
  std::vector<std::size_t> mixed(layers);
  for (std::size_t l = 0; l < layers; ++l) mixed[l] = l % 5;
  reram::TrialFabricCache cache;
  RobustnessOptions mc;
  mc.trials = 2;
  mc.samples = 3;
  mc.cache = &cache;
  const auto homo = engine.evaluate_robustness(
      model, std::vector<std::size_t>(layers, 4), noisy_config(), mc);
  expect_reports_identical(
      homo, engine.evaluate_robustness(model, mixed, noisy_config(), mc));
  EXPECT_EQ(cache.stats().ideal_builds, 1u);
  EXPECT_EQ(cache.stats().ideal_hits, 1u);
}

TEST(RobustnessMemoTest, OneEntryServesEveryAllocationAndMatchesOracle) {
  // The memo is keyed by workload, not allocation: the first allocation's
  // report serves the others, and it equals the oracle's from-scratch serial
  // run on each allocation's own crossbar shapes — at 3 trials (one block)
  // and 9 (a full 8-trial block, then one more trial), serial and on 3
  // threads.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const auto candidates = mapping::hybrid_candidates();
  const std::size_t layers = net.mappable_layers().size();
  std::vector<std::size_t> last_differs(layers, 2);
  last_differs.back() = 1;
  std::vector<std::size_t> mixed(layers);
  for (std::size_t l = 0; l < layers; ++l) mixed[l] = l % candidates.size();
  const std::vector<std::vector<std::size_t>> allocations = {
      std::vector<std::size_t>(layers, 2), last_differs, mixed};

  for (const int trials : {3, 9}) {
    RobustnessOptions mc;
    mc.trials = trials;
    mc.samples = 4;
    std::vector<reram::RobustnessReport> oracles;
    for (const auto& actions : allocations) {
      std::vector<CrossbarShape> shapes;
      for (const std::size_t a : actions) shapes.push_back(candidates[a]);
      oracles.push_back(
          oracle::monte_carlo_robustness(model, shapes, noisy_config(), mc));
    }
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(testing::Message()
                   << trials << " trials, " << threads << " threads");
      const auto engine = lenet_engine(net);
      RobustnessOptions opts = mc;
      opts.threads = threads;
      for (std::size_t a = 0; a < allocations.size(); ++a) {
        expect_reports_identical(
            oracles[a], engine.evaluate_robustness_cached(
                            model, allocations[a], noisy_config(), opts));
      }
      EXPECT_EQ(engine.robustness_cache_stats().misses, 1u);
      EXPECT_EQ(engine.robustness_cache_stats().hits, allocations.size() - 1);
    }
  }
}

TEST(RobustnessMemoTest, ValidatesActionsOnAHit) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const auto engine = lenet_engine(net);
  const std::vector<std::size_t> actions(net.mappable_layers().size(), 2);
  const RobustnessOptions mc = adaptive_mc(4);
  (void)engine.evaluate_robustness_cached(model, actions, noisy_config(), mc);

  std::vector<std::size_t> out_of_range = actions;
  out_of_range.back() = engine.num_candidates();
  EXPECT_THROW((void)engine.evaluate_robustness_cached(
                   model, out_of_range, noisy_config(), mc),
               std::invalid_argument);
  std::vector<std::size_t> too_short(actions.begin(), actions.end() - 1);
  EXPECT_THROW((void)engine.evaluate_robustness_cached(model, too_short,
                                                       noisy_config(), mc),
               std::invalid_argument);
  EXPECT_EQ(engine.robustness_cache_stats().misses, 1u);
  EXPECT_EQ(engine.robustness_cache_stats().hits, 0u);
}

TEST(RobustnessMemoTest, KeyDiscriminatesFaultsAndBudget) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const auto engine = lenet_engine(net);
  const std::vector<std::size_t> actions(net.mappable_layers().size(), 2);

  const RobustnessOptions mc = adaptive_mc(4);
  (void)engine.evaluate_robustness_cached(model, actions, noisy_config(), mc);
  FaultConfig other = noisy_config();
  other.stuck_at_zero_rate *= 2.0;
  (void)engine.evaluate_robustness_cached(model, actions, other, mc);
  RobustnessOptions tighter = mc;
  tighter.budget.ci_halfwidth = 0.01;
  (void)engine.evaluate_robustness_cached(model, actions, noisy_config(),
                                          tighter);
  EXPECT_EQ(engine.robustness_cache_stats().misses, 3u);
  EXPECT_EQ(engine.robustness_cache_stats().hits, 0u);
}

TEST(RobustnessMemoTest, ThreadKnobsAloneHitTheMemo) {
  // Thread count and a caller-owned pool only change wall time, so they are
  // not part of the key: every variant is served from the first entry.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const auto engine = lenet_engine(net);
  const std::vector<std::size_t> actions(net.mappable_layers().size(), 2);

  const RobustnessOptions serial = adaptive_mc(4);
  const auto first =
      engine.evaluate_robustness_cached(model, actions, noisy_config(), serial);
  RobustnessOptions threaded = serial;
  threaded.threads = 3;
  expect_reports_identical(first, engine.evaluate_robustness_cached(
                                      model, actions, noisy_config(), threaded));
  common::ThreadPool pool(2);
  RobustnessOptions pooled = serial;
  pooled.threads = 2;
  pooled.pool = &pool;
  expect_reports_identical(first, engine.evaluate_robustness_cached(
                                      model, actions, noisy_config(), pooled));
  EXPECT_EQ(engine.robustness_cache_stats().misses, 1u);
  EXPECT_EQ(engine.robustness_cache_stats().hits, 2u);
  // The served entry is what a threaded uncached run computes.
  expect_reports_identical(
      first,
      engine.evaluate_robustness(model, actions, noisy_config(), threaded));
}

TEST(RobustnessMemoTest, KeyDiscriminatesTrialsSamplesAndSeed) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const auto engine = lenet_engine(net);
  const std::vector<std::size_t> actions(net.mappable_layers().size(), 2);

  const RobustnessOptions mc = adaptive_mc(4);
  const auto base =
      engine.evaluate_robustness_cached(model, actions, noisy_config(), mc);
  RobustnessOptions more_samples = mc;
  more_samples.samples = mc.samples + 2;
  const auto wider = engine.evaluate_robustness_cached(
      model, actions, noisy_config(), more_samples);
  EXPECT_EQ(wider.samples, more_samples.samples);
  RobustnessOptions other_seed = mc;
  other_seed.input_seed = mc.input_seed + 1;
  (void)engine.evaluate_robustness_cached(model, actions, noisy_config(),
                                          other_seed);
  RobustnessOptions more_trials = mc;
  more_trials.trials = mc.trials + 2;
  (void)engine.evaluate_robustness_cached(model, actions, noisy_config(),
                                          more_trials);
  EXPECT_EQ(engine.robustness_cache_stats().misses, 4u);
  EXPECT_EQ(engine.robustness_cache_stats().hits, 0u);
  // The original key still hits its own entry.
  expect_reports_identical(base, engine.evaluate_robustness_cached(
                                     model, actions, noisy_config(), mc));
  EXPECT_EQ(engine.robustness_cache_stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// SlotStore: the build-once store under TrialFabricCache.

TEST(SlotStoreTest, ConcurrentRequestsForOneKeyBuildOnce) {
  reram::SlotStore<int, int> store(8);
  std::atomic<int> builds{0};
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      got[i] = store.get(7, [&] {
        ++builds;
        // Hold the build open so the other requests queue on the slot.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 42;
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& value : got) EXPECT_EQ(value, got.front());
  EXPECT_EQ(*got.front(), 42);
  EXPECT_EQ(store.counts().builds, 1u);
  EXPECT_EQ(store.counts().hits, kThreads - 1);
}

TEST(SlotStoreTest, DistinctKeysBuildConcurrently) {
  // Each build waits for the other to start: a store that serialized builds
  // would reach the deadline with only one build in flight.
  reram::SlotStore<int, int> store(8);
  std::atomic<int> started{0};
  std::atomic<bool> overlapped{true};
  const auto build = [&] {
    ++started;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) {
        overlapped = false;
        break;
      }
      std::this_thread::yield();
    }
    return 1;
  };
  std::thread a([&] { (void)store.get(1, build); });
  std::thread b([&] { (void)store.get(2, build); });
  a.join();
  b.join();
  EXPECT_TRUE(overlapped.load());
  EXPECT_EQ(store.counts().builds, 2u);
}

TEST(SlotStoreTest, ThrowingBuildLeavesTheSlotEmpty) {
  reram::SlotStore<int, int> store(8);
  EXPECT_THROW((void)store.get(
                   3, []() -> int { throw std::runtime_error("no fabric"); }),
               std::runtime_error);
  EXPECT_EQ(store.counts().builds, 0u);
  int builds = 0;
  EXPECT_EQ(*store.get(3, [&] { return ++builds; }), 1);
  EXPECT_EQ(*store.get(3, [&] { return ++builds; }), 1);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(store.counts().builds, 1u);
  EXPECT_EQ(store.counts().hits, 1u);
}

TEST(SlotStoreTest, TheCapacityEvictsOnInsert) {
  reram::SlotStore<int, int> store(2);
  int builds = 0;
  const auto build = [&] { return ++builds; };
  (void)store.get(1, build);
  (void)store.get(2, build);
  (void)store.get(3, build);  // at capacity: 1 and 2 are dropped
  EXPECT_EQ(*store.get(3, build), 3);
  EXPECT_EQ(*store.get(1, build), 4);  // rebuilt
  EXPECT_EQ(*store.get(3, build), 3);  // a hit evicts nothing
  EXPECT_EQ(store.counts().builds, 4u);
}

// ---------------------------------------------------------------------------
// Every Monte-Carlo cache keys on the model's identity, not its address.

TEST(ModelIdentityTest, CachesNeverServeAnotherModelsResults) {
  const nn::NetworkSpec net = nn::lenet5();
  const auto engine = lenet_engine(net);
  const std::vector<std::size_t> actions(net.mappable_layers().size(), 1);
  FaultConfig fc;
  fc.stuck_at_zero_rate = 5e-3;
  fc.stuck_at_one_rate = 5e-3;
  fc.program_sigma = 0.05;
  fc.seed = 7;
  RobustnessOptions mc;
  mc.trials = 3;
  mc.samples = 8;
  reram::TrialFabricCache trial_cache;
  RobustnessOptions with_trials = mc;
  with_trials.cache = &trial_cache;

  // The engine memo and the reference cache must each give `model` exactly
  // the uncached report, whatever they served before.
  const auto expect_fresh = [&](const nn::Model& model) {
    const auto uncached = reram::monte_carlo_robustness(model, fc, mc);
    expect_reports_identical(
        engine.evaluate_robustness_cached(model, actions, fc, mc), uncached);
    expect_reports_identical(
        reram::monte_carlo_robustness(model, fc, with_trials),
        uncached);
  };

  std::optional<nn::Model> model;
  common::Rng first_weights(21);
  model.emplace(net, first_weights);
  expect_fresh(*model);
  // A different model constructed at the same address.
  common::Rng second_weights(22);
  model.emplace(net, second_weights);
  expect_fresh(*model);
  // In-place weight mutation through the non-const accessor, as training
  // does.
  tensor::Tensor& w = model->weight(0);
  for (std::int64_t j = 0; j < w.numel(); ++j) w[j] = -w[j];
  expect_fresh(*model);
}

TEST(SearchRewardTest, OverloadIsIdentityWithoutMeasuredModel) {
  const nn::NetworkSpec net = nn::lenet5();
  core::EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  cfg.objective = core::RewardObjective::kRobustnessAware;
  cfg.accel.faults = noisy_config();
  const core::CrossbarEnv env(net.mappable_layers(), cfg);
  const std::vector<std::size_t> actions(env.num_layers(), 2);
  const auto report = env.evaluate(actions);
  EXPECT_EQ(env.reward(report, actions), env.reward(report));
}

TEST(SearchRewardTest, MeasuredRewardScalesByMonteCarloAccuracy) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);

  core::EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  cfg.objective = core::RewardObjective::kRobustnessAware;
  cfg.accel.faults = noisy_config();
  cfg.mc_reward_model = &model;
  const core::CrossbarEnv env(net.mappable_layers(), cfg);

  const std::vector<std::size_t> actions(env.num_layers(), 2);
  const auto report = env.evaluate(actions);
  const double measured = env.reward(report, actions);
  const auto rob = env.engine().evaluate_robustness_cached(
      model, actions, cfg.accel.faults, core::default_search_mc_options());
  // The second reward() call hit the memo (same key), so the factor is the
  // exact cached mean accuracy.
  EXPECT_GT(env.engine().robustness_cache_stats().hits, 0u);
  const double base =
      env.reward(report) /
      (1.0 - std::clamp(report.fault_vulnerability, 0.0, 1.0));
  EXPECT_NEAR(measured, base * rob.mean_accuracy, 1e-12);
}

TEST(SearchRewardTest, RobustnessAwareSearchPaysOneMonteCarloRun) {
  // A robustness-aware search visits many allocations but runs the
  // Monte-Carlo evaluation once: the memo is keyed by workload. Every
  // episode's reward is still exactly its own base reward times the
  // accuracy that episode's allocation measures unmemoized.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  core::EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  cfg.objective = core::RewardObjective::kRobustnessAware;
  cfg.accel.faults = noisy_config();
  cfg.mc_reward_model = &model;
  const core::CrossbarEnv env(net.mappable_layers(), cfg);

  core::SearchConfig search_cfg;
  search_cfg.episodes = 40;
  search_cfg.warmup_episodes = 10;
  const core::SearchResult result = core::AutoHetSearch(env, search_cfg).run();
  ASSERT_EQ(result.history.size(), 40u);
  EXPECT_EQ(env.engine().robustness_cache_stats().misses, 1u);
  EXPECT_EQ(env.engine().robustness_cache_stats().hits, 39u);

  std::size_t distinct = 0;
  for (std::size_t e = 0; e < result.history.size(); ++e) {
    const core::EpisodeRecord& record = result.history[e];
    bool repeat = false;
    for (std::size_t f = 0; f < e; ++f) {
      repeat = repeat || result.history[f].actions == record.actions;
    }
    distinct += repeat ? 0 : 1;
    const reram::NetworkReport& report = record.report;
    const double base = report.utilization /
                        (report.energy.total_nj() / env.energy_scale_nj());
    const auto rob = env.engine().evaluate_robustness(
        model, record.actions, cfg.accel.faults,
        core::default_search_mc_options());
    EXPECT_EQ(record.reward, base * rob.mean_accuracy) << "episode " << e;
  }
  EXPECT_GT(distinct, 1u);
}

}  // namespace
}  // namespace autohet
