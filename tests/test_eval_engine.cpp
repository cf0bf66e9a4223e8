// EvaluationEngine: the memoized path must be bit-identical to
// evaluate_plan on the compiled plan (whose full tile allocator is the
// reference for the engine's compact aggregation), the LRU memo must evict
// in touch order, and concurrent evaluate() calls must match serial ones.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "mapping/crossbar_shape.hpp"
#include "mapping/plan.hpp"
#include "nn/model_zoo.hpp"
#include "reram/eval_engine.hpp"
#include "reram/hardware_model.hpp"
#include "reram/memo.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::AcceleratorConfig;
using reram::EvaluationEngine;
using reram::NetworkReport;

std::vector<nn::LayerSpec> test_layers() {
  return nn::alexnet().mappable_layers();
}

std::vector<CrossbarShape> test_candidates() {
  return mapping::hybrid_candidates();
}

std::vector<CrossbarShape> shapes_for(
    const std::vector<std::size_t>& actions,
    const std::vector<CrossbarShape>& candidates) {
  std::vector<CrossbarShape> shapes;
  shapes.reserve(actions.size());
  for (std::size_t a : actions) shapes.push_back(candidates[a]);
  return shapes;
}

// Bit-identical comparison: every double with EXPECT_EQ (exact ==; the
// engine's documented contract, which EXPECT_DOUBLE_EQ's 4-ULP tolerance
// would not check).
void expect_identical(const NetworkReport& got, const NetworkReport& want) {
  EXPECT_EQ(got.energy.adc_nj, want.energy.adc_nj);
  EXPECT_EQ(got.energy.dac_nj, want.energy.dac_nj);
  EXPECT_EQ(got.energy.cell_nj, want.energy.cell_nj);
  EXPECT_EQ(got.energy.shift_add_nj, want.energy.shift_add_nj);
  EXPECT_EQ(got.energy.buffer_nj, want.energy.buffer_nj);
  EXPECT_EQ(got.area.crossbar_um2, want.area.crossbar_um2);
  EXPECT_EQ(got.area.adc_um2, want.area.adc_um2);
  EXPECT_EQ(got.area.dac_um2, want.area.dac_um2);
  EXPECT_EQ(got.area.shift_add_um2, want.area.shift_add_um2);
  EXPECT_EQ(got.area.tile_overhead_um2, want.area.tile_overhead_um2);
  EXPECT_EQ(got.latency_ns, want.latency_ns);
  EXPECT_EQ(got.utilization, want.utilization);
  EXPECT_EQ(got.fault_vulnerability, want.fault_vulnerability);
  EXPECT_EQ(got.occupied_tiles, want.occupied_tiles);
  EXPECT_EQ(got.empty_crossbars, want.empty_crossbars);
  ASSERT_EQ(got.layers.size(), want.layers.size());
  for (std::size_t i = 0; i < got.layers.size(); ++i) {
    const auto& g = got.layers[i];
    const auto& w = want.layers[i];
    EXPECT_EQ(g.shape, w.shape) << "layer " << i;
    EXPECT_EQ(g.logical_crossbars, w.logical_crossbars) << "layer " << i;
    EXPECT_EQ(g.adc_instances, w.adc_instances) << "layer " << i;
    EXPECT_EQ(g.tiles, w.tiles) << "layer " << i;
    EXPECT_EQ(g.mvm_invocations, w.mvm_invocations) << "layer " << i;
    EXPECT_EQ(g.utilization, w.utilization) << "layer " << i;
    EXPECT_EQ(g.latency_ns, w.latency_ns) << "layer " << i;
    EXPECT_EQ(g.fault_vulnerability, w.fault_vulnerability) << "layer " << i;
    EXPECT_EQ(g.energy.adc_nj, w.energy.adc_nj) << "layer " << i;
    EXPECT_EQ(g.energy.dac_nj, w.energy.dac_nj) << "layer " << i;
    EXPECT_EQ(g.energy.cell_nj, w.energy.cell_nj) << "layer " << i;
    EXPECT_EQ(g.energy.shift_add_nj, w.energy.shift_add_nj) << "layer " << i;
    EXPECT_EQ(g.energy.buffer_nj, w.energy.buffer_nj) << "layer " << i;
  }
}

class EvalEngineIdentity : public ::testing::TestWithParam<bool> {};

TEST_P(EvalEngineIdentity, MatchesEvaluatePlan) {
  const auto layers = test_layers();
  const auto candidates = test_candidates();
  AcceleratorConfig accel;
  accel.tile_shared = GetParam();
  EvaluationEngine engine(layers, candidates, accel);

  common::Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> actions(layers.size());
    for (auto& a : actions) a = rng.uniform_u64(candidates.size());
    const NetworkReport cached = engine.evaluate(actions);
    const NetworkReport uncached = plan::evaluate_plan(plan::compile_plan(
        "", layers, shapes_for(actions, candidates), accel));
    expect_identical(cached, uncached);
    // Second evaluation is a memo hit and must return the same bits again.
    expect_identical(engine.evaluate(actions), uncached);
  }
  EXPECT_GT(engine.cache_stats().hits, 0u);
  EXPECT_GT(engine.cache_stats().misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(TileModes, EvalEngineIdentity,
                         ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? "TileShared" : "TileBased";
                         });

TEST(EvalEngine, MatchesEvaluatePlanAcrossTileSizesNetworksAndFaults) {
  // The compact per-layer drain against the full allocator, across PEs per
  // tile, tile sharing, network depth and candidate set, under a non-ideal
  // fault model so fault_vulnerability is non-zero.
  AcceleratorConfig accel;
  accel.faults.stuck_at_zero_rate = 0.01;
  accel.faults.stuck_at_one_rate = 0.002;
  accel.faults.program_sigma = 0.05;
  accel.faults.cell_bits = 2;
  common::Rng rng(99);
  for (const auto& net : {nn::alexnet(), nn::vgg16(), nn::resnet152()}) {
    const auto layers = net.mappable_layers();
    for (const auto& candidates :
         {mapping::hybrid_candidates(), mapping::square_candidates()}) {
      for (const std::int64_t pes : {1, 3, 4, 16}) {
        for (const bool shared : {false, true}) {
          accel.pes_per_tile = pes;
          accel.tile_shared = shared;
          EvaluationEngine engine(layers, candidates, accel);
          for (int trial = 0; trial < 3; ++trial) {
            std::vector<std::size_t> actions(layers.size());
            for (auto& a : actions) a = rng.uniform_u64(candidates.size());
            SCOPED_TRACE(net.name + " pes=" + std::to_string(pes) +
                         (shared ? " shared" : " based") + " trial " +
                         std::to_string(trial));
            const NetworkReport want = plan::evaluate_plan(plan::compile_plan(
                "", layers, shapes_for(actions, candidates), accel));
            EXPECT_GT(want.fault_vulnerability, 0.0);
            expect_identical(engine.evaluate(actions), want);
          }
        }
      }
    }
  }
}

TEST(EvalEngine, LayerReportTableMatchesEvaluateLayer) {
  const auto layers = test_layers();
  const auto candidates = test_candidates();
  AcceleratorConfig accel;
  EvaluationEngine engine(layers, candidates, accel);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const auto m = mapping::map_layer(layers[l], candidates[c]);
      const std::int64_t tiles =
          (m.logical_crossbars() + accel.pes_per_tile - 1) /
          accel.pes_per_tile;
      const auto want =
          reram::evaluate_layer(layers[l], m, tiles, accel.device);
      const auto& got = engine.layer_report(l, c);
      EXPECT_EQ(got.shape, want.shape);
      EXPECT_EQ(got.tiles, want.tiles);
      EXPECT_DOUBLE_EQ(got.utilization, want.utilization);
      EXPECT_DOUBLE_EQ(got.energy.total_nj(), want.energy.total_nj());
      EXPECT_DOUBLE_EQ(got.latency_ns, want.latency_ns);
    }
  }
}

TEST(EvalEngine, MemoCountsHitsAndMissesUntilCleared) {
  const auto layers = test_layers();
  EvaluationEngine engine(layers, test_candidates(), AcceleratorConfig{});

  auto homo = [&](std::size_t c) {
    return std::vector<std::size_t>(layers.size(), c);
  };
  for (std::size_t c = 0; c < 5; ++c) engine.evaluate(homo(c));
  for (std::size_t c = 0; c < 5; ++c) engine.evaluate(homo(c));
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.evictions, 0u);

  engine.clear_cache();
  const auto cleared = engine.cache_stats();
  EXPECT_EQ(cleared.hits + cleared.misses, 0u);
}

TEST(LruMemo, EvictsLeastRecentlyUsed) {
  reram::LruMemo<int, int, std::hash<int>> memo(4);
  std::size_t evicted = 0;
  for (int k = 0; k < 5; ++k) evicted += memo.insert(k, 10 * k);
  EXPECT_EQ(evicted, 1u);  // capacity 4: key 0 was evicted
  EXPECT_EQ(memo.find(0), nullptr);

  // Keys 1..4 are resident; finding them touches 1 first, so 1 is now the
  // least recently used and re-inserting 0 evicts it.
  for (int k = 1; k < 5; ++k) {
    const int* hit = memo.find(k);
    ASSERT_NE(hit, nullptr) << k;
    EXPECT_EQ(*hit, 10 * k);
  }
  EXPECT_EQ(memo.insert(0, 0), 1u);
  EXPECT_EQ(memo.find(1), nullptr);
  ASSERT_NE(memo.find(2), nullptr);

  // A repeated insert keeps the first value and evicts nothing.
  EXPECT_EQ(memo.insert(2, -1), 0u);
  EXPECT_EQ(*memo.find(2), 20);

  memo.clear();
  EXPECT_EQ(memo.find(2), nullptr);
}

TEST(LruMemo, CapacityOneKeepsOnlyTheNewestKey) {
  reram::LruMemo<int, int, std::hash<int>> memo(1);
  EXPECT_EQ(memo.insert(1, 10), 0u);
  for (int k = 2; k < 6; ++k) {
    EXPECT_EQ(memo.insert(k, 10 * k), 1u) << k;
    EXPECT_EQ(memo.find(k - 1), nullptr) << k;
    ASSERT_NE(memo.find(k), nullptr) << k;
    EXPECT_EQ(*memo.find(k), 10 * k);
  }
}

TEST(LruMemo, RepeatedInsertDoesNotRefreshRecency) {
  // Only find() touches an entry: re-inserting a resident key leaves it
  // the least recently used, so the next new key evicts it.
  reram::LruMemo<int, int, std::hash<int>> memo(2);
  memo.insert(0, 0);
  memo.insert(1, 10);
  EXPECT_EQ(memo.insert(0, 99), 0u);
  EXPECT_EQ(memo.insert(2, 20), 1u);
  EXPECT_EQ(memo.find(0), nullptr);
  ASSERT_NE(memo.find(1), nullptr);
  ASSERT_NE(memo.find(2), nullptr);

  // A miss touches nothing either: 1 was found before 2, so 1 goes next.
  EXPECT_EQ(memo.find(7), nullptr);
  EXPECT_EQ(memo.insert(3, 30), 1u);
  EXPECT_EQ(memo.find(1), nullptr);
  EXPECT_NE(memo.find(2), nullptr);
}

TEST(LruMemo, ClearedMemoRefillsToCapacity) {
  reram::LruMemo<int, int, std::hash<int>> memo(3);
  for (int k = 0; k < 5; ++k) memo.insert(k, k);
  memo.clear();
  for (int k = 0; k < 3; ++k) EXPECT_EQ(memo.insert(10 + k, k), 0u) << k;
  for (int k = 0; k < 3; ++k) EXPECT_NE(memo.find(10 + k), nullptr) << k;
  EXPECT_EQ(memo.insert(13, 3), 1u);
  EXPECT_EQ(memo.find(10), nullptr);
}

TEST(EvalEngine, MemoEvictsBeyondItsCapacity) {
  // The report memo holds 4096 action vectors (the search's episodes fit
  // in it); the 4097th distinct vector evicts the coldest.
  const auto layers = test_layers();
  const auto candidates = test_candidates();
  EvaluationEngine engine(layers, candidates, AcceleratorConfig{});
  auto actions_of = [&](std::size_t i) {
    std::vector<std::size_t> actions(layers.size());
    for (auto& a : actions) {
      a = i % candidates.size();
      i /= candidates.size();
    }
    return actions;
  };
  constexpr std::size_t kCapacity = 4096;
  for (std::size_t i = 0; i < kCapacity; ++i) engine.evaluate(actions_of(i));
  EXPECT_EQ(engine.cache_stats().evictions, 0u);
  engine.evaluate(actions_of(kCapacity));
  auto stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, kCapacity + 1);
  EXPECT_EQ(stats.evictions, 1u);

  // The first vector was the coldest: it is recomputed (and evicts the
  // second), while the newest is still a hit.
  engine.evaluate(actions_of(0));
  engine.evaluate(actions_of(kCapacity));
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, kCapacity + 2);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(EvalEngine, ValidatesActions) {
  const auto layers = test_layers();
  const auto candidates = test_candidates();
  EvaluationEngine engine(layers, candidates, AcceleratorConfig{});
  EXPECT_THROW(engine.evaluate({0, 1}), std::invalid_argument);
  std::vector<std::size_t> bad(layers.size(), candidates.size());
  EXPECT_THROW(engine.evaluate(bad), std::invalid_argument);
}

TEST(EvalEngine, ConcurrentEvaluateMatchesSerialAndCountsEveryCall) {
  // Threads of a pool evaluate overlapping action vectors on one engine: the
  // engine's mutex guards its memo, every report equals a serial engine's,
  // and each call is exactly one hit or one miss.
  const auto layers = test_layers();
  const auto candidates = test_candidates();
  AcceleratorConfig accel;
  accel.tile_shared = true;
  common::Rng rng(7);
  std::vector<std::vector<std::size_t>> distinct;
  for (int i = 0; i < 12; ++i) {
    std::vector<std::size_t> actions(layers.size());
    for (auto& a : actions) a = rng.uniform_u64(candidates.size());
    distinct.push_back(std::move(actions));
  }
  EvaluationEngine serial(layers, candidates, accel);
  std::vector<NetworkReport> want;
  for (const auto& actions : distinct) want.push_back(serial.evaluate(actions));

  constexpr std::size_t kCalls = 96;  // each vector evaluated 8 times
  EvaluationEngine engine(layers, candidates, accel);
  std::vector<NetworkReport> got(kCalls);
  common::ThreadPool pool(4);
  pool.parallel_for(0, kCalls, [&](std::size_t i) {
    got[i] = engine.evaluate(distinct[i % distinct.size()]);
  });
  for (std::size_t i = 0; i < kCalls; ++i) {
    expect_identical(got[i], want[i % distinct.size()]);
  }
  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, kCalls);
  EXPECT_GE(stats.misses, distinct.size());
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace autohet
