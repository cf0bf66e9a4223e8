// Google-benchmark microbenchmarks of the library's hot paths: Eq.4 mapping,
// whole-plan hardware evaluation, Algorithm 1 remapping, the bit-serial
// crossbar datapath, and a DDPG update step.
#include <benchmark/benchmark.h>

#include "autohet/env.hpp"
#include "bench_common.hpp"
#include "mapping/plan.hpp"
#include "mapping/tile_allocator.hpp"
#include "nn/model_zoo.hpp"
#include "reram/crossbar.hpp"
#include "rl/ddpg.hpp"

using namespace autohet;

namespace {

void BM_MapLayer(benchmark::State& state) {
  const auto layer = nn::make_conv(512, 512, 3, 1, 1, 14, 14);
  const mapping::CrossbarShape shape{
      state.range(0), state.range(0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapping::map_layer(layer, shape));
  }
}
BENCHMARK(BM_MapLayer)->Arg(32)->Arg(128)->Arg(512);

// evaluate_plan on a plan compiled once outside the loop: plan validation
// (which re-runs the allocator) plus the report aggregation.
void BM_EvaluatePlanVgg16(benchmark::State& state) {
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();
  const auto p = plan::compile_plan(
      net.name, layers,
      std::vector<mapping::CrossbarShape>(layers.size(), {64, 64}),
      bench::paper_accel(state.range(0) != 0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan::evaluate_plan(p));
  }
}
BENCHMARK(BM_EvaluatePlanVgg16)->Arg(0)->Arg(1);

void BM_EvaluatePlanResnet152(benchmark::State& state) {
  const auto net = nn::resnet152();
  const auto layers = net.mappable_layers();
  const auto p = plan::compile_plan(
      net.name, layers,
      std::vector<mapping::CrossbarShape>(layers.size(), {288, 256}),
      bench::paper_accel(/*tile_shared=*/true));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan::evaluate_plan(p));
  }
}
BENCHMARK(BM_EvaluatePlanResnet152);

void BM_TileSharedRemap(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  common::Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<mapping::Tile> tiles(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      tiles[static_cast<std::size_t>(i)].id = i;
      tiles[static_cast<std::size_t>(i)].empty_xbs =
          static_cast<std::int64_t>(rng.uniform_u64(4));
    }
    std::vector<mapping::Tile*> ptrs;
    for (auto& t : tiles) ptrs.push_back(&t);
    state.ResumeTiming();
    benchmark::DoNotOptimize(mapping::tile_shared_remap(ptrs, 4));
  }
}
BENCHMARK(BM_TileSharedRemap)->Arg(64)->Arg(1024)->Arg(16384);

void BM_CrossbarBitSerialMvm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  reram::LogicalCrossbar xb({n, n});
  common::Rng rng(2);
  std::vector<std::int8_t> w(static_cast<std::size_t>(n * n));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  xb.program(w, n, n);
  xb.ensure_packed();
  std::vector<std::uint8_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xb.mvm_bit_serial(x));
  }
  state.SetItemsProcessed(state.iterations() * n * n * 64);
}
BENCHMARK(BM_CrossbarBitSerialMvm)->Arg(32)->Arg(64)->Arg(128);

void BM_CrossbarIntegerMvm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  reram::LogicalCrossbar xb({n, n});
  common::Rng rng(3);
  std::vector<std::int8_t> w(static_cast<std::size_t>(n * n));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  xb.program(w, n, n);
  std::vector<std::uint8_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xb.mvm_reference(x));
  }
}
BENCHMARK(BM_CrossbarIntegerMvm)->Arg(128)->Arg(512);

void BM_DdpgUpdate(benchmark::State& state) {
  rl::DdpgConfig cfg;
  cfg.state_dim = core::kStateDim;
  rl::DdpgAgent agent(cfg, common::Rng(4));
  common::Rng rng(5);
  for (int i = 0; i < 256; ++i) {
    rl::Transition t;
    t.state.resize(core::kStateDim);
    t.next_state.resize(core::kStateDim);
    for (auto& v : t.state) v = rng.uniform();
    for (auto& v : t.next_state) v = rng.uniform();
    t.action = rng.uniform();
    t.reward = rng.uniform();
    agent.remember(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.update());
  }
}
BENCHMARK(BM_DdpgUpdate);

void BM_EnvEpisodeReward(benchmark::State& state) {
  core::EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();
  cfg.accel.tile_shared = true;
  const core::CrossbarEnv env(nn::vgg16().mappable_layers(), cfg);
  common::Rng rng(6);
  for (auto _ : state) {
    std::vector<std::size_t> actions(env.num_layers());
    for (auto& a : actions) a = rng.uniform_u64(env.num_actions());
    const auto report = env.evaluate(actions);
    benchmark::DoNotOptimize(env.reward(report));
  }
}
BENCHMARK(BM_EnvEpisodeReward);

}  // namespace

BENCHMARK_MAIN();
