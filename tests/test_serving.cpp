// Tests for the multi-tenant serving layer (src/serve/): residency under
// swap pressure (LRU/LFU victim choice, tile budgets, bit-identical
// re-programming), the discrete-event simulator's batching/latency/energy
// accounting, determinism of the serving report across runs and thread
// counts, and the profiler join (swap counts vs recorded events).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "mapping/plan.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "obs/profile.hpp"
#include "reram/eval_engine.hpp"
#include "reram/functional.hpp"
#include "reram/scheduler.hpp"
#include "serve/serialize.hpp"
#include "serve/simulator.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace autohet;

/// LeNet5 compiled under `name` with uniform 72x64 crossbars. Using a
/// distinct name per instance keeps the multi-model footprint bookkeeping
/// honest when several copies share one fabric.
plan::DeploymentPlan lenet_plan(const std::string& name = "lenet5") {
  const auto net = nn::lenet5();
  const auto layers = net.mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(layers.size(), {72, 64});
  reram::AcceleratorConfig accel;
  accel.tile_shared = true;
  return plan::compile_plan(name, layers, shapes, accel);
}

std::vector<plan::DeploymentPlan> named_plans(int count) {
  std::vector<plan::DeploymentPlan> plans;
  for (int m = 0; m < count; ++m) {
    plans.push_back(lenet_plan("tenant" + std::to_string(m)));
  }
  return plans;
}

/// A hand-written trace: one request per (model, arrival) pair, in order.
serve::TrafficTrace manual_trace(
    std::int64_t num_models,
    const std::vector<std::pair<std::int64_t, double>>& arrivals) {
  serve::TrafficTrace trace;
  trace.num_models = num_models;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    trace.requests.push_back({static_cast<std::int64_t>(i),
                              arrivals[i].first, arrivals[i].second});
  }
  return trace;
}

serve::TrafficTrace generated_trace(std::int64_t num_models,
                                    double duration_s = 0.2) {
  // ~1000 qps keeps LeNet5 comfortably under saturation, so queues drain
  // and the popularity flips between models actually reach the fabric
  // (an overloaded head queue would monopolize the accelerator instead).
  serve::TrafficConfig config;
  config.seed = 7;
  config.duration_s = duration_s;
  config.mean_qps = 1000.0;
  config.profile = serve::RateProfile::kBursty;
  return serve::generate_trace(config, num_models);
}

// -------------------------------------------------------------- residency --

TEST(ServingFabric, ColdLoadCountsAsSwapIn) {
  serve::FabricConfig config;
  serve::ServingFabric fabric(named_plans(2), config);
  EXPECT_FALSE(fabric.resident(0));
  const serve::AdmitResult first = fabric.admit(0);
  EXPECT_TRUE(first.swapped_in);
  EXPECT_EQ(first.evictions, 0);
  EXPECT_GT(first.program_latency_ns, 0.0);
  EXPECT_GT(first.program_energy_nj, 0.0);
  EXPECT_TRUE(fabric.resident(0));
  EXPECT_EQ(fabric.swap_in_count(0), 1);

  // Resident hits are free.
  const serve::AdmitResult again = fabric.admit(0);
  EXPECT_FALSE(again.swapped_in);
  EXPECT_EQ(again.program_latency_ns, 0.0);
  EXPECT_EQ(fabric.swap_in_count(0), 1);

  // Unbounded budget: the second model joins without evicting anyone.
  const serve::AdmitResult second = fabric.admit(1);
  EXPECT_TRUE(second.swapped_in);
  EXPECT_EQ(second.evictions, 0);
  EXPECT_EQ(fabric.resident_models(),
            (std::vector<std::int64_t>{0, 1}));
}

TEST(ServingFabric, ProgramCostMatchesProgrammingModel) {
  serve::FabricConfig config;
  serve::ServingFabric fabric(named_plans(1), config);
  const reram::ProgrammingReport expected = reram::evaluate_programming(
      fabric.model_plan(0).allocation, fabric.model_plan(0).accel.device,
      config.programming, fabric.model_plan(0).accel.faults);
  const serve::AdmitResult result = fabric.admit(0);
  EXPECT_EQ(result.program_latency_ns, expected.latency_ns);
  EXPECT_EQ(result.program_energy_nj, expected.energy_nj);
}

TEST(ServingFabric, RejectsBudgetSmallerThanOneModel) {
  serve::FabricConfig config;
  config.tile_capacity = 1;
  EXPECT_THROW(serve::ServingFabric(named_plans(1), config),
               std::invalid_argument);
}

TEST(ServingFabric, LruEvictsLeastRecentlyUsed) {
  // Budget exactly two identical models (sharing off => additive
  // footprints), three tenants competing.
  serve::FabricConfig config;
  config.scope = mapping::SharingScope::kNone;
  serve::ServingFabric probe(named_plans(3), config);
  config.tile_capacity = 2 * probe.standalone_tiles(0);

  serve::ServingFabric fabric(named_plans(3), config);
  fabric.admit(0);
  fabric.admit(1);
  fabric.admit(0);  // 1 is now the least recently used
  const serve::AdmitResult result = fabric.admit(2);
  EXPECT_TRUE(result.swapped_in);
  EXPECT_EQ(result.evictions, 1);
  EXPECT_EQ(fabric.resident_models(),
            (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(fabric.eviction_count(1), 1);
  EXPECT_LE(fabric.resident_tiles(), config.tile_capacity);
}

TEST(ServingFabric, LfuEvictsLeastFrequentlyUsed) {
  serve::FabricConfig config;
  config.scope = mapping::SharingScope::kNone;
  config.eviction = serve::EvictionPolicy::kLfu;
  serve::ServingFabric probe(named_plans(3), config);
  config.tile_capacity = 2 * probe.standalone_tiles(0);

  serve::ServingFabric fabric(named_plans(3), config);
  fabric.admit(0);
  fabric.admit(0);
  fabric.admit(1);  // used once, while 0 was used twice
  const serve::AdmitResult result = fabric.admit(2);
  EXPECT_EQ(result.evictions, 1);
  EXPECT_EQ(fabric.eviction_count(1), 1);
  EXPECT_EQ(fabric.resident_models(),
            (std::vector<std::int64_t>{0, 2}));
}

TEST(ServingFabric, CrossModelSharingShrinksResidentFootprint) {
  // The whole point of co-residency on a tile-shared fabric: two models
  // packed together must not cost more than the sum of their standalone
  // footprints (and with cross-model sharing they typically cost less).
  serve::FabricConfig config;
  serve::ServingFabric fabric(named_plans(2), config);
  fabric.admit(0);
  fabric.admit(1);
  EXPECT_LE(fabric.resident_tiles(),
            fabric.standalone_tiles(0) + fabric.standalone_tiles(1));
}

TEST(ServingFabric, FootprintEqualsAllocatorOnRandomResidentSets) {
  // The fabric counts a resident set's footprint on its layers' partly
  // filled last tiles (mapping::drain_partial_tiles); the materializing
  // allocator is the oracle. Four tenants with random zoo networks and
  // random hybrid shapes are admitted in random order, so every check sees
  // a different set of 1-4 models. The engine's compact pass shares the
  // helper, so its tile counts must still equal evaluate_plan's.
  common::Rng rng(5);
  const auto candidates = mapping::hybrid_candidates();
  const std::vector<nn::NetworkSpec> zoo = {nn::lenet5(), nn::alexnet(),
                                            nn::vgg16(), nn::resnet152()};
  for (const std::int64_t xbs : {1, 2, 4, 8}) {
    for (int trial = 0; trial < 3; ++trial) {
      reram::AcceleratorConfig accel;
      accel.pes_per_tile = xbs;
      std::vector<plan::DeploymentPlan> plans;
      std::vector<mapping::ResidentModel> specs;
      for (int t = 0; t < 4; ++t) {
        const nn::NetworkSpec& net = zoo[rng.uniform_u64(zoo.size())];
        std::vector<std::size_t> actions(net.mappable_layers().size());
        std::vector<mapping::CrossbarShape> shapes;
        for (std::size_t& a : actions) {
          a = rng.uniform_u64(candidates.size());
          shapes.push_back(candidates[a]);
        }
        accel.tile_shared = rng.uniform_u64(2) == 1;
        specs.push_back({net.name, net.mappable_layers(), shapes});
        plans.push_back(plan::compile_plan(net.name, specs.back().layers,
                                           shapes, accel));
        const reram::EvaluationEngine engine(specs.back().layers, candidates,
                                             accel);
        const reram::NetworkReport fast = engine.evaluate(actions);
        const reram::NetworkReport want = plan::evaluate_plan(plans.back());
        EXPECT_EQ(fast.occupied_tiles, want.occupied_tiles) << net.name;
        EXPECT_EQ(fast.empty_crossbars, want.empty_crossbars) << net.name;
      }
      for (const mapping::SharingScope scope :
           {mapping::SharingScope::kNone, mapping::SharingScope::kPerModel,
            mapping::SharingScope::kCrossModel}) {
        SCOPED_TRACE("xbs=" + std::to_string(xbs) + " trial " +
                     std::to_string(trial) + " scope " +
                     serve::sharing_scope_name(scope));
        serve::FabricConfig config;
        config.scope = scope;
        serve::ServingFabric fabric(plans, config);
        for (std::int64_t m = 0; m < 4; ++m) {
          EXPECT_EQ(fabric.standalone_tiles(m),
                    mapping::allocate_tiles({specs[static_cast<std::size_t>(m)]},
                                            xbs, scope)
                        .occupied_tiles());
        }
        std::vector<std::int64_t> order = {0, 1, 2, 3};
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.uniform_u64(i)]);
        }
        for (const std::int64_t m : order) {
          fabric.admit(m);
          std::vector<mapping::ResidentModel> resident;
          for (const std::int64_t r : fabric.resident_models()) {
            resident.push_back(specs[static_cast<std::size_t>(r)]);
          }
          EXPECT_EQ(fabric.resident_tiles(),
                    mapping::allocate_tiles(resident, xbs, scope)
                        .occupied_tiles());
        }
      }
    }
  }
}

TEST(ServingFabric, RejectsPlanWithEditedAllocation) {
  // Construction validates every plan once (evaluate_plan), and that is
  // the serve path's only validation: schedules and footprints read the
  // inputs derived from the validated plans. A plan whose frozen
  // allocation was edited after compile must fail there, whichever
  // tenant it is.
  const std::vector<void (*)(mapping::AllocationResult&)> edits = {
      [](mapping::AllocationResult& a) { ++a.layers[0].tiles_allocated; },
      [](mapping::AllocationResult& a) { ++a.tiles.front().empty_xbs; },
      [](mapping::AllocationResult& a) { a.remap[0].push_back(0); },
  };
  for (std::size_t e = 0; e < edits.size(); ++e) {
    std::vector<plan::DeploymentPlan> plans = named_plans(2);
    edits[e](plans[1].allocation);
    EXPECT_THROW(serve::ServingFabric(plans, {}), std::invalid_argument)
        << "edit " << e;
  }
  EXPECT_NO_THROW(serve::ServingFabric(named_plans(2), {}));
}

TEST(ServingFabric, ScheduleEqualsPlanSchedule) {
  // The fabric's schedule inputs are the validated plan's costs and
  // dataflow, so its schedules equal schedule_batch on the plan itself.
  serve::ServingFabric fabric(named_plans(1), {});
  for (const std::int64_t batch : {1, 3, 8}) {
    const reram::ScheduleReport got = fabric.schedule(0, batch);
    const reram::ScheduleReport want =
        reram::schedule_batch(fabric.model_plan(0), batch);
    EXPECT_EQ(got.makespan_ns, want.makespan_ns);
    EXPECT_EQ(got.prefix_makespan_ns, want.prefix_makespan_ns);
    ASSERT_EQ(got.tasks.size(), want.tasks.size());
    for (std::size_t i = 0; i < got.tasks.size(); ++i) {
      EXPECT_EQ(got.tasks[i].finish_ns, want.tasks[i].finish_ns) << i;
    }
  }
}

TEST(ServingFabric, ReprogrammedModelMatchesFreshFabricBitForBit) {
  // Functional mode under a one-model budget: 0 is programmed, evicted by
  // 1, then re-programmed. Its outputs must equal both its pre-eviction
  // outputs and a fresh compile_plan fabric, exactly.
  const auto net = nn::lenet5();
  const auto layers = net.mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(layers.size(), {72, 64});
  reram::AcceleratorConfig accel;
  accel.tile_shared = true;
  std::vector<plan::DeploymentPlan> plans;
  plans.push_back(plan::compile_plan(net.name, layers, shapes, accel));
  plans.push_back(plan::compile_plan(net.name, layers, shapes, accel));

  serve::FabricConfig config;
  config.functional = true;
  config.scope = mapping::SharingScope::kNone;
  serve::ServingFabric probe(plans, config);
  config.tile_capacity = probe.standalone_tiles(0);

  serve::ServingFabric fabric(plans, config);
  common::Rng img_rng(4);
  const nn::LayerSpec& input = net.layers.front();
  const tensor::Tensor image = nn::synthetic_image(
      img_rng, input.in_channels, input.in_height, input.in_width);

  fabric.admit(0);
  ASSERT_NE(fabric.resident_fabric(0), nullptr);
  const tensor::Tensor before = fabric.resident_fabric(0)->forward(image);

  const serve::AdmitResult evicting = fabric.admit(1);
  EXPECT_EQ(evicting.evictions, 1);
  EXPECT_FALSE(fabric.resident(0));
  EXPECT_EQ(fabric.resident_fabric(0), nullptr);

  const serve::AdmitResult back = fabric.admit(0);
  EXPECT_TRUE(back.swapped_in);
  ASSERT_NE(fabric.resident_fabric(0), nullptr);
  const tensor::Tensor after = fabric.resident_fabric(0)->forward(image);
  EXPECT_EQ(tensor::max_abs_diff(before, after), 0.0f);

  ASSERT_NE(fabric.model_weights(0), nullptr);
  const reram::SimulatedModel fresh(*fabric.model_weights(0),
                                    fabric.model_plan(0));
  EXPECT_EQ(tensor::max_abs_diff(fresh.forward(image), after), 0.0f);
}

// -------------------------------------------------------------- batching --

TEST(ServingSim, FullBatchesDispatchImmediately) {
  serve::ServingFabric fabric(named_plans(1), {});
  serve::BatchingConfig batching;
  batching.max_batch = 4;
  batching.max_wait_ns = 1e12;  // never time out: only fullness dispatches
  const serve::TrafficTrace trace = manual_trace(
      1, {{0, 0.0}, {0, 0.0}, {0, 0.0}, {0, 0.0},
          {0, 0.0}, {0, 0.0}, {0, 0.0}, {0, 0.0}});
  const serve::ServingReport report =
      serve::simulate(fabric, batching, trace);
  EXPECT_EQ(report.total_requests, 8);
  EXPECT_EQ(report.total_batches, 2);
  EXPECT_DOUBLE_EQ(report.mean_batch, 4.0);
  EXPECT_EQ(report.models[0].requests, 8);
  // Depth is sampled per simulated instant: the 8 arrivals and the first
  // pickup share t=0, so the observed peak is the 4 left waiting.
  EXPECT_EQ(report.peak_queue_depth, 4);
}

TEST(ServingSim, MaxWaitFlushesPartialBatches) {
  serve::ServingFabric fabric(named_plans(1), {});
  serve::BatchingConfig batching;
  batching.max_batch = 8;
  batching.max_wait_ns = 1000.0;
  // Two requests far apart: each times out alone.
  const serve::TrafficTrace trace = manual_trace(1, {{0, 0.0}, {0, 1e9}});
  const serve::ServingReport report =
      serve::simulate(fabric, batching, trace);
  EXPECT_EQ(report.total_batches, 2);
  EXPECT_DOUBLE_EQ(report.mean_batch, 1.0);
}

TEST(ServingSim, OverloadedDispatchDoesNotStarveHighIndexModels) {
  // Regression: when several models are ready the moment the accelerator
  // frees up, their dispatch times all tie and the tie used to break by
  // lowest model index — under sustained overload from model 0, model 1's
  // lone request would sit queued until model 0's queue fully drained.
  // The tie now breaks by oldest head-of-queue arrival, so model 1 is
  // served as soon as its request is the oldest one waiting.
  serve::ServingFabric fabric(named_plans(2), {});
  serve::BatchingConfig batching;
  batching.max_batch = 4;
  batching.max_wait_ns = 1.0;  // every queue is always dispatch-ready
  // 40 model-0 requests starting at t=0, 1ns apart, with model 1's lone
  // request landing mid-flood at t=5: everything is queued long before the
  // first batch finishes, so model 0's queue never empties until the very
  // end of the simulation. Arrivals must stay time-sorted in the trace.
  std::vector<std::pair<std::int64_t, double>> arrivals;
  for (int i = 0; i < 5; ++i) arrivals.push_back({0, 1.0 * i});
  arrivals.push_back({1, 5.0});
  for (int i = 6; i < 41; ++i) arrivals.push_back({0, 1.0 * i});
  const serve::ServingReport report =
      serve::simulate(fabric, batching, manual_trace(2, arrivals));

  // Every request completes, including the would-be-starved one.
  EXPECT_EQ(report.total_requests, 41);
  EXPECT_EQ(report.models[1].requests, 1);
  EXPECT_EQ(report.models[1].batches, 1);
  // Model 1's request drains early (it is the oldest head after the first
  // model-0 batch dispatches), instead of finishing dead last behind all
  // ten model-0 batches as the index tie-break forced.
  EXPECT_LT(report.models[1].latency.max_ms,
            report.models[0].latency.p50_ms);
}

TEST(ServingSim, LatencyIncludesQueueingAndProgramming) {
  // Second model's first batch pays its swap-in programming latency; every
  // latency is at least the batch-1 compute time.
  serve::ServingFabric fabric(named_plans(2), {});
  serve::BatchingConfig batching;
  batching.max_batch = 1;
  const serve::TrafficTrace trace = manual_trace(2, {{0, 0.0}, {1, 0.0}});
  const serve::ServingReport report =
      serve::simulate(fabric, batching, trace);
  const double compute_ms = fabric.model_report(0).latency_ns / 1e6;
  const double program_ms = fabric.program_cost(0).latency_ns / 1e6;
  EXPECT_GE(report.models[0].latency.p50_ms, compute_ms);
  // Model 1 waited for model 0's batch and paid its own programming.
  EXPECT_GE(report.models[1].latency.p50_ms, compute_ms + program_ms);
  EXPECT_EQ(report.swap_ins, 2);
}

TEST(ServingSim, SingleServerMatchesPollaczekKhinchine) {
  // One model, batches of one dispatched on arrival, Poisson arrivals: an
  // M/D/1 queue whose deterministic service time D is the model's batch-1
  // makespan. Pollaczek-Khinchine gives the mean latency
  // D + rho D / (2 (1 - rho)) and the mean number waiting (the simulator's
  // queue depth drops at pickup) rho^2 / (2 (1 - rho)). Each seed is one
  // independent estimate; the tolerance is the two-sided 99.9% Student-t
  // interval of their mean, from the seed-to-seed spread.
  constexpr int kSeeds = 8;
  constexpr double kStudentT = 5.408;  // t quantile 0.9995, 7 d.o.f.
  constexpr double kRequests = 50'000.0;
  serve::ServingFabric fabric(named_plans(1), {});
  fabric.admit(0);  // resident from the start: no programming in the queue
  serve::BatchingConfig batching;
  batching.max_batch = 1;
  batching.max_wait_ns = 0.0;
  const double service_ns = fabric.schedule(0, 1).makespan_ns;
  ASSERT_GT(service_ns, 0.0);

  const auto expect_in_interval = [&](const std::vector<double>& samples,
                                      double want, const char* what) {
    const double n = static_cast<double>(samples.size());
    double mean = 0.0;
    for (const double v : samples) mean += v / n;
    double sum_sq = 0.0;
    for (const double v : samples) sum_sq += (v - mean) * (v - mean);
    const double half_width = kStudentT * std::sqrt(sum_sq / (n - 1.0) / n);
    EXPECT_NEAR(mean, want, half_width) << what;
  };
  for (const double rho : {0.3, 0.5, 0.8}) {
    SCOPED_TRACE("rho " + std::to_string(rho));
    std::vector<double> latency_ms;
    std::vector<double> depth;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      serve::TrafficConfig config;
      config.seed = static_cast<std::uint64_t>(seed);
      config.profile = serve::RateProfile::kConstant;
      config.mean_qps = rho * 1e9 / service_ns;
      config.duration_s = kRequests / config.mean_qps;
      const serve::ServingReport report = serve::simulate(
          fabric, batching, serve::generate_trace(config, 1));
      EXPECT_EQ(report.swap_ins, 0);
      latency_ms.push_back(report.latency.mean_ms);
      depth.push_back(report.mean_queue_depth);
    }
    const double wait_ns = rho * service_ns / (2.0 * (1.0 - rho));
    expect_in_interval(latency_ms, (service_ns + wait_ns) / 1e6,
                       "mean latency");
    expect_in_interval(depth, rho * rho / (2.0 * (1.0 - rho)),
                       "mean queue depth");
  }
}

// ------------------------------------------------- accounting + percentiles --

TEST(ServingSim, PercentilesAreNearestRank) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(serve::percentile(sorted, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(serve::percentile(sorted, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(serve::percentile(sorted, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(serve::percentile(sorted, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(serve::percentile({3.5}, 99.0), 3.5);
  EXPECT_DOUBLE_EQ(serve::percentile({}, 50.0), 0.0);

  const serve::LatencySummary summary =
      serve::summarize_latencies({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(summary.p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(summary.max_ms, 4.0);
  EXPECT_DOUBLE_EQ(summary.mean_ms, 2.5);
}

TEST(ServingSim, EnergyConservationAndLatencyOrdering) {
  serve::FabricConfig config;
  config.scope = mapping::SharingScope::kNone;
  serve::ServingFabric probe(named_plans(2), config);
  config.tile_capacity = probe.standalone_tiles(0);  // one resident at a time

  serve::ServingFabric fabric(named_plans(2), config);
  const serve::ServingReport report =
      serve::simulate(fabric, {}, generated_trace(2));
  ASSERT_GT(report.total_requests, 0);
  EXPECT_GT(report.sustained_qps, 0.0);
  EXPECT_GT(report.swap_ins, 2);  // the tight budget forces re-programming

  EXPECT_LE(report.latency.p50_ms, report.latency.p95_ms);
  EXPECT_LE(report.latency.p95_ms, report.latency.p99_ms);
  EXPECT_LE(report.latency.p99_ms, report.latency.max_ms);

  // Exact conservation: inference is the index-ordered per-model sum, the
  // total is inference + programming — reproducible from the JSON.
  double inference = 0.0;
  std::int64_t requests = 0;
  for (const serve::ModelServingStats& m : report.models) {
    EXPECT_EQ(m.inference_energy_nj,
              static_cast<double>(m.requests) * m.energy_per_request_nj);
    inference += m.inference_energy_nj;
    requests += m.requests;
  }
  EXPECT_EQ(inference, report.inference_energy_nj);
  EXPECT_EQ(report.total_energy_nj,
            report.inference_energy_nj + report.programming_energy_nj);
  EXPECT_EQ(requests, report.total_requests);
  EXPECT_GT(report.programming_energy_nj, 0.0);
}

TEST(ServingSim, QueueTimelineStartsAndDrainsToZero) {
  serve::ServingFabric fabric(named_plans(2), {});
  const serve::ServingReport report =
      serve::simulate(fabric, {}, generated_trace(2, 0.005));
  ASSERT_FALSE(report.queue_timeline.empty());
  EXPECT_GT(report.queue_timeline.front().queue_depth, 0);
  EXPECT_EQ(report.queue_timeline.back().queue_depth, 0);
  ASSERT_FALSE(report.busy_timeline.empty());
  for (const serve::ServingReport::BusyInterval& b : report.busy_timeline) {
    EXPECT_LE(b.start_ns, b.program_until_ns);
    EXPECT_LT(b.program_until_ns, b.finish_ns);
  }
}

// ------------------------------------------------------------ determinism --

TEST(ServingSim, ReportByteIdenticalAcrossRunsAndThreads) {
  serve::FabricConfig config;
  config.scope = mapping::SharingScope::kNone;
  serve::ServingFabric probe(named_plans(2), config);
  config.tile_capacity = probe.standalone_tiles(0);
  const serve::TrafficTrace trace = generated_trace(2);

  // A fresh fabric per run; the pooled run shares one pool between the
  // fabric's precompute and the simulation, as the CLI does.
  const auto run = [&](common::ThreadPool* pool) {
    serve::ServingFabric fabric(named_plans(2), config, pool);
    return serve::serving_json_string(serve::simulate(fabric, {}, trace, pool));
  };
  const std::string serial = run(nullptr);
  const std::string rerun = run(nullptr);
  common::ThreadPool pool(0);
  const std::string pooled = run(&pool);
  EXPECT_EQ(serial, rerun);
  EXPECT_EQ(serial, pooled);
}

TEST(ServingSim, RejectsTraceWithWrongModelCount) {
  serve::ServingFabric fabric(named_plans(2), {});
  const serve::TrafficTrace trace = manual_trace(3, {{2, 0.0}});
  EXPECT_THROW(serve::simulate(fabric, {}, trace), std::invalid_argument);
}

// Simulating `trace` raises std::invalid_argument whose message contains
// `expected`.
void expect_simulate_rejects(const serve::TrafficTrace& trace,
                             const std::string& expected) {
  serve::ServingFabric fabric(named_plans(2), {});
  try {
    (void)serve::simulate(fabric, {}, trace);
    ADD_FAILURE() << "simulated a trace that should fail with: " << expected;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
        << e.what();
  }
}

TEST(ServingSim, RejectsDecreasingArrivals) {
  // Two arrivals swapped, and a negative arrival mid-trace: both used to
  // simulate to a report (the negative one to a ~1 s p99).
  expect_simulate_rejects(
      manual_trace(2, {{0, 0.0}, {1, 2000.0}, {0, 1000.0}, {1, 3000.0}}),
      "trace request 2 arrives before request 1");
  expect_simulate_rejects(
      manual_trace(2, {{0, 0.0}, {1, 1000.0}, {0, -1e9}, {1, 3000.0}}),
      "trace request 2 arrives before request 1");
}

TEST(ServingSim, RejectsNonFiniteArrivals) {
  const double inf = std::numeric_limits<double>::infinity();
  expect_simulate_rejects(manual_trace(2, {{0, 0.0}, {1, inf}}),
                          "trace request 1 has a non-finite arrival_ns");
  expect_simulate_rejects(
      manual_trace(2, {{0, 0.0}, {1, std::nan("")}, {0, 1.0}}),
      "trace request 1 has a non-finite arrival_ns");
  expect_simulate_rejects(manual_trace(2, {{0, -inf}, {1, 0.0}}),
                          "trace request 0 has a non-finite arrival_ns");
}

TEST(ServingSim, RejectsRequestsForUnknownModels) {
  expect_simulate_rejects(manual_trace(2, {{0, 0.0}, {0, 1.0}, {2, 2.0}}),
                          "trace request 2 targets model 2, outside [0, 2)");
  expect_simulate_rejects(manual_trace(2, {{-1, 0.0}}),
                          "trace request 0 targets model -1, outside [0, 2)");
}

void expect_same_summary(const serve::LatencySummary& got,
                         const serve::LatencySummary& want,
                         const std::string& what) {
  EXPECT_EQ(got.p50_ms, want.p50_ms) << what;
  EXPECT_EQ(got.p95_ms, want.p95_ms) << what;
  EXPECT_EQ(got.p99_ms, want.p99_ms) << what;
  EXPECT_EQ(got.mean_ms, want.mean_ms) << what;
  EXPECT_EQ(got.max_ms, want.max_ms) << what;
}

TEST(ServingSim, LatencySummariesEqualPerRequestReplay) {
  // Reference for the batch timings and the latency merge: replay every
  // request's latency from the busy timeline (FIFO per model; image i of a
  // batch of b finishes at its offset in a fresh batch-b schedule) and
  // summarize with the sorting summarize_latencies. Three tenants under a
  // two-model budget and a diurnal load interleave swaps, partial and full
  // batches.
  serve::FabricConfig config;
  config.scope = mapping::SharingScope::kNone;
  serve::ServingFabric probe(named_plans(3), config);
  config.tile_capacity = 2 * probe.standalone_tiles(0);
  serve::ServingFabric fabric(named_plans(3), config);
  serve::TrafficConfig traffic;
  traffic.seed = 5;
  traffic.duration_s = 0.05;
  traffic.mean_qps = 6000.0;
  traffic.profile = serve::RateProfile::kDiurnal;
  const serve::TrafficTrace trace = serve::generate_trace(traffic, 3);
  const serve::ServingReport report = serve::simulate(fabric, {}, trace);
  ASSERT_GT(report.swap_ins, 3);

  std::vector<std::vector<double>> arrivals(3);
  for (const serve::Request& r : trace.requests) {
    arrivals[static_cast<std::size_t>(r.model)].push_back(r.arrival_ns);
  }
  std::vector<std::vector<double>> model_ms(3);
  std::vector<double> all_ms;
  std::vector<std::size_t> served(3, 0);
  std::vector<bool> batch_sizes_seen(9, false);
  for (const serve::ServingReport::BusyInterval& b : report.busy_timeline) {
    const auto m = static_cast<std::size_t>(b.model);
    const plan::DeploymentPlan& p = fabric.model_plan(b.model);
    const auto n = static_cast<std::int64_t>(p.layers.size());
    const reram::ScheduleReport schedule = reram::schedule_batch(p, b.batch);
    EXPECT_EQ(b.finish_ns, b.program_until_ns + schedule.makespan_ns);
    for (std::int64_t i = 0; i < b.batch; ++i) {
      const double finish_ns =
          b.program_until_ns + schedule.task(i, n - 1, n).finish_ns;
      const double ms = (finish_ns - arrivals[m][served[m]++]) / 1e6;
      model_ms[m].push_back(ms);
      all_ms.push_back(ms);
    }
    batch_sizes_seen[static_cast<std::size_t>(b.batch)] = true;
  }
  EXPECT_TRUE(batch_sizes_seen[8]);
  EXPECT_GE(std::count(batch_sizes_seen.begin(), batch_sizes_seen.end(), true),
            4);
  ASSERT_EQ(all_ms.size(), trace.requests.size());
  expect_same_summary(report.latency, serve::summarize_latencies(all_ms),
                      "all models");
  for (std::size_t m = 0; m < 3; ++m) {
    expect_same_summary(report.models[m].latency,
                        serve::summarize_latencies(model_ms[m]),
                        "model " + std::to_string(m));
  }
}

TEST(ServingSim, QueueTimelineEqualsSortedEventReplay) {
  // Reference for the two-list merge: sort every arrival (+1) and pickup
  // (-batch) by time, apply all changes at one instant, sample the depth.
  // Arrivals of three tenants snapped to a 1 ms grid coincide, and with no
  // batching wait the idle accelerator picks a batch up at the very
  // instant its requests arrive.
  serve::ServingFabric fabric(named_plans(3), {});
  serve::BatchingConfig batching;
  batching.max_wait_ns = 0.0;
  serve::TrafficConfig config;
  config.seed = 11;
  config.duration_s = 0.05;
  config.mean_qps = 5000.0;
  serve::TrafficTrace trace = serve::generate_trace(config, 3);
  std::vector<double> arrival_times;
  for (serve::Request& r : trace.requests) {
    r.arrival_ns = std::floor(r.arrival_ns / 1e6) * 1e6;
    arrival_times.push_back(r.arrival_ns);
  }
  const serve::ServingReport report =
      serve::simulate(fabric, batching, trace);

  std::vector<std::pair<double, std::int64_t>> events;
  for (const double t : arrival_times) events.push_back({t, 1});
  std::size_t pickups_at_arrivals = 0;
  for (const serve::ServingReport::BusyInterval& b : report.busy_timeline) {
    events.push_back({b.start_ns, -b.batch});
    pickups_at_arrivals += std::binary_search(
        arrival_times.begin(), arrival_times.end(), b.start_ns);
  }
  EXPECT_GT(pickups_at_arrivals, 0u);
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& x, const auto& y) {
                     return x.first < y.first;
                   });
  std::vector<serve::ServingReport::TimelinePoint> expected;
  std::int64_t depth = 0;
  std::int64_t peak = 0;
  double integral = 0.0;
  double prev_t = arrival_times.front();
  for (std::size_t i = 0; i < events.size();) {
    const double t = events[i].first;
    integral += static_cast<double>(depth) * (t - prev_t);
    for (; i < events.size() && events[i].first == t; ++i) {
      depth += events[i].second;
    }
    peak = std::max(peak, depth);
    expected.push_back({t, depth});
    prev_t = t;
  }
  ASSERT_EQ(report.queue_timeline.size(), expected.size());
  EXPECT_LT(expected.size(), events.size());  // some instants coincide
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(report.queue_timeline[i].t_ns, expected[i].t_ns) << i;
    EXPECT_EQ(report.queue_timeline[i].queue_depth, expected[i].queue_depth)
        << i;
  }
  EXPECT_EQ(report.peak_queue_depth, peak);
  EXPECT_EQ(report.mean_queue_depth,
            integral / (report.last_completion_ns - arrival_times.front()));
}

// --------------------------------------------------------------- profiler --

#if !defined(AUTOHET_OBS_DISABLED)

/// RAII: enabled + empty profiler for the test body, disabled after.
class ScopedProfiler {
 public:
  ScopedProfiler() {
    obs::Profiler::global().reset();
    obs::Profiler::global().enable();
  }
  ~ScopedProfiler() {
    obs::Profiler::global().disable();
    obs::Profiler::global().reset();
  }
};

TEST(ServingSim, SwapCountsMatchProfilerRecords) {
  // Functional fabric under a one-model budget: every swap-in emits one
  // kModelSwap record and re-programs the model's crossbars, so the
  // profiler totals must reproduce the report's swap counters exactly.
  const auto net = nn::lenet5();
  const auto layers = net.mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(layers.size(), {72, 64});
  reram::AcceleratorConfig accel;
  accel.tile_shared = true;
  std::vector<plan::DeploymentPlan> plans;
  plans.push_back(plan::compile_plan(net.name, layers, shapes, accel));
  plans.push_back(plan::compile_plan(net.name, layers, shapes, accel));

  serve::FabricConfig config;
  config.functional = true;
  config.scope = mapping::SharingScope::kNone;
  serve::ServingFabric probe(plans, config);
  config.tile_capacity = probe.standalone_tiles(0);

  // Writes one full programming pass issues for this plan.
  std::uint64_t writes_per_program = 0;
  {
    ScopedProfiler profiler;
    common::Rng weight_rng(3);
    const nn::Model model(net, weight_rng);
    const reram::SimulatedModel fresh(model, plans[0]);
    writes_per_program = obs::Profiler::global().snapshot().total(
        obs::ProfileKind::kProgramWrite);
  }
  ASSERT_GT(writes_per_program, 0u);

  ScopedProfiler profiler;
  serve::ServingFabric fabric(plans, config);
  serve::BatchingConfig batching;
  batching.max_batch = 1;
  // Strict 0/1 alternation, spaced far beyond any programming + compute
  // time so each batch drains before the next arrival: every batch misses.
  const serve::TrafficTrace trace = manual_trace(
      2, {{0, 0.0}, {1, 1e9}, {0, 2e9}, {1, 3e9}, {0, 4e9}, {1, 5e9}});
  const serve::ServingReport report =
      serve::simulate(fabric, batching, trace);
  EXPECT_EQ(report.swap_ins, 6);
  EXPECT_EQ(report.evictions, 5);

  const obs::ProfileSnapshot snapshot = obs::Profiler::global().snapshot();
  EXPECT_EQ(snapshot.total(obs::ProfileKind::kModelSwap),
            static_cast<std::uint64_t>(report.swap_ins));
  EXPECT_EQ(snapshot.total(obs::ProfileKind::kProgramWrite),
            static_cast<std::uint64_t>(report.swap_ins) *
                writes_per_program);
}

#endif  // !defined(AUTOHET_OBS_DISABLED)

}  // namespace
