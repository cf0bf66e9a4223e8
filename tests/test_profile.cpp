// Tests for the attribution profiler (src/obs/profile.*) and the profile
// report builder (src/report/profile_report.*): recording determinism
// across threads and kernel variants, the layer/tile/crossbar attribution
// joins, energy conservation against the analytic NetworkReport, and
// byte-identity of profile.json across repeated runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "mapping/plan.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "obs/profile.hpp"
#include "reram/functional.hpp"
#include "reram/hardware_model.hpp"
#include "reram/scheduler.hpp"
#include "report/json.hpp"
#include "report/profile_report.hpp"

namespace {

using namespace autohet;

std::vector<mapping::CrossbarShape> hetero_shapes(std::size_t layer_count) {
  const auto candidates = mapping::hybrid_candidates();
  std::vector<mapping::CrossbarShape> shapes;
  shapes.reserve(layer_count);
  for (std::size_t i = 0; i < layer_count; ++i) {
    shapes.push_back(candidates[i % candidates.size()]);
  }
  return shapes;
}

plan::DeploymentPlan lenet_plan(bool tile_shared = false) {
  const auto net = nn::lenet5();
  const auto layers = net.mappable_layers();
  reram::AcceleratorConfig accel;
  accel.tile_shared = tile_shared;
  return plan::compile_plan(net.name, layers, hetero_shapes(layers.size()),
                            accel);
}

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

// ------------------------------------------------------------- recording --

TEST(Profiler, DisabledByDefaultAndRecordsWhenEnabled) {
  obs::Profiler& prof = obs::Profiler::global();
  prof.reset();
  EXPECT_FALSE(prof.enabled());
  // evaluate_plan with the profiler off records nothing.
  const auto plan = lenet_plan();
  (void)plan::evaluate_plan(plan);
  EXPECT_TRUE(prof.snapshot().records.empty());

  ScopedProfiler scoped;
  (void)plan::evaluate_plan(plan);
  const obs::ProfileSnapshot snap = prof.snapshot();
#if !defined(AUTOHET_OBS_DISABLED)
  EXPECT_EQ(snap.total(obs::ProfileKind::kPlanEval), 1u);
  EXPECT_EQ(snap.total(obs::ProfileKind::kAnalyticEval), plan.layers.size());
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    EXPECT_EQ(snap.value(obs::ProfileKind::kAnalyticEval,
                         static_cast<std::int64_t>(i)),
              1u);
  }
#else
  // -DAUTOHET_OBS=OFF compiles OBS_PROFILE_RECORD to nothing: even an
  // enabled profiler sees no instrumentation.
  EXPECT_TRUE(snap.records.empty());
#endif
}

TEST(Profiler, SnapshotSortedAndMergedAcrossShards) {
  ScopedProfiler scoped;
  obs::Profiler& prof = obs::Profiler::global();
  // Record from many threads; each (layer, unit) cell gets the same total
  // regardless of which shard the recording thread hashed to.
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&prof] {
      for (int i = 0; i < 100; ++i) {
        prof.record(obs::ProfileKind::kFunctionalMvm, i % 5, 0, 2);
      }
    });
  }
  for (auto& w : workers) w.join();
  const obs::ProfileSnapshot snap = prof.snapshot();
  ASSERT_EQ(snap.records.size(), 5u);
  for (std::int64_t l = 0; l < 5; ++l) {
    EXPECT_EQ(snap.value(obs::ProfileKind::kFunctionalMvm, l), 320u);
  }
  // Sorted by (kind, layer, unit).
  for (std::size_t i = 1; i < snap.records.size(); ++i) {
    EXPECT_LT(snap.records[i - 1].layer, snap.records[i].layer);
  }
}

// The remaining recording tests exercise the live OBS_PROFILE_RECORD call
// sites and are meaningless when the macro compiles to nothing.
#if !defined(AUTOHET_OBS_DISABLED)

TEST(Profiler, ProgramWritesCoverEveryWeightExactlyOnce) {
  const auto plan = lenet_plan();
  const auto net = nn::lenet5();
  common::Rng rng(3);
  const nn::Model model(net, rng);

  ScopedProfiler scoped;
  const reram::SimulatedModel fabric(model, plan);
  const obs::ProfileSnapshot snap = obs::Profiler::global().snapshot();
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const auto li = static_cast<std::int64_t>(i);
    // The programming loop writes each weight-matrix cell exactly once,
    // partitioned over the layer's crossbar grid.
    const std::uint64_t expected = static_cast<std::uint64_t>(
        plan.layers[i].weight_rows() * plan.layers[i].weight_cols());
    EXPECT_EQ(snap.layer_total(obs::ProfileKind::kProgramWrite, li),
              expected);
    // And the per-crossbar attribution has one record per crossbar.
    std::uint64_t crossbars_seen = 0;
    for (const obs::ProfileRecord& r : snap.records) {
      if (r.kind == obs::ProfileKind::kProgramWrite && r.layer == li) {
        ++crossbars_seen;
      }
    }
    EXPECT_EQ(crossbars_seen,
              static_cast<std::uint64_t>(
                  plan.allocation.layers[i].mapping.logical_crossbars()));
  }
}

TEST(Profiler, FunctionalMvmsMatchAnalyticPerInference) {
  const auto plan = lenet_plan();
  const auto net = nn::lenet5();
  common::Rng rng(3);
  const nn::Model model(net, rng);
  const reram::SimulatedModel fabric(model, plan);
  const auto report = plan::evaluate_plan(plan);

  ScopedProfiler scoped;
  common::Rng img(4);
  const auto& in = net.layers.front();
  const auto image =
      nn::synthetic_image(img, in.in_channels, in.in_height, in.in_width);
  (void)fabric.forward(image);
  const obs::ProfileSnapshot snap = obs::Profiler::global().snapshot();
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    EXPECT_EQ(snap.layer_total(obs::ProfileKind::kFunctionalMvm,
                               static_cast<std::int64_t>(i)),
              static_cast<std::uint64_t>(report.layers[i].mvm_invocations))
        << "layer " << i;
  }
}

// Satellite: profiler output identical across mc_threads and kernel
// variants — the recorded counts are structural, not scheduling-dependent.
TEST(Profiler, McRecordingInvariantAcrossThreadsAndKernels) {
  const auto plan = lenet_plan();
  auto net = nn::lenet5();
  common::Rng rng(3);
  const nn::Model model(net, rng);

  auto run = [&](int threads) {
    ScopedProfiler scoped;
    reram::RobustnessOptions opts;
    opts.trials = 3;
    opts.samples = 4;
    opts.threads = threads;
    (void)reram::monte_carlo_robustness(model, plan, opts);
    return obs::Profiler::global().snapshot();
  };

  const auto serial = run(1);
  EXPECT_EQ(serial.total(obs::ProfileKind::kMcTrial), 3u);
  EXPECT_GT(serial.total(obs::ProfileKind::kFunctionalMvm), 0u);
  EXPECT_EQ(run(0), serial);
  EXPECT_EQ(run(3), serial);
}

TEST(Profiler, MonteCarloOnAPlanRecordsNoProgramWrites) {
  // The Monte-Carlo's layer-sized reference and its trial fabrics are no
  // deployment: only SimulatedModel's public constructors record
  // programming, and a deployment of the same plan still does.
  const auto net = nn::lenet5();
  const auto layers = net.mappable_layers();
  reram::AcceleratorConfig accel;
  accel.faults.stuck_at_zero_rate = 1e-3;
  accel.faults.stuck_at_one_rate = 1e-3;
  accel.faults.program_sigma = 0.02;
  const auto plan = plan::compile_plan(net.name, layers,
                                       hetero_shapes(layers.size()), accel);
  common::Rng rng(3);
  const nn::Model model(net, rng);

  ScopedProfiler scoped;
  reram::RobustnessOptions opts;
  opts.trials = 2;
  opts.samples = 2;
  (void)reram::monte_carlo_robustness(model, plan, opts);
  const obs::ProfileSnapshot mc = obs::Profiler::global().snapshot();
  EXPECT_EQ(mc.total(obs::ProfileKind::kMcTrial), 2u);
  EXPECT_GT(mc.total(obs::ProfileKind::kFunctionalMvm), 0u);
  EXPECT_EQ(mc.total(obs::ProfileKind::kProgramWrite), 0u);

  std::uint64_t weights = 0;
  for (const nn::LayerSpec& spec : layers) {
    weights += static_cast<std::uint64_t>(spec.weight_rows() *
                                          spec.weight_cols());
  }
  const reram::SimulatedModel fabric(model, plan);
  EXPECT_EQ(obs::Profiler::global().snapshot().total(
                obs::ProfileKind::kProgramWrite),
            weights);
}

#endif  // !defined(AUTOHET_OBS_DISABLED)

// --------------------------------------------------------- profile report --

struct BuiltProfile {
  report::PlanProfile profile;
  reram::NetworkReport report;
};

BuiltProfile build_profile(const plan::DeploymentPlan& plan,
                           std::int64_t batch = 8) {
  ScopedProfiler scoped;
  const auto net = nn::network_by_name(plan.network);
  common::Rng rng(3);
  const nn::Model model(net, rng);
  const reram::SimulatedModel fabric(model, plan);
  common::Rng img(4);
  const auto& in = net.layers.front();
  (void)fabric.forward(
      nn::synthetic_image(img, in.in_channels, in.in_height, in.in_width));
  const auto report = plan::evaluate_plan(plan);
  const auto schedule = reram::schedule_batch(plan, batch);
  return {report::build_plan_profile(plan, report, schedule,
                                     obs::Profiler::global().snapshot(),
                                     batch),
          report};
}

TEST(PlanProfile, TotalsMatchNetworkReportExactly) {
  const auto plan = lenet_plan();
  const auto built = build_profile(plan);
  // Acceptance criterion: the profile's total energy is the analytic
  // report's, bit for bit (totals are copied, never re-derived).
  EXPECT_EQ(built.profile.totals.energy.total_nj(),
            built.report.energy.total_nj());
  EXPECT_EQ(built.profile.totals.latency_ns, built.report.latency_ns);
  EXPECT_EQ(built.profile.totals.utilization, built.report.utilization);
  // Per-layer energies and shares are consistent with the total.
  double share_sum = 0.0;
  for (const auto& l : built.profile.layers) share_sum += l.energy_share;
  EXPECT_NEAR(share_sum, 1.0, 1e-12);
}

TEST(PlanProfile, TileAttributionConservesCrossbarsAndWrites) {
  for (const bool tile_shared : {false, true}) {
    const auto plan = lenet_plan(tile_shared);
    const auto built = build_profile(plan);
    // Every layer's crossbars and writes distribute over tiles without
    // loss: summing tile occupants per layer recovers the layer totals.
    std::vector<std::int64_t> xbs(plan.layers.size(), 0);
    std::vector<std::uint64_t> writes(plan.layers.size(), 0);
    double tile_energy = 0.0;
    for (const auto& tile : built.profile.tiles) {
      for (const auto& occ : tile.occupants) {
        xbs[static_cast<std::size_t>(occ.layer)] += occ.crossbars;
        writes[static_cast<std::size_t>(occ.layer)] += occ.program_writes;
      }
      tile_energy += tile.energy_nj;
    }
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
      EXPECT_EQ(xbs[i], built.profile.layers[i].crossbars)
          << "tile_shared=" << tile_shared << " layer " << i;
      EXPECT_EQ(writes[i], built.profile.layers[i].program_writes)
          << "tile_shared=" << tile_shared << " layer " << i;
    }
    EXPECT_NEAR(tile_energy, built.report.energy.total_nj(),
                1e-9 * built.report.energy.total_nj());
  }
}

TEST(PlanProfile, TimelineIsAConsistentOccupancyStepFunction) {
  const auto plan = lenet_plan();
  const auto built = build_profile(plan, /*batch=*/4);
  const auto& tl = built.profile.timeline;
  ASSERT_FALSE(tl.empty());
  // Starts at t=0 with at least one active stage, ends idle at makespan.
  EXPECT_EQ(tl.front().t_ns, 0.0);
  EXPECT_GT(tl.front().active, 0);
  EXPECT_EQ(tl.back().active, 0);
  EXPECT_EQ(tl.back().t_ns, built.profile.makespan_ns);
  const auto stages = static_cast<std::int64_t>(plan.layers.size());
  for (std::size_t i = 0; i < tl.size(); ++i) {
    EXPECT_GE(tl[i].active, 0);
    EXPECT_LE(tl[i].active, stages);
    if (i > 0) {
      EXPECT_GT(tl[i].t_ns, tl[i - 1].t_ns);
    }
  }
}

TEST(PlanProfile, BottleneckClassificationFollowsLatencyTerms) {
  const auto plan = lenet_plan();
  const auto built = build_profile(plan);
  for (const auto& l : built.profile.layers) {
    const auto& t = l.latency_terms;
    // The decomposition reproduces the analytic per-MVM latency exactly
    // (same association as evaluate_layer's historical inline sum).
    EXPECT_EQ(t.per_mvm_ns() * static_cast<double>(l.mvms_analytic),
              l.latency_ns);
    const double top =
        std::max({t.compute_ns, t.adc_ns, t.noc_ns()});
    if (l.bottleneck == "compute") {
      EXPECT_EQ(t.compute_ns, top);
    } else if (l.bottleneck == "adc") {
      EXPECT_EQ(t.adc_ns, top);
    } else {
      EXPECT_EQ(l.bottleneck, "noc");
      EXPECT_EQ(t.noc_ns(), top);
    }
  }
}

TEST(PlanProfile, JsonByteIdenticalAcrossRunsAndThreadCounts) {
  const auto plan = lenet_plan();
  auto render = [&](int mc_threads) {
    ScopedProfiler scoped;
    const auto net = nn::network_by_name(plan.network);
    common::Rng rng(3);
    const nn::Model model(net, rng);
    const reram::SimulatedModel fabric(model, plan);
    common::Rng img(4);
    const auto& in = net.layers.front();
    (void)fabric.forward(
        nn::synthetic_image(img, in.in_channels, in.in_height, in.in_width));
    reram::RobustnessOptions opts;
    opts.trials = 2;
    opts.samples = 2;
    opts.threads = mc_threads;
    (void)reram::monte_carlo_robustness(model, plan, opts);
    const auto report = plan::evaluate_plan(plan);
    const auto schedule = reram::schedule_batch(plan, 8);
    const auto profile = report::build_plan_profile(
        plan, report, schedule, obs::Profiler::global().snapshot(), 8);
    std::ostringstream os;
    report::write_profile_json(os, profile);
    return os.str();
  };
  const std::string first = render(1);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(render(1), first);   // repeated run
  EXPECT_EQ(render(0), first);   // hardware-threads run
  EXPECT_EQ(render(3), first);   // explicit pool
}

TEST(PlanProfile, RecordsJsonIsDeterministic) {
  ScopedProfiler scoped;
  obs::Profiler& prof = obs::Profiler::global();
  prof.record(obs::ProfileKind::kProgramWrite, 1, 2, 30);
  prof.record(obs::ProfileKind::kAnalyticEval, 0, 0, 1);
  prof.record(obs::ProfileKind::kProgramWrite, 1, 2, 12);
  std::ostringstream a;
  report::write_profile_records_json(a, prof.snapshot());
  std::ostringstream b;
  report::write_profile_records_json(b, prof.snapshot());
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find(
                "{\"kind\": \"analytic_eval\", \"layer\": 0, \"unit\": 0, "
                "\"value\": 1}"),
            std::string::npos);
  EXPECT_NE(a.str().find(
                "{\"kind\": \"program_write\", \"layer\": 1, \"unit\": 2, "
                "\"value\": 42}"),
            std::string::npos);
}

TEST(PlanProfile, JsonEscapesControlBytesInNames) {
  // Plan names are external input: every control byte in a name must leave
  // profile.json escaped, and the escaped names must read back verbatim.
  const auto plan = lenet_plan();
  report::PlanProfile profile = build_profile(plan).profile;
  ASSERT_FALSE(profile.layers.empty());
  profile.network = "lenet\r5\x01";
  profile.layers.front().shape = "72x\r64\x01";
  std::ostringstream os;
  report::write_profile_json(os, profile);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"lenet\\r5\\u0001\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"72x\\r64\\u0001\""), std::string::npos) << doc;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const auto c = static_cast<unsigned char>(doc[i]);
    if (in_string && c < 0x20) {
      ADD_FAILURE() << "raw control byte " << static_cast<int>(c)
                    << " inside a string at offset " << i;
    }
    if (c == '\\' && in_string) {
      ++i;  // the escaped byte never ends the string
    } else if (c == '"') {
      in_string = !in_string;
    }
  }
  const report::JsonValue parsed = report::parse_json(doc);
  EXPECT_EQ(report::as_string(parsed.at("network"), "network"),
            profile.network);
  EXPECT_EQ(report::as_string(
                report::as_array(parsed.at("layers"), "layers")
                    .front()
                    .at("shape"),
                "shape"),
            profile.layers.front().shape);
}

TEST(PlanProfile, HotspotTablePrintsTopNByEnergy) {
  const auto plan = lenet_plan();
  const auto built = build_profile(plan);
  std::ostringstream os;
  report::print_hotspot_table(os, built.profile, 3);
  const std::string text = os.str();
  EXPECT_NE(text.find("hotspots"), std::string::npos);
  EXPECT_NE(text.find("energy_nj"), std::string::npos);
  EXPECT_NE(text.find("top 3 of"), std::string::npos);
  EXPECT_NE(text.find("total energy"), std::string::npos);
}

#if !defined(AUTOHET_OBS_DISABLED)
TEST(PlanProfile, ScheduleCountersRecorded) {
  const auto plan = lenet_plan();
  ScopedProfiler scoped;
  (void)reram::schedule_batch(plan, 6);
  const obs::ProfileSnapshot snap = obs::Profiler::global().snapshot();
  for (std::size_t k = 0; k < plan.layers.size(); ++k) {
    EXPECT_EQ(snap.value(obs::ProfileKind::kScheduleTask,
                         static_cast<std::int64_t>(k)),
              6u);
    EXPECT_GT(snap.value(obs::ProfileKind::kStageBusyNs,
                         static_cast<std::int64_t>(k)),
              0u);
  }
}
#endif  // !defined(AUTOHET_OBS_DISABLED)

}  // namespace
