// The DeploymentPlan IR: compile/validate semantics, bit-identity of the
// plan-consuming paths against the search engine and the shape-built
// functional fabric, and the byte-identical JSON round trip. These are the
// contract tests of the compile/deploy split (DESIGN.md, "Compile/deploy
// split"): replaying a saved plan must reproduce the search-time numbers
// exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/rng.hpp"
#include "mapping/plan.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "reram/eval_engine.hpp"
#include "reram/functional.hpp"
#include "reram/hardware_model.hpp"
#include "report/serialize.hpp"
#include "tensor/ops.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;

// Heterogeneous per-layer shapes: cycle through the hybrid candidate set so
// every network exercises square and rectangular crossbars and (under
// tile sharing) the Algorithm 1 remapping.
std::vector<CrossbarShape> hetero_shapes(std::size_t layer_count) {
  const auto candidates = mapping::hybrid_candidates();
  std::vector<CrossbarShape> shapes;
  shapes.reserve(layer_count);
  for (std::size_t i = 0; i < layer_count; ++i) {
    shapes.push_back(candidates[i % candidates.size()]);
  }
  return shapes;
}

// Field-by-field exact equality: a replayed plan must reproduce the search
// path bit-for-bit, so every double compares with ==, not near.
void expect_reports_identical(const reram::NetworkReport& a,
                              const reram::NetworkReport& b) {
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    SCOPED_TRACE("layer " + std::to_string(i));
    const reram::LayerReport& x = a.layers[i];
    const reram::LayerReport& y = b.layers[i];
    EXPECT_EQ(x.shape, y.shape);
    EXPECT_EQ(x.logical_crossbars, y.logical_crossbars);
    EXPECT_EQ(x.adc_instances, y.adc_instances);
    EXPECT_EQ(x.tiles, y.tiles);
    EXPECT_EQ(x.mvm_invocations, y.mvm_invocations);
    EXPECT_EQ(x.utilization, y.utilization);
    EXPECT_EQ(x.energy.adc_nj, y.energy.adc_nj);
    EXPECT_EQ(x.energy.dac_nj, y.energy.dac_nj);
    EXPECT_EQ(x.energy.cell_nj, y.energy.cell_nj);
    EXPECT_EQ(x.energy.shift_add_nj, y.energy.shift_add_nj);
    EXPECT_EQ(x.energy.buffer_nj, y.energy.buffer_nj);
    EXPECT_EQ(x.latency_ns, y.latency_ns);
    EXPECT_EQ(x.fault_vulnerability, y.fault_vulnerability);
  }
  EXPECT_EQ(a.energy.adc_nj, b.energy.adc_nj);
  EXPECT_EQ(a.energy.dac_nj, b.energy.dac_nj);
  EXPECT_EQ(a.energy.cell_nj, b.energy.cell_nj);
  EXPECT_EQ(a.energy.shift_add_nj, b.energy.shift_add_nj);
  EXPECT_EQ(a.energy.buffer_nj, b.energy.buffer_nj);
  EXPECT_EQ(a.area.crossbar_um2, b.area.crossbar_um2);
  EXPECT_EQ(a.area.adc_um2, b.area.adc_um2);
  EXPECT_EQ(a.area.dac_um2, b.area.dac_um2);
  EXPECT_EQ(a.area.shift_add_um2, b.area.shift_add_um2);
  EXPECT_EQ(a.area.tile_overhead_um2, b.area.tile_overhead_um2);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.occupied_tiles, b.occupied_tiles);
  EXPECT_EQ(a.empty_crossbars, b.empty_crossbars);
  EXPECT_EQ(a.fault_vulnerability, b.fault_vulnerability);
}

reram::FaultConfig faulty_config() {
  reram::FaultConfig faults;
  faults.stuck_at_zero_rate = 0.01;
  faults.stuck_at_one_rate = 0.002;
  faults.program_sigma = 0.05;
  return faults;
}

TEST(DeploymentPlan, EvaluateMatchesEngineForAllZooNetworks) {
  const auto candidates = mapping::hybrid_candidates();
  for (const nn::NetworkSpec& net :
       {nn::lenet5(), nn::alexnet(), nn::vgg16(), nn::resnet152()}) {
    for (const bool tile_shared : {false, true}) {
      SCOPED_TRACE(net.name + (tile_shared ? " shared" : " based"));
      const auto layers = net.mappable_layers();
      const auto shapes = hetero_shapes(layers.size());
      reram::AcceleratorConfig accel;
      accel.tile_shared = tile_shared;
      // The shared runs also carry a non-ideal device, so the analytic
      // fault vulnerability is exercised end to end.
      if (tile_shared) accel.faults = faulty_config();

      const plan::DeploymentPlan p =
          plan::compile_plan(net.name, layers, shapes, accel);
      EXPECT_NO_THROW(p.validate());
      EXPECT_NO_THROW(p.validate_against(net));
      EXPECT_EQ(p.shapes(), shapes);

      // hetero_shapes cycles the hybrid candidates, so the same assignment
      // as action indices runs the engine's compact aggregation.
      std::vector<std::size_t> actions(layers.size());
      for (std::size_t i = 0; i < actions.size(); ++i) {
        actions[i] = i % candidates.size();
      }
      const reram::EvaluationEngine engine(layers, candidates, accel);
      const reram::NetworkReport report = plan::evaluate_plan(p);
      EXPECT_EQ(report.fault_vulnerability > 0.0, tile_shared);
      expect_reports_identical(report, engine.evaluate(actions));
    }
  }
}

TEST(DeploymentPlan, ValidateRejectsTamperedPlans) {
  const nn::NetworkSpec net = nn::lenet5();
  const auto layers = net.mappable_layers();
  const auto shapes = hetero_shapes(layers.size());
  reram::AcceleratorConfig accel;
  accel.tile_shared = true;
  const auto p = plan::compile_plan(net.name, layers, shapes, accel);

  {
    auto bad = p;
    bad.version = plan::kPlanVersion + 1;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
  }
  {
    auto bad = p;
    bad.layers.pop_back();  // layer list out of sync with the allocation
    EXPECT_THROW(bad.validate(), std::invalid_argument);
  }
  {
    auto bad = p;
    bad.allocation.layers[0].mapping.row_blocks += 1;  // stale geometry
    EXPECT_THROW(bad.validate(), std::invalid_argument);
  }
  {
    auto bad = p;
    bad.accel.faults.program_sigma = 0.5;  // fingerprint now stale
    EXPECT_THROW(bad.validate(), std::invalid_argument);
  }
  {
    // A plan whose allocation really was remapped by Algorithm 1 (small FC
    // layers pack 4-to-a-tile, so two tiles drain) cannot have its
    // tile-sharing mode flipped after the fact.
    std::vector<nn::LayerSpec> small(6, nn::make_fc(40, 12));
    const std::vector<CrossbarShape> small_shapes(6, CrossbarShape{64, 64});
    auto shared = plan::compile_plan("toy", small, small_shapes, accel);
    ASSERT_FALSE(shared.allocation.remap.empty());
    shared.accel.tile_shared = false;  // remap table contradicts the mode
    EXPECT_THROW(shared.validate(), std::invalid_argument);
  }
  {
    auto bad = p;
    bad.allocation.tiles[0].empty_xbs += 1;  // crossbar conservation broken
    EXPECT_THROW(bad.validate(), std::invalid_argument);
  }
  // validate_against rejects a different network even when the plan itself
  // is internally consistent.
  EXPECT_THROW(p.validate_against(nn::alexnet()), std::invalid_argument);
}

TEST(DeploymentPlan, JsonRoundTripIsByteIdentical) {
  for (const bool tile_shared : {false, true}) {
    SCOPED_TRACE(tile_shared ? "shared" : "based");
    const nn::NetworkSpec net = nn::alexnet();
    const auto layers = net.mappable_layers();
    reram::AcceleratorConfig accel;
    accel.tile_shared = tile_shared;
    accel.faults = faulty_config();
    const auto p = plan::compile_plan(net.name, layers,
                                      hetero_shapes(layers.size()), accel);

    std::ostringstream first;
    report::write_plan_json(first, p);
    const plan::DeploymentPlan reread = report::read_plan_json(first.str());
    std::ostringstream second;
    report::write_plan_json(second, reread);
    EXPECT_EQ(first.str(), second.str());

    // The reread plan evaluates bit-identically to the original.
    expect_reports_identical(plan::evaluate_plan(reread),
                             plan::evaluate_plan(p));
  }
}

TEST(DeploymentPlan, LongPlanJsonRoundTrip) {
  // ResNet152: the longest zoo network, one shape per mappable layer.
  const nn::NetworkSpec net = nn::resnet152();
  const auto layers = net.mappable_layers();
  const auto shapes = hetero_shapes(layers.size());
  const auto p = plan::compile_plan(net.name, layers, shapes,
                                    reram::AcceleratorConfig{});

  std::ostringstream first;
  report::write_plan_json(first, p);
  const plan::DeploymentPlan reread = report::read_plan_json(first.str());
  EXPECT_EQ(reread.shapes(), shapes);
  EXPECT_NO_THROW(reread.validate_against(net));
  std::ostringstream second;
  report::write_plan_json(second, reread);
  EXPECT_EQ(first.str(), second.str());
}

TEST(DeploymentPlan, ValidateAgainstComparesNetworkNamesCaseInsensitively) {
  const nn::NetworkSpec net = nn::lenet5();
  const auto layers = net.mappable_layers();
  const reram::AcceleratorConfig accel;
  // "lenet5" names the zoo's "LeNet5", as network_by_name does.
  const auto p = plan::compile_plan("lenet5", layers,
                                    hetero_shapes(layers.size()), accel);
  EXPECT_NO_THROW(p.validate_against(net));
  // An unnamed plan is checked by its layers alone.
  auto unnamed = p;
  unnamed.network.clear();
  EXPECT_NO_THROW(unnamed.validate_against(net));
  // Same layers, another network's name.
  auto renamed = p;
  renamed.network = "LeNet";
  EXPECT_THROW(renamed.validate_against(net), std::invalid_argument);
}

TEST(DeploymentPlan, ReadPlanJsonRejectsGarbage) {
  EXPECT_THROW(report::read_plan_json(""), std::invalid_argument);
  EXPECT_THROW(report::read_plan_json("{"), std::invalid_argument);
  EXPECT_THROW(report::read_plan_json("{\"format\": \"other\"}"),
               std::invalid_argument);
  EXPECT_THROW(report::read_plan_json("[1, 2]"), std::invalid_argument);
}

TEST(FormatDoubleJson, RoundTripsExactly) {
  for (const double v : {0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 1e-300, -2.5e17,
                         3.14159265358979323846, 1234567890.123456}) {
    const std::string text = report::format_double_json(v);
    const double parsed = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(std::signbit(parsed), std::signbit(v)) << text;
    EXPECT_EQ(parsed, v) << text;
  }
  EXPECT_EQ(report::format_double_json(0.5), "0.5");
  EXPECT_EQ(report::format_double_json(-0.0), "-0");
}

TEST(DeploymentPlan, FunctionalFabricMatchesShapeConstruction) {
  const nn::NetworkSpec net = nn::lenet5();
  const auto layers = net.mappable_layers();
  const auto shapes = hetero_shapes(layers.size());
  common::Rng weight_rng(7);
  const nn::Model model(net, weight_rng);

  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "faulty" : "ideal");
    reram::AcceleratorConfig accel;
    accel.tile_shared = true;
    if (faulty) accel.faults = faulty_config();
    const auto p = plan::compile_plan(net.name, layers, shapes, accel);

    const reram::SimulatedModel legacy(model, shapes,
                                       reram::DatapathMode::kInteger,
                                       accel.faults);
    const reram::SimulatedModel from_plan(model, p);

    common::Rng img_rng(9);
    for (int s = 0; s < 3; ++s) {
      const auto img = nn::synthetic_image(img_rng, 1, 32, 32);
      const auto a = legacy.forward(img);
      const auto b = from_plan.forward(img);
      ASSERT_EQ(a.numel(), b.numel());
      for (std::int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_EQ(a.data()[i], b.data()[i]) << "sample " << s << " logit "
                                            << i;
      }
    }
  }
}

TEST(DeploymentPlan, RobustnessMonteCarloRunsThePlanFaults) {
  // The plan overload validates the plan and runs the workload's MC under
  // plan.accel.faults; the plan's shapes do not enter the report.
  const nn::NetworkSpec net = nn::lenet5();
  const auto layers = net.mappable_layers();
  const auto shapes = hetero_shapes(layers.size());
  common::Rng weight_rng(7);
  const nn::Model model(net, weight_rng);
  reram::AcceleratorConfig accel;
  accel.tile_shared = true;
  accel.faults = faulty_config();
  const auto p = plan::compile_plan(net.name, layers, shapes, accel);

  reram::RobustnessOptions opts;
  opts.trials = 3;
  opts.samples = 2;
  const auto a = reram::monte_carlo_robustness(model, accel.faults, opts);
  const auto b = reram::monte_carlo_robustness(model, p, opts);
  EXPECT_EQ(a.mean_accuracy, b.mean_accuracy);
  EXPECT_EQ(a.stddev_accuracy, b.stddev_accuracy);
  EXPECT_EQ(a.mean_logit_error, b.mean_logit_error);
  ASSERT_EQ(a.layer_error.size(), b.layer_error.size());
  for (std::size_t i = 0; i < a.layer_error.size(); ++i) {
    EXPECT_EQ(a.layer_error[i], b.layer_error[i]);
  }
}

TEST(DeploymentPlan, FaultFingerprintSeparatesConfigs) {
  const reram::FaultConfig ideal;
  EXPECT_EQ(plan::fault_fingerprint(ideal), plan::fault_fingerprint(ideal));
  EXPECT_NE(plan::fault_fingerprint(ideal),
            plan::fault_fingerprint(faulty_config()));
  reram::FaultConfig reseeded;
  reseeded.seed ^= 1;
  EXPECT_NE(plan::fault_fingerprint(ideal),
            plan::fault_fingerprint(reseeded));
}

TEST(DeploymentPlan, FaultFingerprintIsPinned) {
  // Stored plans carry their fingerprint, so its value is part of the plan
  // format: the read-noise and drift slots hash a fixed 0.
  EXPECT_EQ(plan::fault_fingerprint(reram::FaultConfig{}),
            6246747184277700905ULL);
  EXPECT_EQ(plan::fault_fingerprint(faulty_config()),
            11061495402010739544ULL);
}

}  // namespace
}  // namespace autohet
