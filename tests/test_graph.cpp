// Graph IR contract tests: DAG construction/validation, chain round trips,
// and the bit-identity guarantee — a chain-shaped graph must produce
// byte-identical plans, reports, schedules and functional outputs to the
// legacy linear path, while branchy graphs carry accounted non-mappable
// ops through every consumer. Also the plan v1/v2 compatibility contract
// against the committed fixture under tests/data.
#include <gtest/gtest.h>

#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mapping/plan.hpp"
#include "nn/graph.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "reram/functional.hpp"
#include "reram/hardware_model.hpp"
#include "reram/pipeline.hpp"
#include "reram/scheduler.hpp"
#include "report/serialize.hpp"
#include "tensor/ops.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;

// The fixed configuration the committed v1 fixture was generated with
// (autohet_cli graph --network lenet5 --skeleton-plan-out ...): uniform
// 128x128 shapes, default device, tile sharing on.
reram::AcceleratorConfig fixture_accel() {
  reram::AcceleratorConfig accel;
  accel.tile_shared = true;
  return accel;
}

std::vector<CrossbarShape> uniform_shapes(std::size_t n) {
  return std::vector<CrossbarShape>(n, CrossbarShape{128, 128});
}

std::string report_json(const reram::NetworkReport& report) {
  std::ostringstream os;
  report::write_network_report_json(os, report);
  return os.str();
}

std::string plan_json(const plan::DeploymentPlan& plan) {
  std::ostringstream os;
  report::write_plan_json(os, plan);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
}

// A small branchy graph exercising every non-mappable op kind:
// conv -> (identity | conv) -> residual add -> relu -> concat with a
// pooled branch -> global avg pool -> fc. `post_add_relu = false` drops the
// activation node: same skeleton, different graph.
nn::Graph branchy_graph(bool post_add_relu = true) {
  nn::GraphBuilder b("branchy");
  const auto in = b.input(3, 8, 8);
  const auto stem = b.layer(in, nn::make_conv(3, 8, 3, 1, 1, 8, 8));
  const auto body = b.layer(stem, nn::make_conv(8, 8, 3, 1, 1, 8, 8));
  const auto sum = b.residual_add(stem, body);
  const auto act = post_add_relu ? b.activation(sum) : sum;
  const auto side = b.layer(stem, nn::make_maxpool(8, 1, 1, 8, 8));
  const auto cat = b.concat({act, side});
  const auto gap = b.global_avg_pool(cat);
  b.layer(gap, nn::make_fc(16, 10, /*relu=*/false));
  return b.build();
}

TEST(GraphIr, OpKindNamesRoundTrip) {
  const nn::OpKind kinds[] = {
      nn::OpKind::kInput,      nn::OpKind::kLayer,
      nn::OpKind::kResidualAdd, nn::OpKind::kConcat,
      nn::OpKind::kActivation, nn::OpKind::kGlobalAvgPool};
  for (const nn::OpKind kind : kinds) {
    EXPECT_EQ(nn::op_kind_from_name(nn::op_kind_name(kind)), kind);
  }
  EXPECT_THROW(nn::op_kind_from_name("bogus_op"), std::invalid_argument);
}

TEST(GraphIr, BuilderInfersShapes) {
  const nn::Graph g = branchy_graph();
  EXPECT_NO_THROW(g.validate());
  EXPECT_FALSE(g.is_chain());
  EXPECT_EQ(g.node_count(), 9);
  // in->stem, stem->body, stem->add, body->add, add->act, stem->pool,
  // act->cat, pool->cat, cat->gap, gap->fc.
  EXPECT_EQ(g.edge_count(), 10);
  EXPECT_EQ(g.mappable_layers().size(), 3u);  // two convs + one fc
  const auto& nodes = g.nodes();
  EXPECT_EQ(nodes[3].shape, (nn::TensorShape{8, 8, 8}));   // residual add
  EXPECT_EQ(nodes[6].shape, (nn::TensorShape{16, 8, 8}));  // concat
  EXPECT_EQ(nodes[7].shape, (nn::TensorShape{16, 1, 1}));  // global pool
  EXPECT_EQ(g.output_node(), 8);
  EXPECT_EQ(nodes[8].shape, (nn::TensorShape{10, 1, 1}));  // fc
  EXPECT_FALSE(g.skeleton().sequential_runnable);
}

TEST(GraphIr, BuilderRejectsInvalidWiring) {
  {
    // Residual add over mismatched shapes.
    nn::GraphBuilder b("bad");
    const auto in = b.input(3, 8, 8);
    const auto conv = b.layer(in, nn::make_conv(3, 8, 3, 1, 1, 8, 8));
    EXPECT_THROW(b.residual_add(in, conv), std::invalid_argument);
  }
  {
    // Layer whose expected input geometry disagrees with its producer.
    nn::GraphBuilder b("bad");
    const auto in = b.input(3, 8, 8);
    EXPECT_THROW(b.layer(in, nn::make_conv(4, 8, 3, 1, 1, 8, 8)),
                 std::invalid_argument);
  }
  {
    // Concat over mismatched spatial extents.
    nn::GraphBuilder b("bad");
    const auto in = b.input(3, 8, 8);
    const auto pool = b.layer(in, nn::make_maxpool(3, 2, 2, 8, 8));
    EXPECT_THROW(b.concat({in, pool}), std::invalid_argument);
  }
  {
    // Two sinks: the stem fans out and nothing joins the branches.
    nn::GraphBuilder b("bad");
    const auto in = b.input(3, 8, 8);
    b.layer(in, nn::make_conv(3, 8, 3, 1, 1, 8, 8));
    b.layer(in, nn::make_conv(3, 4, 3, 1, 1, 8, 8));
    EXPECT_THROW(b.build(), std::invalid_argument);
  }
  {
    // A second input node.
    nn::GraphBuilder b("bad");
    b.input(3, 8, 8);
    EXPECT_THROW(b.input(3, 8, 8), std::invalid_argument);
  }
}

TEST(GraphIr, ChainRoundTripRecoversNetworkSpec) {
  const nn::NetworkSpec net = nn::lenet5();
  const nn::Graph g = nn::graph_from_network(net);
  EXPECT_TRUE(g.is_chain());
  EXPECT_NO_THROW(g.validate());
  const nn::NetworkSpec back = g.skeleton();
  EXPECT_EQ(back.name, net.name);
  EXPECT_EQ(back.layers, net.layers);
  EXPECT_TRUE(back.sequential_runnable);
  EXPECT_FALSE(branchy_graph().skeleton().sequential_runnable);
}

TEST(GraphIr, DotRenderingIsDeterministic) {
  const nn::Graph g = branchy_graph();
  std::ostringstream a;
  std::ostringstream b;
  nn::write_graph_dot(a, g);
  nn::write_graph_dot(b, g);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("digraph"), std::string::npos);
  EXPECT_NE(a.str().find("residual_add"), std::string::npos);
}

TEST(GraphIr, Resnet152GraphMatchesChainSkeleton) {
  const nn::Graph g = nn::resnet152_graph();
  EXPECT_NO_THROW(g.validate());
  EXPECT_FALSE(g.is_chain());
  // Same mappable layers in the same order as the legacy chain, except
  // that the graph folds the post-add ReLU into explicit activation nodes,
  // so expand/projection convs carry relu_after=false there.
  std::vector<nn::LayerSpec> from_graph = g.mappable_layers();
  std::vector<nn::LayerSpec> from_chain = nn::resnet152().mappable_layers();
  ASSERT_EQ(from_graph.size(), from_chain.size());
  for (std::size_t i = 0; i < from_graph.size(); ++i) {
    from_graph[i].relu_after = false;
    from_chain[i].relu_after = false;
    EXPECT_EQ(from_graph[i], from_chain[i]) << "layer " << i;
  }
  std::int64_t adds = 0;
  for (const nn::GraphNode& n : g.nodes()) {
    if (n.kind == nn::OpKind::kResidualAdd) ++adds;
  }
  EXPECT_EQ(adds, 50);  // one per bottleneck block (3+8+36+3)
}

TEST(GraphIr, CifarResnetGraphValidates) {
  const nn::Graph g = nn::cifar_resnet_graph();
  EXPECT_NO_THROW(g.validate());
  EXPECT_FALSE(g.is_chain());
  EXPECT_GT(g.mappable_layers().size(), 4u);
  EXPECT_EQ(nn::graph_by_name("cifar-resnet").nodes(), g.nodes());
  EXPECT_TRUE(nn::graph_by_name("lenet5").is_chain());
}

// --- Chain bit-identity: v2 graph plans over chain graphs must reproduce
// --- the v1 linear path byte for byte, end to end.

TEST(GraphPlan, ChainReportByteIdenticalToLinearPath) {
  const nn::NetworkSpec net = nn::lenet5();
  const auto shapes = uniform_shapes(net.mappable_layers().size());
  const reram::AcceleratorConfig accel = fixture_accel();

  const plan::DeploymentPlan v1 =
      plan::compile_plan(net.name, net.mappable_layers(), shapes, accel);
  const plan::DeploymentPlan v2 =
      plan::compile_plan(nn::graph_from_network(net), shapes, accel);
  EXPECT_EQ(v1.version, plan::kPlanVersion);
  EXPECT_EQ(v2.version, plan::kPlanVersionGraph);
  EXPECT_TRUE(v2.has_graph());
  EXPECT_EQ(v1.layers, v2.layers);

  const reram::NetworkReport r1 = plan::evaluate_plan(v1);
  const reram::NetworkReport r2 = plan::evaluate_plan(v2);
  EXPECT_TRUE(r2.graph_ops.empty());
  EXPECT_EQ(report_json(r1), report_json(r2));
}

TEST(GraphPlan, V1JsonCarriesNoV2Keys) {
  const nn::NetworkSpec net = nn::lenet5();
  const auto shapes = uniform_shapes(net.mappable_layers().size());
  const plan::DeploymentPlan v1 = plan::compile_plan(
      net.name, net.mappable_layers(), shapes, fixture_accel());
  const std::string text = plan_json(v1);
  EXPECT_EQ(text.find("\"graph\""), std::string::npos);
  EXPECT_EQ(text.find("vector_lanes"), std::string::npos);
  EXPECT_EQ(text.find("vector_op_energy_pj"), std::string::npos);
}

TEST(GraphPlan, V2JsonRoundTripsByteIdentically) {
  const nn::Graph g = nn::cifar_resnet_graph();
  const plan::DeploymentPlan v2 = plan::compile_plan(
      g, uniform_shapes(g.mappable_layers().size()), fixture_accel());
  const std::string text = plan_json(v2);
  EXPECT_NE(text.find("\"graph\""), std::string::npos);
  EXPECT_NE(text.find("vector_lanes"), std::string::npos);

  const plan::DeploymentPlan back = report::read_plan_json(text);
  EXPECT_NO_THROW(back.validate());
  EXPECT_EQ(back.version, plan::kPlanVersionGraph);
  EXPECT_EQ(back.graph, g);
  EXPECT_EQ(plan_json(back), text);
  EXPECT_EQ(report_json(plan::evaluate_plan(back)),
            report_json(plan::evaluate_plan(v2)));
}

TEST(GraphPlan, ChainDataflowIsTheHistoricalChainRule) {
  const nn::NetworkSpec net = nn::lenet5();
  const auto shapes = uniform_shapes(net.mappable_layers().size());
  const plan::DeploymentPlan v2 = plan::compile_plan(
      nn::graph_from_network(net), shapes, fixture_accel());
  const plan::PlanDataflow flow = plan::plan_dataflow(v2);
  ASSERT_EQ(flow.deps.size(), net.mappable_layers().size());
  EXPECT_TRUE(flow.deps[0].empty());
  for (std::size_t k = 1; k < flow.deps.size(); ++k) {
    ASSERT_EQ(flow.deps[k].size(), 1u);
    EXPECT_EQ(flow.deps[k][0].layer, static_cast<std::int64_t>(k) - 1);
    EXPECT_EQ(flow.deps[k][0].delay_ns, 0.0);
  }
  for (const double tail : flow.tail_delay_ns) EXPECT_EQ(tail, 0.0);
}

TEST(GraphPlan, ChainScheduleAndPipelineBitIdentical) {
  const nn::NetworkSpec net = nn::lenet5();
  const auto shapes = uniform_shapes(net.mappable_layers().size());
  const reram::AcceleratorConfig accel = fixture_accel();
  const plan::DeploymentPlan v1 =
      plan::compile_plan(net.name, net.mappable_layers(), shapes, accel);
  const plan::DeploymentPlan v2 = plan::compile_plan(
      nn::graph_from_network(net), shapes, accel);

  const reram::ScheduleReport s1 = reram::schedule_batch(v1, 4);
  const reram::ScheduleReport s2 = reram::schedule_batch(v2, 4);
  EXPECT_EQ(s1.makespan_ns, s2.makespan_ns);
  ASSERT_EQ(s1.tasks.size(), s2.tasks.size());
  for (std::size_t i = 0; i < s1.tasks.size(); ++i) {
    EXPECT_EQ(s1.tasks[i].start_ns, s2.tasks[i].start_ns) << i;
    EXPECT_EQ(s1.tasks[i].finish_ns, s2.tasks[i].finish_ns) << i;
  }

  const reram::PipelineReport p1 = reram::evaluate_pipeline(v1);
  const reram::PipelineReport p2 = reram::evaluate_pipeline(v2);
  EXPECT_EQ(p1.bottleneck_interval_ns, p2.bottleneck_interval_ns);
  EXPECT_EQ(p1.throughput_inferences_per_s, p2.throughput_inferences_per_s);
  EXPECT_EQ(p1.fill_latency_ns, p2.fill_latency_ns);
}

void expect_same_trace(const reram::SimulatedModel::ForwardTrace& a,
                       const reram::SimulatedModel::ForwardTrace& b,
                       const std::string& what) {
  EXPECT_EQ(tensor::max_abs_diff(a.output, b.output), 0.0f) << what;
  ASSERT_EQ(a.mappable_outputs.size(), b.mappable_outputs.size()) << what;
  for (std::size_t l = 0; l < a.mappable_outputs.size(); ++l) {
    EXPECT_EQ(
        tensor::max_abs_diff(a.mappable_outputs[l], b.mappable_outputs[l]),
        0.0f)
        << what << " layer " << l;
  }
}

TEST(GraphFunctional, ChainForwardBitIdentical) {
  const nn::NetworkSpec net = nn::lenet5();
  const nn::Graph g = nn::graph_from_network(net);
  common::Rng weight_rng(3);
  const nn::Model model(net, weight_rng);
  common::Rng graph_weight_rng(3);
  const nn::Model graph_model(g, graph_weight_rng);
  EXPECT_EQ(model.graph(), g);

  common::Rng input_rng(4);
  tensor::Tensor input({g.nodes().front().shape.channels,
                        g.nodes().front().shape.height,
                        g.nodes().front().shape.width});
  input.fill_uniform(input_rng, 0.0f, 1.0f);

  // Float reference: the graph walk over a chain equals the plain layer
  // loop exactly, whichever way the model was built.
  tensor::Tensor chain = input;
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    chain = model.forward_layer(i, chain);
    if (net.layers[i].relu_after) tensor::relu_inplace(chain);
  }
  EXPECT_EQ(tensor::max_abs_diff(model.forward(input), chain), 0.0f);
  EXPECT_EQ(tensor::max_abs_diff(graph_model.forward(input), chain), 0.0f);

  // Crossbar fabric: the shape-list, v1-plan and v2-plan fabrics agree.
  const auto shapes = uniform_shapes(net.mappable_layers().size());
  const reram::SimulatedModel fabric(model, shapes);
  const reram::SimulatedModel v1_fabric(
      model, plan::compile_plan(net.name, net.mappable_layers(), shapes,
                                fixture_accel()));
  const reram::SimulatedModel v2_fabric(
      graph_model, plan::compile_plan(g, shapes, fixture_accel()));
  const auto trace = fabric.forward_batch(std::span(&input, 1)).front();
  EXPECT_EQ(trace.mappable_outputs.size(), net.mappable_layers().size());
  expect_same_trace(trace, v1_fabric.forward_batch(std::span(&input, 1))[0],
                    "v1 plan");
  expect_same_trace(trace, v2_fabric.forward_batch(std::span(&input, 1))[0],
                    "v2 plan");
  EXPECT_EQ(tensor::max_abs_diff(fabric.forward(input), trace.output), 0.0f);
}

TEST(GraphFunctional, BranchyForwardIsDeterministicAndShaped) {
  const nn::Graph g = branchy_graph();
  common::Rng weight_rng(5);
  const nn::Model model(g, weight_rng);

  common::Rng input_rng(6);
  tensor::Tensor input({3, 8, 8});
  input.fill_uniform(input_rng, 0.0f, 1.0f);

  const tensor::Tensor ref = model.forward(input);
  EXPECT_EQ(ref.numel(), 10);

  const plan::DeploymentPlan v2 = plan::compile_plan(
      g, uniform_shapes(g.mappable_layers().size()), fixture_accel());
  const reram::SimulatedModel fabric(model, v2);
  const tensor::Tensor a = fabric.forward(input);
  const tensor::Tensor b = fabric.forward(input);
  ASSERT_EQ(a.numel(), 10);
  for (std::int64_t j = 0; j < a.numel(); ++j) {
    EXPECT_EQ(a[j], b[j]) << j;
  }
}

TEST(GraphFunctional, PlanRejectsModelOfAnotherGraph) {
  const nn::Graph g = branchy_graph();
  const plan::DeploymentPlan v2 = plan::compile_plan(
      g, uniform_shapes(g.mappable_layers().size()), fixture_accel());
  common::Rng rng(5);
  const nn::Model same(g, rng);
  EXPECT_NO_THROW(reram::SimulatedModel(same, v2));
  // Same name and conv/FC skeleton, different wiring: rejected up front.
  const nn::Model rewired(branchy_graph(/*post_add_relu=*/false), rng);
  ASSERT_EQ(rewired.spec().layers, same.spec().layers);
  EXPECT_THROW(reram::SimulatedModel(rewired, v2), std::invalid_argument);
  // A skeleton-only model has no graph at all.
  const nn::Model skeleton(g.skeleton(), rng);
  EXPECT_THROW(reram::SimulatedModel(skeleton, v2), std::invalid_argument);
}

TEST(GraphFunctional, CifarResnetBatchMatchesPerSample) {
  const nn::Graph g = nn::cifar_resnet_graph();
  common::Rng weight_rng(7);
  const nn::Model model(g, weight_rng);
  // 64x64 arrays split the 288-row convs into several row blocks.
  const std::vector<CrossbarShape> shapes(g.mappable_layers().size(),
                                          CrossbarShape{64, 64});
  common::Rng input_rng(8);
  std::vector<tensor::Tensor> images;
  for (int s = 0; s < 3; ++s) {
    images.push_back(nn::synthetic_image(input_rng, 3, 32, 32));
  }
  reram::FaultConfig faulty;
  faulty.stuck_at_zero_rate = 1e-3;
  faulty.stuck_at_one_rate = 1e-3;
  faulty.program_sigma = 0.01;
  for (const reram::FaultConfig& faults : {reram::FaultConfig{}, faulty}) {
    const reram::SimulatedModel fabric(model, shapes,
                                       reram::DatapathMode::kInteger, faults);
    const auto batched = fabric.forward_batch(images);
    ASSERT_EQ(batched.size(), images.size());
    for (std::size_t s = 0; s < images.size(); ++s) {
      const std::string what =
          (faults.ideal() ? "ideal sample " : "faulty sample ") +
          std::to_string(s);
      const auto single = fabric.forward_batch(std::span(&images[s], 1));
      expect_same_trace(batched[s], single.front(), what);
      EXPECT_EQ(
          tensor::max_abs_diff(batched[s].output, fabric.forward(images[s])),
          0.0f)
          << what;
    }
  }
}

TEST(GraphFunctional, CifarResnetMonteCarloIsThreadAndCacheInvariant) {
  // Robustness MC walks the model's graph: residual adds and global pooling
  // run between the faulty crossbar layers, and the report must not depend
  // on the thread count or on the trial-fabric cache.
  const nn::Graph g = nn::cifar_resnet_graph();
  common::Rng weight_rng(7);
  const nn::Model model(g, weight_rng);
  reram::FaultConfig faults;
  faults.stuck_at_zero_rate = 1e-3;
  faults.stuck_at_one_rate = 1e-3;
  faults.program_sigma = 0.01;
  reram::RobustnessOptions mc;
  mc.trials = 2;
  mc.samples = 3;
  const reram::RobustnessReport serial =
      reram::monte_carlo_robustness(model, faults, mc);
  EXPECT_EQ(serial.trials, 2);
  EXPECT_EQ(serial.layer_error.size(), g.mappable_layers().size());
  EXPECT_GT(serial.fault_stats.stuck_at_zero + serial.fault_stats.stuck_at_one,
            0);

  const auto expect_same = [&](const reram::RobustnessReport& r,
                               const std::string& what) {
    EXPECT_EQ(r.trials, serial.trials) << what;
    EXPECT_EQ(r.mean_accuracy, serial.mean_accuracy) << what;
    EXPECT_EQ(r.stddev_accuracy, serial.stddev_accuracy) << what;
    EXPECT_EQ(r.min_accuracy, serial.min_accuracy) << what;
    EXPECT_EQ(r.max_accuracy, serial.max_accuracy) << what;
    EXPECT_EQ(r.accuracy_ci_lower, serial.accuracy_ci_lower) << what;
    EXPECT_EQ(r.accuracy_ci_upper, serial.accuracy_ci_upper) << what;
    EXPECT_EQ(r.mean_logit_error, serial.mean_logit_error) << what;
    EXPECT_EQ(r.layer_error, serial.layer_error) << what;
    EXPECT_EQ(r.fault_stats.stuck_at_zero, serial.fault_stats.stuck_at_zero)
        << what;
    EXPECT_EQ(r.fault_stats.stuck_at_one, serial.fault_stats.stuck_at_one)
        << what;
    EXPECT_EQ(r.fault_stats.weights_changed,
              serial.fault_stats.weights_changed)
        << what;
  };
  reram::RobustnessOptions pooled = mc;
  pooled.threads = 4;
  expect_same(reram::monte_carlo_robustness(model, faults, pooled),
              "4 threads");
  // The first cached call builds the ideal references, the second reuses
  // them.
  reram::TrialFabricCache cache;
  reram::RobustnessOptions cached = pooled;
  cached.cache = &cache;
  expect_same(reram::monte_carlo_robustness(model, faults, cached),
              "cache build");
  expect_same(reram::monte_carlo_robustness(model, faults, cached),
              "cache hit");
  EXPECT_EQ(cache.stats().ideal_builds, 1u);
  EXPECT_EQ(cache.stats().ideal_hits, 1u);
}

TEST(GraphAccounting, BranchyOpsCarryEnergyAndLatency) {
  const nn::Graph g = branchy_graph();
  const auto shapes = uniform_shapes(g.mappable_layers().size());
  const reram::AcceleratorConfig accel = fixture_accel();
  const plan::DeploymentPlan v2 = plan::compile_plan(g, shapes, accel);
  const plan::DeploymentPlan skeleton = plan::compile_plan(
      g.name(), g.mappable_layers(), shapes, accel);

  const reram::NetworkReport graph_report = plan::evaluate_plan(v2);
  const reram::NetworkReport skeleton_report =
      plan::evaluate_plan(skeleton);
  ASSERT_EQ(graph_report.graph_ops.size(), 4u);
  for (const reram::GraphOpReport& op : graph_report.graph_ops) {
    SCOPED_TRACE(op.op);
    // Concat is pure data movement (no ALU work); everything else does one
    // vector op per element. All ops move bytes and take vector cycles.
    if (op.op == std::string("concat")) {
      EXPECT_EQ(op.elements, 0);
    } else {
      EXPECT_GT(op.elements, 0);
    }
    EXPECT_GT(op.bytes_moved, 0);
    EXPECT_GT(op.energy.total_nj(), 0.0);
    EXPECT_GT(op.latency_ns, 0.0);
  }
  EXPECT_GT(graph_report.energy.total_nj(),
            skeleton_report.energy.total_nj());
  EXPECT_GT(graph_report.latency_ns, skeleton_report.latency_ns);
  // Per-layer figures are untouched: only the totals grow.
  ASSERT_EQ(graph_report.layers.size(), skeleton_report.layers.size());
  for (std::size_t i = 0; i < graph_report.layers.size(); ++i) {
    EXPECT_EQ(graph_report.layers[i].latency_ns,
              skeleton_report.layers[i].latency_ns);
  }
}

TEST(GraphAccounting, EvaluatePlanFoldsOpsIntoTotalsInGraphOrder) {
  const nn::Graph g = branchy_graph();
  const auto shapes = uniform_shapes(g.mappable_layers().size());
  const reram::AcceleratorConfig accel = fixture_accel();
  const plan::DeploymentPlan v2 = plan::compile_plan(g, shapes, accel);
  const reram::NetworkReport graph_report = plan::evaluate_plan(v2);
  const reram::NetworkReport skeleton_report = plan::evaluate_plan(
      plan::compile_plan(g.name(), g.mappable_layers(), shapes, accel));

  // The ops are the graph's non-input, non-layer nodes in node order, each
  // costed by evaluate_graph_op and added after the layers, so the totals
  // are the skeleton's plus each op's, summed in that order.
  reram::EnergyBreakdown energy = skeleton_report.energy;
  double latency_ns = skeleton_report.latency_ns;
  std::size_t next = 0;
  for (std::int64_t id = 0; id < g.node_count(); ++id) {
    const nn::OpKind kind = g.nodes()[static_cast<std::size_t>(id)].kind;
    if (kind == nn::OpKind::kInput || kind == nn::OpKind::kLayer) continue;
    ASSERT_LT(next, graph_report.graph_ops.size());
    const reram::GraphOpReport expected =
        reram::evaluate_graph_op(g, id, accel.device);
    const reram::GraphOpReport& op = graph_report.graph_ops[next++];
    EXPECT_EQ(op.op, expected.op);
    EXPECT_EQ(op.latency_ns, expected.latency_ns);
    EXPECT_EQ(op.energy.total_nj(), expected.energy.total_nj());
    energy += expected.energy;
    latency_ns += expected.latency_ns;
  }
  EXPECT_EQ(next, graph_report.graph_ops.size());
  EXPECT_EQ(graph_report.latency_ns, latency_ns);
  EXPECT_EQ(graph_report.energy.adc_nj, energy.adc_nj);
  EXPECT_EQ(graph_report.energy.dac_nj, energy.dac_nj);
  EXPECT_EQ(graph_report.energy.cell_nj, energy.cell_nj);
  EXPECT_EQ(graph_report.energy.shift_add_nj, energy.shift_add_nj);
  EXPECT_EQ(graph_report.energy.buffer_nj, energy.buffer_nj);
  // The ops run on the tile vector units: no tiles, area or utilization.
  EXPECT_EQ(graph_report.occupied_tiles, skeleton_report.occupied_tiles);
  EXPECT_EQ(graph_report.empty_crossbars, skeleton_report.empty_crossbars);
  EXPECT_EQ(graph_report.utilization, skeleton_report.utilization);
  EXPECT_EQ(graph_report.area.total_um2(), skeleton_report.area.total_um2());
  EXPECT_EQ(graph_report.fault_vulnerability,
            skeleton_report.fault_vulnerability);
}

TEST(GraphAccounting, BranchyDataflowCarriesMergedDeps) {
  const nn::Graph g = branchy_graph();
  const plan::DeploymentPlan v2 = plan::compile_plan(
      g, uniform_shapes(g.mappable_layers().size()), fixture_accel());
  const plan::PlanDataflow flow = plan::plan_dataflow(v2);
  ASSERT_EQ(flow.deps.size(), 3u);
  // The FC sees both the residual branch and the pooled branch, each with
  // non-mappable ops (add/relu/concat/gap) contributing a positive delay.
  bool merged = false;
  bool delayed = false;
  for (const auto& deps : flow.deps) {
    if (deps.size() >= 2) merged = true;
    for (const plan::LayerDep& d : deps) {
      if (d.delay_ns > 0.0) delayed = true;
    }
  }
  EXPECT_TRUE(merged);
  EXPECT_TRUE(delayed);
}

// --- Plan-version compatibility against the committed fixture.

TEST(PlanCompat, V1FixtureLoadsAndReplaysByteIdentically) {
  const std::string text =
      read_file(std::string(AUTOHET_TEST_DATA_DIR) + "/plan_v1_lenet5.json");
  const plan::DeploymentPlan fixture = report::read_plan_json(text);
  EXPECT_EQ(fixture.version, plan::kPlanVersion);
  EXPECT_FALSE(fixture.has_graph());
  EXPECT_NO_THROW(fixture.validate());
  EXPECT_NO_THROW(fixture.validate_against(nn::lenet5()));

  // Loading under the v2-aware reader must not perturb a byte: the plan
  // re-serializes to exactly the committed document and evaluates to the
  // same report as a freshly compiled equivalent.
  EXPECT_EQ(plan_json(fixture), text);
  const nn::NetworkSpec net = nn::lenet5();
  const plan::DeploymentPlan fresh =
      plan::compile_plan(net.name, net.mappable_layers(),
                         uniform_shapes(net.mappable_layers().size()),
                         fixture_accel());
  EXPECT_EQ(plan_json(fresh), text);
  EXPECT_EQ(report_json(plan::evaluate_plan(fixture)),
            report_json(plan::evaluate_plan(fresh)));
}

void expect_throws_with(const std::string& text,
                        const std::string& needle) {
  try {
    (void)report::read_plan_json(text);
    FAIL() << "expected rejection mentioning: " << needle;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
        << e.what();
  }
}

TEST(PlanCompat, UnknownVersionRejectedWithLineNumber) {
  std::string text =
      read_file(std::string(AUTOHET_TEST_DATA_DIR) + "/plan_v1_lenet5.json");
  const std::string::size_type at = text.find("\"version\": 1");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, std::string("\"version\": 1").size(), "\"version\": 3");
  expect_throws_with(text, "unsupported plan version 3");
}

TEST(PlanCompat, V1PlanWithGraphSectionRejected) {
  const nn::Graph g = nn::cifar_resnet_graph();
  const plan::DeploymentPlan v2 = plan::compile_plan(
      g, uniform_shapes(g.mappable_layers().size()), fixture_accel());
  std::string text = plan_json(v2);
  const std::string::size_type at = text.find("\"version\": 2");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, std::string("\"version\": 2").size(), "\"version\": 1");
  expect_throws_with(text, "must not carry a graph section");
}

TEST(PlanCompat, TamperedGraphRejectedWithLineNumber) {
  const nn::Graph g = nn::cifar_resnet_graph();
  const plan::DeploymentPlan v2 = plan::compile_plan(
      g, uniform_shapes(g.mappable_layers().size()), fixture_accel());
  std::string text = plan_json(v2);
  const std::string::size_type at = text.find("\"kind\": \"residual_add\"");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, std::string("\"kind\": \"residual_add\"").size(),
               "\"kind\": \"bogus_op\"");
  expect_throws_with(text, "bogus_op");
}

}  // namespace
}  // namespace autohet
