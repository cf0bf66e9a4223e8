// autohet_cli — the command-line driver a downstream user runs.
//
//   autohet_cli search   --model vgg16 --episodes 300 --out strategy.txt
//                        --plan-out plan.json
//   autohet_cli evaluate --model vgg16 --strategy strategy.txt
//   autohet_cli replay   --plan-in plan.json --report-json report.json
//   autohet_cli profile  --plan-in plan.json --profile-out profile.json
//   autohet_cli serve    --plan-in a.json --plan-in b.json
//                        --serving-json BENCH_serving.json --trace-out t.json
//   autohet_cli graph    --network resnet152 --dot-out resnet152.dot
//                        --plan-out plan.json --check-skeleton
//   autohet_cli baselines --model alexnet
//
// `search` runs the RL search and writes the winning strategy in the Fig. 6
// text format (plus an optional per-episode CSV) and, with --plan-out, the
// compiled DeploymentPlan as JSON; `evaluate` loads a strategy file,
// compiles it to a plan and reports its hardware metrics; `replay` loads a
// saved plan and re-runs hardware evaluation, functional inference and
// robustness Monte Carlo without searching or re-mapping; `profile` replays
// a plan with the attribution profiler on and prints a top-N hotspot table
// (per-tile/crossbar energy, MVM, and write attribution in profile.json);
// `serve` keeps several saved plans resident on one fabric and replays a
// seeded synthetic request stream against them in simulated time, printing
// per-model latency percentiles and writing the deterministic serving
// report; `graph` builds a DAG computation graph from the model zoo, prints
// its node/edge/shape summary, optionally emits deterministic Graphviz and
// a compiled v2 plan, and can cross-check the graph evaluation against the
// legacy linear path over its conv/FC skeleton; `baselines` prints the
// homogeneous sweep.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "autohet/baselines.hpp"
#include "autohet/search.hpp"
#include "autohet/strategy.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "nn/describe.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "obs/session.hpp"
#include "reram/functional.hpp"
#include "reram/kernels/kernels.hpp"
#include "reram/scheduler.hpp"
#include "rl/kernels/dense.hpp"
#include "report/profile_report.hpp"
#include "report/serialize.hpp"
#include "report/table.hpp"
#include "serve/serialize.hpp"
#include "serve/simulator.hpp"
#include "tensor/ops.hpp"

using namespace autohet;

namespace {

std::vector<mapping::CrossbarShape> candidates_by_name(
    const std::string& name) {
  if (name == "hybrid") return mapping::hybrid_candidates();
  if (name == "square") return mapping::square_candidates();
  if (name == "rectangle") return mapping::rectangle_candidates();
  if (name == "all") return mapping::all_candidates();
  AUTOHET_CHECK(false, "unknown candidate set: " + name +
                           " (use hybrid|square|rectangle|all)");
  return {};
}

core::CrossbarEnv build_env(const common::ArgParser& args,
                            const nn::NetworkSpec& net) {
  core::EnvConfig cfg;
  cfg.candidates = candidates_by_name(args.option("candidates"));
  cfg.accel.tile_shared = !args.flag("no-tile-shared");
  cfg.accel.pes_per_tile = args.option_int("pes-per-tile");
  cfg.eval_threads = static_cast<std::size_t>(args.option_int("eval-threads"));
  return core::CrossbarEnv(net.mappable_layers(), cfg);
}

void print_report(const std::string& name, const reram::NetworkReport& r) {
  report::Table table({"Metric", "Value"});
  table.add_row({"configuration", name});
  table.add_row({"utilization %",
                 report::format_fixed(r.utilization * 100.0, 2)});
  table.add_row({"energy (nJ)", report::format_sci(r.energy.total_nj(), 3)});
  table.add_row({"RUE", report::format_sci(r.rue(), 3)});
  table.add_row({"area (um^2)", report::format_sci(r.area.total_um2(), 3)});
  table.add_row({"latency (ns)", report::format_sci(r.latency_ns, 3)});
  table.add_row({"occupied tiles", std::to_string(r.occupied_tiles)});
  table.add_row({"empty crossbars", std::to_string(r.empty_crossbars)});
  table.print(std::cout);
}

std::string model_or(const common::ArgParser& args,
                     const std::string& fallback) {
  return args.option("model").empty() ? fallback : args.option("model");
}

plan::DeploymentPlan load_plan(const std::string& path) {
  std::ifstream file(path);
  AUTOHET_CHECK(file.good(), "cannot open plan file: " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return report::read_plan_json(buffer.str());
}

int run_search(const common::ArgParser& args) {
  const auto net = nn::network_by_name(model_or(args, "vgg16"));
  const auto env = build_env(args, net);
  core::SearchConfig cfg;
  cfg.episodes = static_cast<int>(args.option_int("episodes"));
  cfg.seed = static_cast<std::uint64_t>(args.option_int("seed"));
  cfg.warmup_episodes = std::min(25, cfg.episodes / 4);
  const auto result = core::AutoHetSearch(env, cfg).run();

  const auto strategy = core::strategy_from_actions(
      net.name, env.candidates(), result.best_actions);
  if (!args.option("plan-out").empty() ||
      !args.option("report-json").empty()) {
    const plan::DeploymentPlan plan =
        env.compile(result.best_actions, net.name);
    if (const std::string path = args.option("plan-out"); !path.empty()) {
      std::ofstream file(path);
      AUTOHET_CHECK(file.good(), "cannot open plan file: " + path);
      report::write_plan_json(file, plan);
      std::cout << "deployment plan written to " << path << "\n\n";
    }
    if (const std::string path = args.option("report-json"); !path.empty()) {
      std::ofstream file(path);
      AUTOHET_CHECK(file.good(), "cannot open report file: " + path);
      report::write_network_report_json(file, plan::evaluate_plan(plan));
      std::cout << "network report written to " << path << "\n\n";
    }
  }
  const std::string out = args.option("out");
  if (!out.empty()) {
    std::ofstream file(out);
    AUTOHET_CHECK(file.good(), "cannot open output file: " + out);
    file << strategy.to_text();
    std::cout << "strategy written to " << out << "\n\n";
  } else {
    std::cout << strategy.to_text() << '\n';
  }
  const std::string csv = args.option("csv");
  if (!csv.empty()) {
    report::Table history({"episode", "reward", "utilization", "energy_nj",
                           "rue"});
    for (std::size_t e = 0; e < result.history.size(); ++e) {
      const auto& rec = result.history[e];
      history.add_row({std::to_string(e), report::format_sci(rec.reward, 6),
                       report::format_fixed(rec.utilization, 6),
                       report::format_sci(rec.energy_nj, 6),
                       report::format_sci(rec.rue, 6)});
    }
    std::ofstream file(csv);
    AUTOHET_CHECK(file.good(), "cannot open csv file: " + csv);
    history.print_csv(file);
    std::cout << "episode history written to " << csv << "\n\n";
  }
  print_report("AutoHet (RL search)", result.best_report);
  return 0;
}

int run_evaluate(const common::ArgParser& args) {
  const std::string path = args.option("strategy");
  AUTOHET_CHECK(!path.empty(), "evaluate needs --strategy <file>");
  std::ifstream file(path);
  AUTOHET_CHECK(file.good(), "cannot open strategy file: " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const auto strategy = core::Strategy::from_text(buffer.str());

  const auto net = nn::network_by_name(model_or(args, strategy.network));
  reram::AcceleratorConfig accel;
  accel.tile_shared = !args.flag("no-tile-shared");
  accel.pes_per_tile = args.option_int("pes-per-tile");
  const auto plan = plan::compile_plan(net, strategy, accel);
  print_report(path, plan::evaluate_plan(plan));
  return 0;
}

/// Applies the adaptive Monte-Carlo budget flags: --mc-ci switches the
/// trial budget to sequential early stopping at that CI half-width, and
/// --mc-max-trials caps the adaptive spend (0 = --mc-trials). Without
/// --mc-ci the budget stays fixed — reports byte-identical to older builds.
void apply_mc_budget(reram::RobustnessOptions& opts,
                     const common::ArgParser& args) {
  const double ci = args.option_double("mc-ci");
  if (ci <= 0.0) return;
  opts.budget.mode = reram::RobustnessBudget::Mode::kAdaptive;
  opts.budget.ci_halfwidth = ci;
  opts.budget.max_trials =
      static_cast<int>(args.option_int("mc-max-trials"));
}

int run_replay(const common::ArgParser& args) {
  const std::string path = args.option("plan-in");
  AUTOHET_CHECK(!path.empty(), "replay needs --plan-in <plan.json>");
  const plan::DeploymentPlan plan = load_plan(path);

  std::cout << "replaying plan for " << plan.network << " ("
            << plan.layers.size() << " layers, "
            << plan.allocation.occupied_tiles() << " tiles)\n\n";
  const auto report = plan::evaluate_plan(plan);
  print_report(path, report);
  if (const std::string out = args.option("report-json"); !out.empty()) {
    std::ofstream rf(out);
    AUTOHET_CHECK(rf.good(), "cannot open report file: " + out);
    report::write_network_report_json(rf, report);
    std::cout << "network report written to " << out << '\n';
  }

  // Functional inference + robustness MC on the plan's placement. Both
  // need weights; the zoo networks ship none, so we use the same seeded
  // random initialization the functional examples use.
  const auto samples = args.option_int("functional-samples");
  const auto trials = args.option_int("mc-trials");
  if (plan.has_graph() && samples > 0) {
    // DAG plans carry their graph; functional replay executes it on the
    // fabric (residual adds in exact integer arithmetic).
    common::Rng weight_rng(3);
    const nn::Model model(plan.graph.skeleton(), weight_rng);
    const reram::SimulatedModel fabric(model, plan);
    const nn::TensorShape& in = plan.graph.nodes().front().shape;
    common::Rng img_rng(4);
    int agree = 0;
    for (std::int64_t s = 0; s < samples; ++s) {
      const auto img =
          nn::synthetic_image(img_rng, in.channels, in.height, in.width);
      if (tensor::argmax(model.forward_graph(plan.graph, img)) ==
          tensor::argmax(fabric.forward_graph(plan.graph, img))) {
        ++agree;
      }
    }
    std::cout << "functional graph inference: " << agree << '/' << samples
              << " argmax agreement with float reference\n";
  }
  if (plan.has_graph()) {
    AUTOHET_CHECK(trials == 0,
                  "robustness MC replays the linear path; it is not "
                  "available for DAG (v2) plans yet");
    return 0;
  }
  if (samples > 0 || trials > 0) {
    const auto net = nn::network_by_name(plan.network);
    AUTOHET_CHECK(net.sequential_runnable,
                  plan.network + " is not sequentially runnable");
    common::Rng weight_rng(3);
    const nn::Model model(net, weight_rng);
    const nn::LayerSpec& input = net.layers.front();
    if (samples > 0) {
      const reram::SimulatedModel fabric(model, plan);
      common::Rng img_rng(4);
      int agree = 0;
      for (std::int64_t s = 0; s < samples; ++s) {
        const auto img = nn::synthetic_image(img_rng, input.in_channels,
                                             input.in_height, input.in_width);
        if (tensor::argmax(model.forward(img)) ==
            tensor::argmax(fabric.forward(img))) {
          ++agree;
        }
      }
      std::cout << "functional inference: " << agree << '/' << samples
                << " argmax agreement with float reference\n";
    }
    if (trials > 0) {
      reram::RobustnessOptions opts;
      opts.trials = static_cast<int>(trials);
      opts.samples = 4;
      opts.threads = static_cast<int>(args.option_int("mc-threads"));
      apply_mc_budget(opts, args);
      const auto rob = reram::monte_carlo_robustness(model, plan, opts);
      std::cout << "robustness MC: accuracy "
                << report::format_fixed(rob.mean_accuracy * 100.0, 1)
                << "% +/- "
                << report::format_fixed(rob.stddev_accuracy * 100.0, 1)
                << "% (95% CI ["
                << report::format_fixed(rob.accuracy_ci_lower * 100.0, 1)
                << "%, "
                << report::format_fixed(rob.accuracy_ci_upper * 100.0, 1)
                << "%]) over " << rob.trials << '/' << rob.trials_requested
                << " trials"
                << (rob.early_stopped
                        ? " (early stop, " +
                              std::to_string(rob.trials_requested -
                                             rob.trials) +
                              " saved)"
                        : "")
                << '\n';
    }
  }
  return 0;
}

int run_profile(const common::ArgParser& args, obs::ObsSession& session) {
  const std::string path = args.option("plan-in");
  AUTOHET_CHECK(!path.empty(), "profile needs --plan-in <plan.json>");
  const plan::DeploymentPlan plan = load_plan(path);

  // The profiler records regardless of --profile-out: the hotspot table
  // needs the counts even when no JSON sink is configured.
  obs::Profiler::global().enable();
  obs::Profiler::global().reset();

  const auto report = plan::evaluate_plan(plan);
  const std::int64_t batch = args.option_int("batch");
  const auto schedule = reram::schedule_batch(plan, batch);

  // Optional functional replay feeds executed-MVM and programming-write
  // attribution; same seeded weights/images as `replay` so the two commands
  // describe the same deployment.
  const auto samples = args.option_int("functional-samples");
  const auto trials = args.option_int("mc-trials");
  if (plan.has_graph() && samples > 0) {
    common::Rng weight_rng(3);
    const nn::Model model(plan.graph.skeleton(), weight_rng);
    const reram::SimulatedModel fabric(model, plan);
    const nn::TensorShape& in = plan.graph.nodes().front().shape;
    common::Rng img_rng(4);
    for (std::int64_t s = 0; s < samples; ++s) {
      const auto img =
          nn::synthetic_image(img_rng, in.channels, in.height, in.width);
      (void)fabric.forward_graph(plan.graph, img);
    }
  }
  if (plan.has_graph()) {
    AUTOHET_CHECK(trials == 0,
                  "robustness MC replays the linear path; it is not "
                  "available for DAG (v2) plans yet");
  } else if (samples > 0 || trials > 0) {
    const auto net = nn::network_by_name(plan.network);
    AUTOHET_CHECK(net.sequential_runnable,
                  plan.network + " is not sequentially runnable");
    common::Rng weight_rng(3);
    const nn::Model model(net, weight_rng);
    const nn::LayerSpec& input = net.layers.front();
    if (samples > 0) {
      const reram::SimulatedModel fabric(model, plan);
      common::Rng img_rng(4);
      for (std::int64_t s = 0; s < samples; ++s) {
        const auto img = nn::synthetic_image(img_rng, input.in_channels,
                                             input.in_height, input.in_width);
        (void)fabric.forward(img);
      }
    }
    if (trials > 0) {
      reram::RobustnessOptions opts;
      opts.trials = static_cast<int>(trials);
      opts.samples = 4;
      opts.threads = static_cast<int>(args.option_int("mc-threads"));
      apply_mc_budget(opts, args);
      (void)reram::monte_carlo_robustness(model, plan, opts);
    }
  }

  const report::PlanProfile profile = report::build_plan_profile(
      plan, report, schedule, obs::Profiler::global().snapshot(), batch);
  report::merge_profile_into_trace(profile);

  // Claim --profile-out from the session: the full per-plan report goes
  // there instead of the generic raw-records dump the session would write.
  if (const std::string out = session.take_profile_out(); !out.empty()) {
    std::ofstream pf(out);
    AUTOHET_CHECK(pf.good(), "cannot open profile file: " + out);
    report::write_profile_json(pf, profile);
    std::cout << "attribution profile written to " << out << "\n\n";
  }
  print_hotspot_table(std::cout, profile,
                      static_cast<int>(args.option_int("top")));
  return 0;
}

int run_serve(const common::ArgParser& args) {
  const std::vector<std::string>& paths = args.option_list("plan-in");
  AUTOHET_CHECK(!paths.empty(),
                "serve needs at least one --plan-in <plan.json> "
                "(repeat the option for each resident model)");
  std::vector<plan::DeploymentPlan> plans;
  plans.reserve(paths.size());
  for (const std::string& path : paths) plans.push_back(load_plan(path));

  serve::FabricConfig fabric_config;
  fabric_config.tile_capacity = args.option_int("tile-capacity");
  fabric_config.eviction =
      serve::eviction_policy_from_name(args.option("eviction"));
  fabric_config.scope = serve::sharing_scope_from_name(args.option("sharing"));
  fabric_config.functional = args.flag("serve-functional");

  const std::int64_t threads = args.option_int("serve-threads");
  std::optional<common::ThreadPool> pool;
  if (threads != 1) {
    pool.emplace(threads == 0 ? 0 : static_cast<std::size_t>(threads));
  }
  serve::ServingFabric fabric(std::move(plans), fabric_config,
                              pool ? &*pool : nullptr);

  serve::BatchingConfig batching;
  batching.max_batch = args.option_int("max-batch");
  batching.max_wait_ns = args.option_double("max-wait-us") * 1e3;

  serve::TrafficTrace trace;
  if (const std::string in = args.option("traffic-in"); !in.empty()) {
    std::ifstream tf(in);
    AUTOHET_CHECK(tf.good(), "cannot open traffic trace: " + in);
    std::stringstream buffer;
    buffer << tf.rdbuf();
    trace = serve::read_trace_json(buffer.str());
    AUTOHET_CHECK(trace.num_models == fabric.model_count(),
                  "traffic trace covers " +
                      std::to_string(trace.num_models) + " models but " +
                      std::to_string(fabric.model_count()) +
                      " plans were loaded");
  } else {
    serve::TrafficConfig tc;
    tc.seed = static_cast<std::uint64_t>(args.option_int("traffic-seed"));
    tc.profile = serve::rate_profile_from_name(args.option("traffic-profile"));
    tc.zipf_s = args.option_double("zipf");
    double qps = args.option_double("qps");
    if (qps <= 0.0) {
      // Auto rate: ~70% of the popularity-weighted full-batch service
      // capacity, i.e. a loaded-but-stable operating point.
      const std::vector<double> weights =
          serve::zipf_weights(fabric.model_count(), tc.zipf_s);
      double weighted_ns_per_request = 0.0;
      for (std::int64_t m = 0; m < fabric.model_count(); ++m) {
        const auto schedule =
            reram::schedule_batch(fabric.model_plan(m), batching.max_batch);
        weighted_ns_per_request +=
            weights[static_cast<std::size_t>(m)] * schedule.makespan_ns /
            static_cast<double>(batching.max_batch);
      }
      qps = 0.7 * 1e9 / weighted_ns_per_request;
    }
    tc.mean_qps = qps;
    tc.duration_s =
        static_cast<double>(args.option_int("requests")) / tc.mean_qps;
    trace = serve::generate_trace(tc, fabric.model_count());
  }
  if (const std::string out = args.option("traffic-out"); !out.empty()) {
    std::ofstream tf(out);
    AUTOHET_CHECK(tf.good(), "cannot open traffic file: " + out);
    serve::write_trace_json(tf, trace);
    std::cout << "traffic trace written to " << out << "\n\n";
  }

  const serve::ServingReport rep =
      serve::simulate(fabric, batching, trace, pool ? &*pool : nullptr);
  serve::merge_serving_into_trace(rep, obs::Tracer::global());

  std::cout << "served " << rep.total_requests << " requests ("
            << serve::rate_profile_name(trace.config.profile)
            << " arrivals, mean "
            << report::format_fixed(trace.config.mean_qps, 1) << " qps, Zipf "
            << report::format_fixed(trace.config.zipf_s, 2) << ") across "
            << fabric.model_count() << " resident models\n\n";

  report::Table table({"Model", "Network", "Requests", "p50 ms", "p95 ms",
                       "p99 ms", "Swap-ins", "nJ/req"});
  for (std::size_t m = 0; m < rep.models.size(); ++m) {
    const serve::ModelServingStats& s = rep.models[m];
    table.add_row({std::to_string(m), s.network, std::to_string(s.requests),
                   report::format_fixed(s.latency.p50_ms, 3),
                   report::format_fixed(s.latency.p95_ms, 3),
                   report::format_fixed(s.latency.p99_ms, 3),
                   std::to_string(s.swap_ins),
                   report::format_sci(s.energy_per_request_nj, 3)});
  }
  table.add_row({"all", "-", std::to_string(rep.total_requests),
                 report::format_fixed(rep.latency.p50_ms, 3),
                 report::format_fixed(rep.latency.p95_ms, 3),
                 report::format_fixed(rep.latency.p99_ms, 3),
                 std::to_string(rep.swap_ins),
                 report::format_sci(rep.energy_per_request_nj, 3)});
  table.print(std::cout);

  report::Table totals({"Metric", "Value"});
  totals.add_row({"sustained qps",
                  report::format_fixed(rep.sustained_qps, 1)});
  totals.add_row({"mean batch", report::format_fixed(rep.mean_batch, 2)});
  totals.add_row({"peak queue depth",
                  std::to_string(rep.peak_queue_depth)});
  totals.add_row({"accelerator busy %",
                  report::format_fixed(rep.accel_busy_fraction * 100.0, 1)});
  totals.add_row({"swap-ins / evictions",
                  std::to_string(rep.swap_ins) + " / " +
                      std::to_string(rep.evictions)});
  totals.add_row({"inference energy (nJ)",
                  report::format_sci(rep.inference_energy_nj, 3)});
  totals.add_row({"programming energy (nJ)",
                  report::format_sci(rep.programming_energy_nj, 3)});
  std::cout << '\n';
  totals.print(std::cout);

  if (const std::string out = args.option("serving-json"); !out.empty()) {
    std::ofstream sf(out);
    AUTOHET_CHECK(sf.good(), "cannot open serving report file: " + out);
    serve::write_serving_json(sf, rep);
    std::cout << "\nserving report written to " << out << '\n';
  }
  return 0;
}

// The "layers": [...] section of a serialized NetworkReport — the mappable
// per-layer reports, rendered field-for-field. Comparing these strings
// between a graph evaluation and the legacy linear path over the same
// conv/FC skeleton proves the tentpole bit-identity contract end to end.
std::string report_layers_section(const reram::NetworkReport& r) {
  std::ostringstream os;
  report::write_network_report_json(os, r);
  const std::string s = os.str();
  const std::size_t start = s.find("\"layers\": [");
  const std::size_t end = s.find("\n  ],");
  AUTOHET_CHECK(start != std::string::npos && end != std::string::npos &&
                    end > start,
                "malformed network report serialization");
  return s.substr(start, end - start);
}

int run_graph(const common::ArgParser& args) {
  const std::string name = args.option("network");
  AUTOHET_CHECK(!name.empty(), "graph needs --network <name>");
  const nn::Graph graph = nn::graph_by_name(name);

  std::int64_t residual_adds = 0;
  std::int64_t concats = 0;
  std::int64_t activations = 0;
  std::int64_t gaps = 0;
  std::int64_t pools = 0;
  for (const nn::GraphNode& node : graph.nodes()) {
    switch (node.kind) {
      case nn::OpKind::kResidualAdd: ++residual_adds; break;
      case nn::OpKind::kConcat: ++concats; break;
      case nn::OpKind::kActivation: ++activations; break;
      case nn::OpKind::kGlobalAvgPool: ++gaps; break;
      case nn::OpKind::kLayer:
        if (!nn::is_mappable(node.layer.type)) ++pools;
        break;
      case nn::OpKind::kInput: break;
    }
  }
  const std::vector<nn::LayerSpec> mappable = graph.mappable_layers();
  report::Table table({"Metric", "Value"});
  table.add_row({"graph", graph.name()});
  table.add_row({"nodes", std::to_string(graph.node_count())});
  table.add_row({"edges", std::to_string(graph.edge_count())});
  table.add_row({"mappable layers (conv/fc)",
                 std::to_string(mappable.size())});
  table.add_row({"pooling layers", std::to_string(pools)});
  table.add_row({"residual adds", std::to_string(residual_adds)});
  table.add_row({"concats", std::to_string(concats)});
  table.add_row({"activations", std::to_string(activations)});
  table.add_row({"global avg pools", std::to_string(gaps)});
  table.add_row({"chain-shaped", graph.is_chain() ? "yes" : "no"});
  table.add_row({"input shape", graph.nodes().front().shape.to_string()});
  table.add_row(
      {"output shape",
       graph.nodes()[static_cast<std::size_t>(graph.output_node())]
           .shape.to_string()});
  table.print(std::cout);

  if (const std::string out = args.option("dot-out"); !out.empty()) {
    std::ofstream file(out);
    AUTOHET_CHECK(file.good(), "cannot open dot file: " + out);
    nn::write_graph_dot(file, graph);
    std::cout << "\nGraphviz graph written to " << out << '\n';
  }

  const std::string plan_out = args.option("plan-out");
  const std::string skeleton_out = args.option("skeleton-plan-out");
  const bool check_skeleton = args.flag("check-skeleton");
  if (plan_out.empty() && skeleton_out.empty() && !check_skeleton) return 0;

  // A fixed uniform shape keeps the compiled plan deterministic without
  // running a search; plans meant for deployment come from `search`.
  const std::vector<mapping::CrossbarShape> shapes(
      mappable.size(), mapping::CrossbarShape{128, 128});
  reram::AcceleratorConfig accel;
  accel.tile_shared = !args.flag("no-tile-shared");
  accel.pes_per_tile = args.option_int("pes-per-tile");
  const plan::DeploymentPlan graph_plan =
      plan::compile_plan(graph, shapes, accel);
  if (!plan_out.empty()) {
    std::ofstream file(plan_out);
    AUTOHET_CHECK(file.good(), "cannot open plan file: " + plan_out);
    report::write_plan_json(file, graph_plan);
    std::cout << "\nv2 graph plan written to " << plan_out << '\n';
  }
  const plan::DeploymentPlan skeleton_plan =
      plan::compile_plan(graph.name(), mappable, shapes, accel);
  if (!skeleton_out.empty()) {
    std::ofstream file(skeleton_out);
    AUTOHET_CHECK(file.good(), "cannot open plan file: " + skeleton_out);
    report::write_plan_json(file, skeleton_plan);
    std::cout << "\nv1 skeleton plan written to " << skeleton_out << '\n';
  }
  if (check_skeleton) {
    const reram::NetworkReport graph_report =
        plan::evaluate_plan(graph_plan);
    const reram::NetworkReport skeleton_report =
        plan::evaluate_plan(skeleton_plan);
    AUTOHET_CHECK(report_layers_section(graph_report) ==
                      report_layers_section(skeleton_report),
                  "graph per-layer reports diverge from the legacy linear "
                  "path over the same skeleton");
    AUTOHET_CHECK(graph_report.utilization == skeleton_report.utilization &&
                      graph_report.occupied_tiles ==
                          skeleton_report.occupied_tiles &&
                      graph_report.empty_crossbars ==
                          skeleton_report.empty_crossbars,
                  "graph allocation metrics diverge from the legacy linear "
                  "path");
    double op_energy_nj = 0.0;
    double op_latency_ns = 0.0;
    for (const reram::GraphOpReport& op : graph_report.graph_ops) {
      op_energy_nj += op.energy.total_nj();
      op_latency_ns += op.latency_ns;
    }
    std::cout << "\nskeleton check passed: " << mappable.size()
              << " mappable layers field-identical to the linear path; "
              << graph_report.graph_ops.size() << " graph ops add "
              << report::format_sci(op_energy_nj, 3) << " nJ / "
              << report::format_sci(op_latency_ns, 3) << " ns\n";
  }
  return 0;
}

int run_describe(const common::ArgParser& args) {
  const auto net = nn::network_by_name(model_or(args, "vgg16"));
  nn::describe(net, std::cout);
  return 0;
}

int run_kernels(const common::ArgParser&) {
  // One row per (kernel table, variant). CI's dispatch smoke parses this
  // table to learn which variants the host can run, then re-invokes the
  // kernel tests with each one forced.
  report::Table table({"Table", "Variant", "Supported", "Active"});
  const auto add_rows = [&table](const char* name, auto supported,
                                 common::KernelVariant active) {
    for (int v = 0; v < common::kKernelVariantCount; ++v) {
      const auto variant = static_cast<common::KernelVariant>(v);
      table.add_row({name, common::kernel_variant_name(variant),
                     supported(variant) ? "yes" : "no",
                     variant == active ? "yes" : ""});
    }
  };
  add_rows("reram", reram::kernels::supported,
           reram::kernels::active_variant());
  add_rows("rl", rl::kernels::supported, rl::kernels::active_variant());
  table.print(std::cout);
  return 0;
}

int run_baselines(const common::ArgParser& args) {
  const auto net = nn::network_by_name(model_or(args, "vgg16"));
  const auto env = build_env(args, net);
  report::Table table({"Config", "Utilization %", "Energy (nJ)", "RUE",
                       "Area (um^2)"});
  for (const auto& s : core::homogeneous_sweep(env)) {
    table.add_row({s.name,
                   report::format_fixed(s.report.utilization * 100.0, 1),
                   report::format_sci(s.report.energy.total_nj(), 3),
                   report::format_sci(s.report.rue(), 3),
                   report::format_sci(s.report.area.total_um2(), 3)});
  }
  const auto greedy = core::greedy_search(env);
  table.add_row({"Greedy",
                 report::format_fixed(greedy.report.utilization * 100.0, 1),
                 report::format_sci(greedy.report.energy.total_nj(), 3),
                 report::format_sci(greedy.report.rue(), 3),
                 report::format_sci(greedy.report.area.total_um2(), 3)});
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser args(
      "autohet_cli",
      "AutoHet heterogeneous ReRAM accelerator driver: RL search, strategy "
      "evaluation, and homogeneous baselines.");
  args.add_positional("command",
                      "search | evaluate | replay | profile | serve | graph | "
                      "baselines | describe | kernels");
  args.add_option("model", "",
                  "lenet5 | alexnet | vgg16 | resnet152 (default: vgg16; "
                  "'evaluate' defaults to the strategy file's network)");
  args.add_option("candidates", "hybrid",
                  "crossbar candidate set: hybrid | square | rectangle | all");
  args.add_option("episodes", "300", "RL search episodes");
  args.add_option("seed", "1", "RNG seed");
  args.add_option("pes-per-tile", "4", "logical crossbars per tile");
  args.add_option("out", "", "write the learned strategy to this file");
  args.add_option("csv", "", "write per-episode search history CSV");
  args.add_option("strategy", "", "strategy file for 'evaluate'");
  args.add_multi_option("plan-in",
                        "saved DeploymentPlan JSON for 'replay'/'profile'/"
                        "'serve'; repeat for each model 'serve' should keep "
                        "resident (mutually exclusive with the "
                        "search-configuration options)");
  args.add_option("batch", "8",
                  "'profile': images in the analyzed batch schedule");
  args.add_option("top", "10",
                  "'profile': hotspot-table rows (0 = all layers)");
  args.add_option("plan-out", "",
                  "'search': also write the compiled DeploymentPlan JSON; "
                  "'graph': write the compiled v2 graph plan");
  args.add_option("network", "",
                  "'graph': DAG network to build: resnet152 | cifar-resnet | "
                  "any zoo chain (wrapped as a chain graph)");
  args.add_option("dot-out", "",
                  "'graph': write the deterministic Graphviz rendering");
  args.add_option("skeleton-plan-out", "",
                  "'graph': also write a v1 plan over the conv/FC skeleton "
                  "(same shapes/accel as the v2 plan)");
  args.add_flag("check-skeleton",
                "'graph': assert the graph evaluation's per-layer reports "
                "are field-identical to the legacy linear path over the "
                "same skeleton");
  args.add_option("report-json", "",
                  "'search'/'replay': write the winner's / replayed "
                  "NetworkReport as JSON (byte-comparable across the two)");
  args.add_option("functional-samples", "0",
                  "'replay'/'profile': run functional inference on this many "
                  "synthetic images (0 = skip)");
  args.add_option("mc-trials", "0",
                  "'replay'/'profile': robustness Monte-Carlo trials under "
                  "the plan's fault config (0 = skip)");
  args.add_option("mc-threads", "1",
                  "'replay'/'profile': worker threads for the Monte-Carlo "
                  "trials (1 = serial, 0 = one per hardware thread; the "
                  "report is byte-identical at any value)");
  args.add_option("mc-ci", "0",
                  "'replay'/'profile': adaptive Monte-Carlo budget — stop "
                  "trials once the accuracy CI half-width is <= this "
                  "(0 = fixed budget, byte-identical reports)");
  args.add_option("mc-max-trials", "0",
                  "'replay'/'profile': trial cap for the adaptive budget "
                  "(0 = --mc-trials); ignored without --mc-ci");
  args.add_option("eval-threads", "0",
                  "worker threads for batched hardware evaluation "
                  "(0 = serial)");
  args.add_option("kernel", "",
                  "force the ISA variant of the reram and rl kernel tables: "
                  "portable | avx2 | avx512 (default: best supported; "
                  "equivalent to AUTOHET_KERNEL; results are bit-identical "
                  "across variants)");
  args.add_flag("no-tile-shared", "disable the tile-shared allocation");
  args.add_option("requests", "2000",
                  "'serve': target request count of the generated traffic "
                  "(the trace horizon is requests / qps)");
  args.add_option("qps", "0",
                  "'serve': mean arrival rate (0 = auto, ~70% of the "
                  "popularity-weighted service capacity)");
  args.add_option("traffic-profile", "constant",
                  "'serve': arrival-rate profile: constant | bursty | "
                  "diurnal");
  args.add_option("traffic-seed", "42", "'serve': traffic generator seed");
  args.add_option("zipf", "1",
                  "'serve': Zipf popularity exponent over the resident "
                  "models (0 = uniform)");
  args.add_option("max-batch", "8",
                  "'serve': largest batch the admission policy dispatches");
  args.add_option("max-wait-us", "200",
                  "'serve': longest a queued request waits before its "
                  "model's batch dispatches anyway (microseconds)");
  args.add_option("tile-capacity", "0",
                  "'serve': tile budget of the resident set (0 = unbounded; "
                  "a tight budget forces eviction + re-programming swaps)");
  args.add_option("eviction", "lru", "'serve': eviction policy: lru | lfu");
  args.add_option("sharing", "cross-model",
                  "'serve': residency-footprint tile sharing scope: none | "
                  "per-model | cross-model");
  args.add_option("serve-threads", "1",
                  "'serve': worker threads for the schedule-table precompute "
                  "(0 = one per hardware thread; the report is "
                  "byte-identical at any value)");
  args.add_option("traffic-in", "",
                  "'serve': replay this saved traffic trace JSON instead of "
                  "generating one");
  args.add_option("traffic-out", "",
                  "'serve': save the generated traffic trace JSON "
                  "(replayable via --traffic-in)");
  args.add_option("serving-json", "",
                  "'serve': write the deterministic serving report JSON");
  args.add_flag("serve-functional",
                "'serve': program a real simulated fabric on every swap-in "
                "(requires sequentially runnable networks)");
  obs::add_cli_options(args);

  std::string error;
  if (!args.parse(argc, argv, &error)) {
    std::cerr << error << '\n';
    return 2;
  }
  // A plan freezes the network, mapping and accelerator config, so every
  // option that would configure a fresh search contradicts it.
  if (!args.reject_option_conflicts(
          "plan-in",
          {"episodes", "seed", "candidates", "model", "strategy", "out",
           "csv", "pes-per-tile", "no-tile-shared"},
          &error)) {
    std::cerr << error << '\n';
    return 2;
  }
  try {
    obs::ObsSession session(args);
    if (const std::string kernel = args.option("kernel"); !kernel.empty()) {
      reram::kernels::Variant v;
      AUTOHET_CHECK(reram::kernels::variant_from_name(kernel, &v),
                    "unknown kernel variant: " + kernel +
                        " (use portable|avx2|avx512)");
      reram::kernels::set_variant(v);  // hard error when unsupported
      rl::kernels::set_variant(v);
    }
    const std::string command = args.positional("command");
    if (command == "search") return run_search(args);
    if (command == "evaluate") return run_evaluate(args);
    if (command == "replay") return run_replay(args);
    if (command == "profile") return run_profile(args, session);
    if (command == "serve") return run_serve(args);
    if (command == "graph") return run_graph(args);
    if (command == "baselines") return run_baselines(args);
    if (command == "describe") return run_describe(args);
    if (command == "kernels") return run_kernels(args);
    std::cerr << "unknown command: " << command << "\n\n"
              << args.help_text();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
