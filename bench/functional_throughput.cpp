// Functional-simulation throughput: packed vs scalar MVM kernels across
// every dispatchable ISA variant, fast vs scalar forward plumbing, and
// Monte-Carlo robustness wall time — the perf trajectory of the fast
// functional engine (DESIGN.md §7).
//
// Levels timed, each against its scalar baseline, the per-cell oracles of
// tests/oracle.hpp that the test suite checks the fast paths against:
//   * raw crossbar kernels (bit-serial / reference MVMs/s),
//     with the bit-serial kernel additionally timed under every supported
//     dispatch variant (portable/avx2/avx512) — the `dispatch` JSON section
//     records the selected path and each variant's rate;
//   * whole-network forwards (images/s, integer and bit-serial datapaths);
//   * the full fault_sweep Monte-Carlo workload — fault_sweep's three
//     configurations over its 15-point grid (3 cell-bits × 5 stuck rates,
//     σ=0.01, 5 trials × 12 samples), measured end-to-end through
//     EvaluationEngine::evaluate_robustness. Every (variant, thread-count)
//     combination's reports are byte-compared against the serial oracle
//     Monte-Carlo (asserted here and by the e2e_functional_throughput
//     test), and per config the parallel
//     path must not lose to the serial one (`parallel_vs_serial`; on a
//     single-hardware-thread host the parallel path runs the identical
//     serial code, so the serial timing is reused and flagged).
//
// Emits BENCH_functional_throughput.json with every rate and ratio; the
// headline `mc_speedup` field (aggregate scalar wall / aggregate fast wall
// over the whole workload) gates the acceptance criterion.
//
// Usage: functional_throughput [mc_reps] [episodes]
//   mc_reps  — repetitions of each Monte-Carlo timing (best-of; default 1)
//   episodes — search budget for the AutoHet configuration (default 60,
//              matching fault_sweep)
#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "oracle.hpp"
#include "reram/eval_engine.hpp"
#include "reram/functional.hpp"
#include "reram/kernels/kernels.hpp"

using namespace autohet;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Times fn() repeatedly until ~min_ms of wall time accumulates; returns
/// calls per second.
template <typename Fn>
double calls_per_second(Fn&& fn, double min_ms = 200.0) {
  // Warm up once (packs lazy structures, faults the caches).
  fn();
  std::int64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = ms_since(t0);
  } while (elapsed < min_ms);
  return static_cast<double>(calls) * 1000.0 / elapsed;
}

// fault_sweep's fault grid, replicated exactly (bench/fault_sweep.cpp).
constexpr double kStuckRates[] = {0.0, 1e-4, 1e-3, 5e-3, 1e-2};
constexpr int kCellBits[] = {1, 2, 4};
constexpr double kProgramSigma = 0.01;
constexpr int kMcTrials = 5;
constexpr int kMcSamples = 12;

reram::FaultConfig point_config(double stuck_rate, int cell_bits) {
  reram::FaultConfig faults;
  faults.stuck_at_zero_rate = stuck_rate / 2.0;
  faults.stuck_at_one_rate = stuck_rate / 2.0;
  faults.program_sigma = kProgramSigma;
  faults.cell_bits = cell_bits;
  return faults;
}

bool reports_equal(const reram::RobustnessReport& a,
                   const reram::RobustnessReport& b) {
  return a.trials == b.trials && a.samples == b.samples &&
         a.mean_accuracy == b.mean_accuracy &&
         a.stddev_accuracy == b.stddev_accuracy &&
         a.min_accuracy == b.min_accuracy &&
         a.max_accuracy == b.max_accuracy &&
         a.mean_logit_error == b.mean_logit_error &&
         a.layer_error == b.layer_error &&
         a.fault_stats.physical_cells == b.fault_stats.physical_cells &&
         a.fault_stats.stuck_at_zero == b.fault_stats.stuck_at_zero &&
         a.fault_stats.stuck_at_one == b.fault_stats.stuck_at_one &&
         a.fault_stats.weights_changed == b.fault_stats.weights_changed;
}

struct McTiming {
  std::string config;
  double scalar_serial_ms = 0.0;
  double fast_serial_ms = 0.0;
  double fast_parallel_ms = 0.0;
  bool parallel_reused_serial = false;
  bool identical = false;
};

/// One (variant, threads) byte-identity verdict against the scalar serial
/// reference, over all three configurations' full grids.
struct VariantCheck {
  std::string variant;
  int threads = 0;  // 1 = serial, 0 = one per hardware thread
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "functional_throughput",
      "Functional-simulation throughput: dispatched kernels, parallel MC");
  args.add_optional_positional(
      "mc_reps", "1", "repetitions of each Monte-Carlo timing (best-of)");
  args.add_optional_positional("episodes", "60",
                               "search budget of the AutoHet configuration");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"mc_reps", 1}, {"episodes", 1}},
                         &session)) {
    return 2;
  }
  const int mc_reps = args.count("mc_reps");
  const int hw_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  bench::print_header(
      "Functional-simulation throughput (dispatched kernels, parallel MC)");

  namespace rk = reram::kernels;
  const rk::Variant selected = rk::active_variant();
  const std::vector<rk::Variant> variants = rk::supported_variants();

  const nn::NetworkSpec net = nn::lenet5();
  common::Rng weight_rng(21);
  const nn::Model model(net, weight_rng);

  // --- Raw kernel rates on one 288x256 crossbar -------------------------
  const mapping::CrossbarShape kshape{288, 256};
  common::Rng cell_rng(7);
  std::vector<std::int8_t> weights(static_cast<std::size_t>(kshape.cells()));
  for (auto& w : weights) {
    w = static_cast<std::int8_t>(cell_rng.uniform_int(-128, 127));
  }
  reram::LogicalCrossbar xb(kshape);
  xb.program(weights, kshape.rows, kshape.cols);  // packs eagerly
  std::vector<std::uint8_t> input(static_cast<std::size_t>(kshape.rows));
  for (auto& v : input) {
    v = static_cast<std::uint8_t>(cell_rng.uniform_int(0, 255));
  }
  volatile std::int32_t sink = 0;
  const auto time_kernel = [&](auto&& fn) {
    return calls_per_second([&] { sink = sink + fn().back(); });
  };

  // Dispatch sweep: the bit-serial packed MVM under every supported
  // variant. The packed result is checked against the scalar oracle per
  // variant — a variant that vectorizes wrongly must fail here, not in CI.
  struct VariantRate {
    std::string name;
    double bit_serial_per_s = 0.0;
  };
  std::vector<VariantRate> variant_rates;
  const std::vector<std::int32_t> bit_serial_oracle =
      oracle::mvm_bit_serial_scalar(xb, input);
  for (const rk::Variant v : variants) {
    rk::set_variant(v);
    AUTOHET_CHECK(xb.mvm_bit_serial(input) == bit_serial_oracle,
                  std::string("bit-serial mismatch under variant ") +
                      rk::variant_name(v));
    VariantRate rate;
    rate.name = rk::variant_name(v);
    rate.bit_serial_per_s =
        time_kernel([&] { return xb.mvm_bit_serial(input); });
    variant_rates.push_back(rate);
  }
  rk::set_variant(selected);
  double best_vs_portable = 1.0;
  for (const auto& r : variant_rates) {
    best_vs_portable = std::max(
        best_vs_portable,
        r.bit_serial_per_s / variant_rates.front().bit_serial_per_s);
  }

  struct KernelRow {
    std::string name;
    double packed_per_s, scalar_per_s;
  };
  // Each row times its fast and scalar legs alternately, three runs each,
  // and keeps the best rate of each: under the portable core the reference
  // row's two legs are close, so one burst of host load on a single run
  // must not decide the comparison.
  const auto kernel_row = [&](std::string name, const auto& fast,
                              const auto& scalar) {
    KernelRow row{std::move(name), 0.0, 0.0};
    for (int run = 0; run < 3; ++run) {
      row.packed_per_s = std::max(row.packed_per_s, time_kernel(fast));
      row.scalar_per_s = std::max(row.scalar_per_s, time_kernel(scalar));
    }
    return row;
  };
  std::vector<KernelRow> kernels;
  kernels.push_back(kernel_row(
      "bit_serial", [&] { return xb.mvm_bit_serial(input); },
      [&] { return oracle::mvm_bit_serial_scalar(xb, input); }));
  kernels.push_back(kernel_row(
      "reference", [&] { return xb.mvm_reference(input); },
      [&] { return oracle::mvm_reference_scalar(xb, input); }));

  // --- Whole-network forward rates --------------------------------------
  const auto mappable = net.mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(mappable.size(),
                                                   {72, 64});
  common::Rng img_rng(4);
  const nn::LayerSpec& first = net.layers.front();
  const tensor::Tensor image = nn::synthetic_image(
      img_rng, first.in_channels, first.in_height, first.in_width);
  volatile float fsink = 0.0f;
  struct ForwardRow {
    std::string name;
    double fast_per_s, scalar_per_s;
  };
  std::vector<ForwardRow> forwards;
  {
    const reram::SimulatedModel fast_int(model, shapes,
                                         reram::DatapathMode::kInteger);
    const oracle::Fabric scalar_int(model, shapes,
                                    reram::DatapathMode::kInteger);
    forwards.push_back(
        {"integer",
         calls_per_second([&] { fsink = fsink + fast_int.forward(image)[0]; }),
         calls_per_second(
             [&] { fsink = fsink + scalar_int.forward(image).output[0]; })});
    const reram::SimulatedModel fast_bits(model, shapes,
                                          reram::DatapathMode::kBitSerial);
    const oracle::Fabric scalar_bits(model, shapes,
                                     reram::DatapathMode::kBitSerial);
    forwards.push_back(
        {"bit_serial",
         calls_per_second([&] { fsink = fsink + fast_bits.forward(image)[0]; }),
         calls_per_second(
             [&] { fsink = fsink + scalar_bits.forward(image).output[0]; },
             400.0)});
  }

  // --- Monte-Carlo wall time on the fault_sweep workload ----------------
  // fault_sweep's three configurations over its full 15-point grid,
  // measured end-to-end through EvaluationEngine::evaluate_robustness. A
  // fresh environment (fresh engine, cold TrialFabricCache) per timed
  // measurement: the fast path pays every ideal-reference build and trial
  // burn inside the timer, exactly as one fault_sweep run does.
  const int episodes = args.count("episodes");
  const auto env0 = bench::make_env(net, mapping::hybrid_candidates(),
                                    /*tile_shared=*/true);
  struct McConfig {
    std::string name;
    std::vector<std::size_t> actions;
  };
  std::vector<McConfig> mc_configs;
  const auto autohet_result = bench::run_search(env0, episodes, /*seed=*/1);
  mc_configs.push_back({"AutoHet (RL)", autohet_result.best_actions});
  const auto homo = core::best_homogeneous(env0);
  mc_configs.push_back({homo.name, homo.actions});
  const auto& candidates = env0.candidates();
  std::size_t largest = 0;
  for (std::size_t c = 1; c < candidates.size(); ++c) {
    if (candidates[c].cells() > candidates[largest].cells()) largest = c;
  }
  mc_configs.push_back(
      {"Homo(" + candidates[largest].name() + ")",
       std::vector<std::size_t>(env0.num_layers(), largest)});

  using Reports = std::vector<reram::RobustnessReport>;
  // Wall time of one pass of `evaluate` over the 15-point grid; the
  // reports land in `out` when it is set.
  const auto grid_wall = [&](const auto& evaluate, Reports* out) {
    Reports reports;
    const auto t0 = Clock::now();
    for (const int cell_bits : kCellBits) {
      for (const double rate : kStuckRates) {
        reports.push_back(evaluate(point_config(rate, cell_bits)));
      }
    }
    const double wall = ms_since(t0);
    if (out != nullptr) *out = std::move(reports);
    return wall;
  };
  // Best of `reps` timings of run(out); only the first run reports.
  const auto best_of = [](int reps, Reports* out, const auto& run) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const double wall = run(rep == 0 ? out : nullptr);
      if (rep == 0 || wall < best) best = wall;
    }
    return best;
  };
  const auto best_grid = [&](const McConfig& cfg,
                             const reram::RobustnessOptions& opts,
                             Reports* out, int reps) {
    return best_of(reps, out, [&](Reports* rep_out) {
      const auto env = bench::make_env(net, mapping::hybrid_candidates(),
                                       /*tile_shared=*/true);
      return grid_wall(
          [&](const reram::FaultConfig& faults) {
            return env.engine().evaluate_robustness(model, cfg.actions,
                                                    faults, opts);
          },
          rep_out);
    });
  };

  reram::RobustnessOptions mc;
  mc.trials = kMcTrials;
  mc.samples = kMcSamples;
  // With a single hardware thread the parallel path runs the identical
  // serial code (the MC gate needs threads > 1 *and* workers to help), so
  // re-timing it would only measure noise — reuse the serial wall time.
  const bool reuse_serial_for_parallel = hw_threads <= 1;

  // The oracle's serial Monte-Carlo, once per configuration (the expensive
  // leg): every trial fabric programmed and burned from scratch, every
  // sample through scalar per-column MVMs.
  std::vector<Reports> ref_reports(mc_configs.size());
  std::vector<double> scalar_ms(mc_configs.size(), 0.0);
  for (std::size_t c = 0; c < mc_configs.size(); ++c) {
    std::vector<mapping::CrossbarShape> cfg_shapes;
    for (const std::size_t a : mc_configs[c].actions) {
      cfg_shapes.push_back(candidates[a]);
    }
    scalar_ms[c] = best_of(mc_reps, &ref_reports[c], [&](Reports* out) {
      return grid_wall(
          [&](const reram::FaultConfig& faults) {
            return oracle::monte_carlo_robustness(model, cfg_shapes, faults,
                                                  mc);
          },
          out);
    });
  }

  // Every supported variant, serial and parallel, byte-compared against the
  // scalar reference. The selected variant's timings (with best-of reps and
  // the parallel ≤ serial gate) become the headline rows.
  std::vector<McTiming> mc_rows;
  std::vector<VariantCheck> variant_checks;
  bool mc_identical = true;
  double scalar_total = 0.0, serial_total = 0.0, parallel_total = 0.0;
  for (const rk::Variant v : variants) {
    rk::set_variant(v);
    const bool is_selected = v == selected;
    bool serial_ok = true;
    bool parallel_ok = true;
    for (std::size_t c = 0; c < mc_configs.size(); ++c) {
      const McConfig& cfg = mc_configs[c];
      McTiming row;
      row.config = cfg.name;
      row.scalar_serial_ms = scalar_ms[c];
      Reports fast_reports, par_reports;
      reram::RobustnessOptions serial_opts = mc;
      serial_opts.threads = 1;
      reram::RobustnessOptions parallel_opts = mc;
      parallel_opts.threads = 0;  // one worker per hardware thread
      const int reps = is_selected ? mc_reps : 1;
      row.fast_serial_ms = best_grid(cfg, serial_opts, &fast_reports, reps);
      if (reuse_serial_for_parallel) {
        row.fast_parallel_ms = row.fast_serial_ms;
        row.parallel_reused_serial = true;
        par_reports = fast_reports;
      } else {
        row.fast_parallel_ms =
            best_grid(cfg, parallel_opts, &par_reports, reps);
        // Satellite gate: intra-trial chunking must keep the parallel path
        // at least at parity per configuration. Before failing, time serial
        // and parallel alternately, three runs each, and compare the
        // fastest of each: on small configurations the two walls are close
        // enough that one scheduling hiccup or a burst of host load on a
        // single run is not a regression.
        if (is_selected &&
            row.fast_parallel_ms > 1.05 * row.fast_serial_ms) {
          for (int run = 0; run < 3; ++run) {
            const double serial_ms =
                best_grid(cfg, serial_opts, nullptr, reps);
            const double parallel_ms =
                best_grid(cfg, parallel_opts, nullptr, reps);
            row.fast_serial_ms =
                run == 0 ? serial_ms : std::min(row.fast_serial_ms, serial_ms);
            row.fast_parallel_ms =
                run == 0 ? parallel_ms
                         : std::min(row.fast_parallel_ms, parallel_ms);
          }
          AUTOHET_CHECK(
              row.fast_parallel_ms <= 1.05 * row.fast_serial_ms,
              "parallel MC slower than serial for " + cfg.name);
        }
      }
      row.identical = fast_reports.size() == ref_reports[c].size() &&
                      par_reports.size() == ref_reports[c].size();
      for (std::size_t i = 0; row.identical && i < ref_reports[c].size();
           ++i) {
        row.identical = reports_equal(ref_reports[c][i], fast_reports[i]) &&
                        reports_equal(ref_reports[c][i], par_reports[i]);
      }
      serial_ok = serial_ok && row.identical;
      parallel_ok = parallel_ok && row.identical;
      mc_identical = mc_identical && row.identical;
      if (is_selected) {
        scalar_total += row.scalar_serial_ms;
        serial_total += row.fast_serial_ms;
        parallel_total += row.fast_parallel_ms;
        mc_rows.push_back(row);
      }
    }
    variant_checks.push_back({rk::variant_name(v), 1, serial_ok});
    variant_checks.push_back({rk::variant_name(v), 0, parallel_ok});
  }
  rk::set_variant(selected);
  AUTOHET_CHECK(mc_identical,
                "fast Monte-Carlo reports diverged from the scalar serial "
                "reference");
  // Headline gate: aggregate wall time of the whole workload (all three
  // configurations × 15 grid points), scalar serial vs fast parallel.
  const double mc_speedup = scalar_total / parallel_total;
  const double parallel_ratio = parallel_total / serial_total;

  // --- Report ------------------------------------------------------------
  report::Table dispatch_table({"Variant", "Bit-serial MVM/s", "Selected"});
  for (const auto& r : variant_rates) {
    dispatch_table.add_row({r.name,
                            report::format_fixed(r.bit_serial_per_s, 0),
                            r.name == rk::variant_name(selected) ? "yes"
                                                                 : ""});
  }
  dispatch_table.print(std::cout);
  std::cout << '\n';

  report::Table table({"Level", "Variant", "Fast", "Scalar", "Speedup"});
  for (const auto& k : kernels) {
    table.add_row({"kernel (MVM/s)", k.name,
                   report::format_fixed(k.packed_per_s, 0),
                   report::format_fixed(k.scalar_per_s, 0),
                   report::format_fixed(k.packed_per_s / k.scalar_per_s, 2)});
  }
  for (const auto& f : forwards) {
    table.add_row({"forward (img/s)", f.name,
                   report::format_fixed(f.fast_per_s, 1),
                   report::format_fixed(f.scalar_per_s, 1),
                   report::format_fixed(f.fast_per_s / f.scalar_per_s, 2)});
  }
  for (const auto& m : mc_rows) {
    table.add_row({"MC grid (ms)", m.config,
                   report::format_fixed(m.fast_parallel_ms, 1),
                   report::format_fixed(m.scalar_serial_ms, 1),
                   report::format_fixed(
                       m.scalar_serial_ms / m.fast_parallel_ms, 2)});
  }
  table.print(std::cout);
  std::cout << "\nKernel dispatch: " << rk::variant_name(selected)
            << " (best vs portable "
            << report::format_fixed(best_vs_portable, 2) << "x)\n"
            << "MC speedup (fault_sweep workload aggregate, fast parallel "
            << "vs scalar serial): " << report::format_fixed(mc_speedup, 2)
            << "x, reports identical: " << (mc_identical ? "yes" : "NO")
            << "\n";

  std::ofstream json("BENCH_functional_throughput.json");
  json << "{\n  \"benchmark\": \"functional_throughput\",\n"
       << "  \"model\": \"lenet5\",\n"
       << "  \"hardware_threads\": " << hw_threads << ",\n"
       << "  \"mc_reps\": " << mc_reps << ",\n  \"dispatch\": {\n"
       << "    \"selected\": \"" << rk::variant_name(selected) << "\",\n"
       << "    \"supported\": [";
  bool first_row = true;
  for (const rk::Variant v : variants) {
    json << (first_row ? "" : ", ") << '"' << rk::variant_name(v) << '"';
    first_row = false;
  }
  json << "],\n    \"variants\": [";
  first_row = true;
  for (const auto& r : variant_rates) {
    json << (first_row ? "\n" : ",\n") << "      {\"name\": \"" << r.name
         << "\", \"bit_serial_mvms_per_s\": " << r.bit_serial_per_s
         << ", \"vs_portable\": "
         << r.bit_serial_per_s / variant_rates.front().bit_serial_per_s
         << "}";
    first_row = false;
  }
  json << "\n    ],\n    \"best_vs_portable\": " << best_vs_portable
       << "\n  },\n  \"kernels\": [";
  first_row = true;
  for (const auto& k : kernels) {
    json << (first_row ? "\n" : ",\n") << "    {\"name\": \"" << k.name
         << "\", \"shape\": \"288x256\", \"packed_mvms_per_s\": "
         << k.packed_per_s << ", \"scalar_mvms_per_s\": " << k.scalar_per_s
         << ", \"speedup\": " << k.packed_per_s / k.scalar_per_s << "}";
    first_row = false;
  }
  json << "\n  ],\n  \"forward\": [";
  first_row = true;
  for (const auto& f : forwards) {
    json << (first_row ? "\n" : ",\n") << "    {\"datapath\": \"" << f.name
         << "\", \"fast_images_per_s\": " << f.fast_per_s
         << ", \"scalar_images_per_s\": " << f.scalar_per_s
         << ", \"speedup\": " << f.fast_per_s / f.scalar_per_s << "}";
    first_row = false;
  }
  json << "\n  ],\n  \"monte_carlo\": {\n"
       << "    \"workload\": \"fault_sweep\",\n"
       << "    \"episodes\": " << episodes << ",\n"
       << "    \"cell_bits\": [1, 2, 4],\n"
       << "    \"stuck_rates\": [0.0, 0.0001, 0.001, 0.005, 0.01],\n"
       << "    \"program_sigma\": " << kProgramSigma << ",\n"
       << "    \"trials\": " << mc.trials << ",\n"
       << "    \"samples\": " << mc.samples << ",\n"
       << "    \"configs\": [";
  first_row = true;
  for (const auto& m : mc_rows) {
    json << (first_row ? "\n" : ",\n") << "      {\"config\": \"" << m.config
         << "\", \"scalar_serial_ms\": " << m.scalar_serial_ms
         << ", \"fast_serial_ms\": " << m.fast_serial_ms
         << ", \"fast_parallel_ms\": " << m.fast_parallel_ms
         << ", \"speedup\": " << m.scalar_serial_ms / m.fast_parallel_ms
         << ", \"parallel_vs_serial\": "
         << m.fast_parallel_ms / m.fast_serial_ms
         << ", \"parallel_reused_serial\": "
         << (m.parallel_reused_serial ? "true" : "false")
         << ", \"reports_identical\": " << (m.identical ? "true" : "false")
         << "}";
    first_row = false;
  }
  json << "\n    ],\n    \"variant_checks\": [";
  first_row = true;
  for (const auto& vc : variant_checks) {
    json << (first_row ? "\n" : ",\n") << "      {\"variant\": \""
         << vc.variant << "\", \"threads\": " << vc.threads
         << ", \"reports_identical\": " << (vc.identical ? "true" : "false")
         << "}";
    first_row = false;
  }
  json << "\n    ]\n  },\n  \"mc_speedup\": " << mc_speedup
       << ",\n  \"parallel_vs_serial\": " << parallel_ratio
       << ",\n  \"mc_reports_identical\": " << (mc_identical ? "true" : "false")
       << "\n}\n";
  std::cout << "Wrote BENCH_functional_throughput.json\n";
  return 0;
}
