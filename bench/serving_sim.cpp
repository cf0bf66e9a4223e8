// Multi-tenant serving benchmark: two zoo models resident on one fabric
// under swap pressure (DESIGN.md §8).
//
// Compiles LeNet5 and AlexNet deterministically (fixed 72x64 shapes, the
// paper accelerator with tile sharing — no RL search, so the committed
// baseline reproduces bit-for-bit on any host), sizes the tile budget to
// the larger model's standalone footprint so the two models cannot
// co-reside and every popularity flip pays an eviction + re-programming
// swap, then replays a seeded diurnal Zipf trace at ~70% of the
// popularity-weighted service capacity.
//
// Emits:
//   * BENCH_serving.json — the full deterministic ServingReport
//     (byte-identical across runs, hosts, and --threads values; the
//     regression gate pins p99, sustained qps and swap counts exactly);
//   * BENCH_serving_host.json — wall-clock simulation rate, the only
//     host-dependent number (gated with --timing-slack).
//
// Usage: serving_sim [requests] [--threads N]
//   requests — target request count of the generated trace (default 2000)
//   --threads — schedule-table precompute workers (0 = one per hardware
//               thread; the serving report never changes with it)
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "report/serialize.hpp"
#include "serve/serialize.hpp"
#include "serve/simulator.hpp"

using namespace autohet;

namespace {

using Clock = std::chrono::steady_clock;

plan::DeploymentPlan compile_zoo_plan(const nn::NetworkSpec& net) {
  const auto mappable = net.mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(mappable.size(), {72, 64});
  return plan::compile_plan(net.name, mappable, shapes,
                            bench::paper_accel(/*tile_shared=*/true));
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "serving_sim", "Multi-tenant serving under swap pressure");
  args.add_optional_positional(
      "requests", "2000", "target request count of the generated trace");
  args.add_option("threads", "1",
                  "schedule-table precompute workers (0 = one per hardware "
                  "thread; the serving report never changes with it)");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"requests", 1}, {"threads", 0}},
                         &session)) {
    return 2;
  }
  const int requests = args.count("requests");
  const int threads = args.count("threads");
  bench::print_header("Multi-tenant serving under swap pressure");

  std::vector<plan::DeploymentPlan> plans;
  plans.push_back(compile_zoo_plan(nn::lenet5()));
  plans.push_back(compile_zoo_plan(nn::alexnet()));

  std::optional<common::ThreadPool> pool;
  if (threads != 1) {
    pool.emplace(threads == 0 ? 0 : static_cast<std::size_t>(threads));
  }
  common::ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  // Probe pass (unbounded budget) just to read the standalone footprints;
  // the measured fabric caps residency at the larger one, so the resident
  // set can never hold both models and every model flip swaps.
  serve::FabricConfig fabric_config;
  std::int64_t capacity = 0;
  {
    const serve::ServingFabric probe(plans, fabric_config, pool_ptr);
    for (std::int64_t m = 0; m < probe.model_count(); ++m) {
      capacity = std::max(capacity, probe.standalone_tiles(m));
    }
  }
  fabric_config.tile_capacity = capacity;
  serve::ServingFabric fabric(plans, fabric_config, pool_ptr);

  serve::BatchingConfig batching;

  serve::TrafficConfig traffic;
  traffic.profile = serve::RateProfile::kDiurnal;
  // ~70% of the popularity-weighted full-batch service capacity: loaded
  // enough that batches actually form, stable enough that queues drain.
  const std::vector<double> weights =
      serve::zipf_weights(fabric.model_count(), traffic.zipf_s);
  double weighted_ns_per_request = 0.0;
  for (std::int64_t m = 0; m < fabric.model_count(); ++m) {
    const auto schedule = fabric.schedule(m, batching.max_batch);
    weighted_ns_per_request += weights[static_cast<std::size_t>(m)] *
                               schedule.makespan_ns /
                               static_cast<double>(batching.max_batch);
  }
  traffic.mean_qps = 0.7 * 1e9 / weighted_ns_per_request;
  traffic.duration_s = static_cast<double>(requests) / traffic.mean_qps;
  const serve::TrafficTrace trace =
      serve::generate_trace(traffic, fabric.model_count());

  const auto t0 = Clock::now();
  const serve::ServingReport rep =
      serve::simulate(fabric, batching, trace, pool_ptr);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // The conservation contracts the CI smoke also asserts from the JSON:
  // total energy splits exactly into inference + programming, and the
  // inference leg is the index-ordered sum of the per-model stats.
  double inference_sum = 0.0;
  for (const serve::ModelServingStats& m : rep.models) {
    inference_sum += m.inference_energy_nj;
  }
  AUTOHET_CHECK(inference_sum == rep.inference_energy_nj,
                "per-model inference energies do not sum to the total");
  AUTOHET_CHECK(rep.inference_energy_nj + rep.programming_energy_nj ==
                    rep.total_energy_nj,
                "total energy is not inference + programming");
  AUTOHET_CHECK(rep.swap_ins > static_cast<std::int64_t>(rep.models.size()),
                "the capped tile budget produced no swap pressure");

  report::Table table({"Model", "Network", "Requests", "p50 ms", "p95 ms",
                       "p99 ms", "Swap-ins", "Tiles"});
  for (std::size_t m = 0; m < rep.models.size(); ++m) {
    const serve::ModelServingStats& s = rep.models[m];
    table.add_row({std::to_string(m), s.network, std::to_string(s.requests),
                   report::format_fixed(s.latency.p50_ms, 3),
                   report::format_fixed(s.latency.p95_ms, 3),
                   report::format_fixed(s.latency.p99_ms, 3),
                   std::to_string(s.swap_ins),
                   std::to_string(s.standalone_tiles)});
  }
  table.add_row({"all", "-", std::to_string(rep.total_requests),
                 report::format_fixed(rep.latency.p50_ms, 3),
                 report::format_fixed(rep.latency.p95_ms, 3),
                 report::format_fixed(rep.latency.p99_ms, 3),
                 std::to_string(rep.swap_ins), std::to_string(capacity)});
  table.print(std::cout);
  std::cout << "\nsustained " << report::format_fixed(rep.sustained_qps, 1)
            << " qps (offered mean "
            << report::format_fixed(traffic.mean_qps, 1) << "), mean batch "
            << report::format_fixed(rep.mean_batch, 2) << ", "
            << rep.swap_ins << " swap-ins / " << rep.evictions
            << " evictions, busy "
            << report::format_fixed(rep.accel_busy_fraction * 100.0, 1)
            << "%\nsimulated " << rep.total_requests << " requests in "
            << report::format_fixed(wall_ms, 1) << " ms of wall time\n";

  {
    std::ofstream json("BENCH_serving.json");
    serve::write_serving_json(json, rep);
  }
  {
    const double wall_s = wall_ms / 1000.0;
    std::ofstream json("BENCH_serving_host.json");
    json << "{\n  \"benchmark\": \"serving_sim\",\n"
         << "  \"requests\": " << rep.total_requests << ",\n"
         << "  \"wall_ms\": " << report::format_double_json(wall_ms) << ",\n"
         << "  \"sim_requests_per_s\": "
         << report::format_double_json(
                static_cast<double>(rep.total_requests) / wall_s)
         << "\n}\n";
  }
  std::cout << "Wrote BENCH_serving.json and BENCH_serving_host.json\n";
  return 0;
}
