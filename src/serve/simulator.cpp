#include "serve/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace autohet::serve {

void BatchingConfig::validate() const {
  AUTOHET_CHECK(max_batch >= 1, "max_batch must be >= 1");
  AUTOHET_CHECK(max_wait_ns >= 0.0, "max_wait_ns must be non-negative");
}

double percentile(const std::vector<double>& sorted_values, double p) {
  if (sorted_values.empty()) return 0.0;
  const auto n = sorted_values.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::max<std::size_t>(1, std::min(rank, n));
  return sorted_values[rank - 1];
}

namespace {

LatencySummary summarize_sorted_latencies(
    const std::vector<double>& sorted_ms) {
  LatencySummary summary;
  if (sorted_ms.empty()) return summary;
  summary.p50_ms = percentile(sorted_ms, 50.0);
  summary.p95_ms = percentile(sorted_ms, 95.0);
  summary.p99_ms = percentile(sorted_ms, 99.0);
  double sum = 0.0;
  for (const double v : sorted_ms) sum += v;
  summary.mean_ms = sum / static_cast<double>(sorted_ms.size());
  summary.max_ms = sorted_ms.back();
  return summary;
}

/// One model's batch timings for every batch size up to max_batch, read
/// off a single max_batch schedule: a batch of b images finishes image i
/// (i < b) at finish_offset_ns[i] after its start and frees the
/// accelerator after prefix_makespan_ns[b - 1] (the scheduler's prefix
/// property, so both are bit-equal to a batch-b schedule's values).
struct ScheduleTable {
  std::vector<double> finish_offset_ns;
  std::vector<double> prefix_makespan_ns;
};

std::vector<ScheduleTable> build_schedule_tables(const ServingFabric& fabric,
                                                 std::int64_t max_batch,
                                                 common::ThreadPool* pool) {
  std::vector<ScheduleTable> tables(
      static_cast<std::size_t>(fabric.model_count()));
  common::parallel_for(pool, 0, tables.size(), [&](std::size_t m) {
    reram::ScheduleReport schedule =
        fabric.schedule(static_cast<std::int64_t>(m), max_batch);
    const auto num_layers =
        static_cast<std::int64_t>(schedule.tasks.size()) / max_batch;
    ScheduleTable& table = tables[m];
    table.finish_offset_ns.resize(static_cast<std::size_t>(max_batch));
    for (std::int64_t i = 0; i < max_batch; ++i) {
      table.finish_offset_ns[static_cast<std::size_t>(i)] =
          schedule.task(i, num_layers - 1, num_layers).finish_ns;
    }
    table.prefix_makespan_ns = std::move(schedule.prefix_makespan_ns);
  });
  return tables;
}

}  // namespace

LatencySummary summarize_latencies(std::vector<double> latencies_ms) {
  std::sort(latencies_ms.begin(), latencies_ms.end());
  return summarize_sorted_latencies(latencies_ms);
}

ServingReport simulate(ServingFabric& fabric, const BatchingConfig& batching,
                       const TrafficTrace& trace, common::ThreadPool* pool) {
  OBS_SPAN("serve_simulate");
  batching.validate();
  AUTOHET_CHECK(trace.num_models == fabric.model_count(),
                "trace was generated for a different model count");
  // Checked once here: ingestion and the queue-depth merge below rely on
  // in-range models and non-decreasing arrivals.
  trace.validate();

  const auto num_models = static_cast<std::size_t>(fabric.model_count());
  ServingReport report;
  report.traffic = trace.config;
  report.batching = batching;
  report.tile_capacity = fabric.config().tile_capacity;
  report.eviction = fabric.config().eviction;
  report.scope = fabric.config().scope;
  report.functional = fabric.config().functional;
  report.models.resize(num_models);
  for (std::size_t m = 0; m < num_models; ++m) {
    ModelServingStats& stats = report.models[m];
    stats.network = fabric.model_plan(static_cast<std::int64_t>(m)).network;
    stats.energy_per_request_nj =
        fabric.model_report(static_cast<std::int64_t>(m)).energy.total_nj();
    stats.standalone_tiles =
        fabric.standalone_tiles(static_cast<std::int64_t>(m));
  }
  if (trace.requests.empty()) return report;

  const std::vector<ScheduleTable> tables =
      build_schedule_tables(fabric, batching.max_batch, pool);

  // Counter baselines so a pre-used fabric reports this run's deltas.
  std::vector<std::int64_t> swap_ins_before(num_models);
  std::vector<std::int64_t> evictions_before(num_models);
  for (std::size_t m = 0; m < num_models; ++m) {
    swap_ins_before[m] =
        fabric.swap_in_count(static_cast<std::int64_t>(m));
    evictions_before[m] =
        fabric.eviction_count(static_cast<std::int64_t>(m));
  }

  std::vector<std::deque<Request>> queues(num_models);
  std::vector<std::vector<double>> latencies_ms(num_models);

  std::size_t next = 0;  // next trace request to ingest
  std::int64_t queued = 0;
  double accel_free_ns = 0.0;
  double programming_latency_ns = 0.0;
  double busy_ns = 0.0;
  double last_completion_ns = 0.0;

  const auto ingest_until = [&](double t_ns, bool inclusive) {
    while (next < trace.requests.size() &&
           (inclusive ? trace.requests[next].arrival_ns <= t_ns
                      : trace.requests[next].arrival_ns < t_ns)) {
      const Request& request = trace.requests[next];
      queues[static_cast<std::size_t>(request.model)].push_back(request);
      ++queued;
      ++next;
    }
  };

  // When would queue m's batch dispatch, ignoring future arrivals? Ready at
  // the earlier of "max_batch waiting" and "head timed out", but never
  // before the accelerator frees up.
  const auto dispatch_time = [&](std::size_t m) {
    const std::deque<Request>& queue = queues[m];
    double ready = queue.front().arrival_ns + batching.max_wait_ns;
    if (static_cast<std::int64_t>(queue.size()) >= batching.max_batch) {
      ready = std::min(
          ready,
          queue[static_cast<std::size_t>(batching.max_batch - 1)]
              .arrival_ns);
    }
    return std::max(ready, accel_free_ns);
  };

  while (next < trace.requests.size() || queued > 0) {
    if (queued == 0) {
      ingest_until(trace.requests[next].arrival_ns, /*inclusive=*/true);
      continue;
    }
    // Pick the earliest dispatch; arrivals before it can change the
    // picture (fill a batch earlier), so ingest and recompute until the
    // choice is stable.
    std::size_t best_m = 0;
    double best_t = 0.0;
    for (;;) {
      best_t = std::numeric_limits<double>::infinity();
      for (std::size_t m = 0; m < num_models; ++m) {
        if (queues[m].empty()) continue;
        const double t = dispatch_time(m);
        // Under overload every ready queue ties at accel_free_ns; breaking
        // the tie by model index would starve high-index tenants until the
        // low-index queue drained. Oldest waiting head wins instead.
        const bool wins =
            t < best_t ||
            (t == best_t && queues[m].front().arrival_ns <
                                queues[best_m].front().arrival_ns);
        if (wins) {
          best_t = t;
          best_m = m;
        }
      }
      if (next < trace.requests.size() &&
          trace.requests[next].arrival_ns < best_t) {
        ingest_until(best_t, /*inclusive=*/false);
        continue;
      }
      break;
    }
    // Arrivals at exactly the pickup instant still make the batch.
    ingest_until(best_t, /*inclusive=*/true);

    std::deque<Request>& queue = queues[best_m];
    const auto batch = std::min<std::int64_t>(
        static_cast<std::int64_t>(queue.size()), batching.max_batch);
    const AdmitResult admit =
        fabric.admit(static_cast<std::int64_t>(best_m));
    const double start_ns = best_t + admit.program_latency_ns;
    programming_latency_ns += admit.program_latency_ns;
    report.programming_energy_nj += admit.program_energy_nj;

    const ScheduleTable& table = tables[best_m];
    for (std::int64_t i = 0; i < batch; ++i) {
      const Request request = queue.front();
      queue.pop_front();
      const double finish_ns =
          start_ns + table.finish_offset_ns[static_cast<std::size_t>(i)];
      const double latency_ms = (finish_ns - request.arrival_ns) / 1e6;
      latencies_ms[best_m].push_back(latency_ms);
    }
    queued -= batch;

    const double finish_ns =
        start_ns +
        table.prefix_makespan_ns[static_cast<std::size_t>(batch - 1)];
    accel_free_ns = finish_ns;
    busy_ns += finish_ns - best_t;
    last_completion_ns = std::max(last_completion_ns, finish_ns);
    report.busy_timeline.push_back(
        {best_t, start_ns, finish_ns, static_cast<std::int64_t>(best_m),
         batch});
    ++report.total_batches;
    ++report.models[best_m].batches;
    report.models[best_m].requests += batch;
    OBS_COUNTER_ADD("autohet_serve_batches_total", 1);
    OBS_HIST_RECORD("autohet_serve_batch_size", batch);
  }

  // Queue-depth curve: walk the two time-ordered change lists together —
  // arrivals (trace order, non-decreasing by validate()) and batch pickups
  // (busy_timeline starts, non-decreasing because each pickup waits for
  // the accelerator the previous batch held) — applying every change at
  // one instant before sampling the depth, and integrate.
  const std::vector<Request>& arrivals = trace.requests;
  const std::vector<ServingReport::BusyInterval>& pickups =
      report.busy_timeline;
  const double first_arrival_ns = arrivals.front().arrival_ns;
  double depth_integral = 0.0;
  std::int64_t depth = 0;
  std::int64_t peak = 0;
  double prev_t = first_arrival_ns;
  std::size_t a = 0;
  std::size_t p = 0;
  while (a < arrivals.size() || p < pickups.size()) {
    double t = std::numeric_limits<double>::infinity();
    if (a < arrivals.size()) t = arrivals[a].arrival_ns;
    if (p < pickups.size()) t = std::min(t, pickups[p].start_ns);
    depth_integral += static_cast<double>(depth) * (t - prev_t);
    for (; a < arrivals.size() && arrivals[a].arrival_ns == t; ++a) ++depth;
    for (; p < pickups.size() && pickups[p].start_ns == t; ++p) {
      depth -= pickups[p].batch;
    }
    peak = std::max(peak, depth);
    report.queue_timeline.push_back({t, depth});
    prev_t = t;
  }

  report.total_requests = static_cast<std::int64_t>(trace.requests.size());
  report.first_arrival_ns = first_arrival_ns;
  report.last_completion_ns = last_completion_ns;
  const double span_ns = last_completion_ns - first_arrival_ns;
  report.sim_duration_s = span_ns / 1e9;
  report.sustained_qps =
      span_ns > 0.0
          ? static_cast<double>(report.total_requests) / (span_ns / 1e9)
          : 0.0;
  // Sort each model's latencies once; their merge is the globally sorted
  // sequence, summarized in the same order a full sort would give.
  std::vector<double> all_latencies_ms;
  all_latencies_ms.reserve(trace.requests.size());
  for (std::vector<double>& model_ms : latencies_ms) {
    std::sort(model_ms.begin(), model_ms.end());
    const auto middle = static_cast<std::ptrdiff_t>(all_latencies_ms.size());
    all_latencies_ms.insert(all_latencies_ms.end(), model_ms.begin(),
                            model_ms.end());
    std::inplace_merge(all_latencies_ms.begin(),
                       all_latencies_ms.begin() + middle,
                       all_latencies_ms.end());
  }
  report.latency = summarize_sorted_latencies(all_latencies_ms);
  report.mean_batch = static_cast<double>(report.total_requests) /
                      static_cast<double>(report.total_batches);
  report.peak_queue_depth = peak;
  report.mean_queue_depth = span_ns > 0.0 ? depth_integral / span_ns : 0.0;
  report.accel_busy_fraction = span_ns > 0.0 ? busy_ns / span_ns : 0.0;

  for (std::size_t m = 0; m < num_models; ++m) {
    ModelServingStats& stats = report.models[m];
    stats.swap_ins = fabric.swap_in_count(static_cast<std::int64_t>(m)) -
                     swap_ins_before[m];
    stats.evictions = fabric.eviction_count(static_cast<std::int64_t>(m)) -
                      evictions_before[m];
    stats.mean_batch =
        stats.batches > 0 ? static_cast<double>(stats.requests) /
                                static_cast<double>(stats.batches)
                          : 0.0;
    stats.latency = summarize_sorted_latencies(latencies_ms[m]);
    stats.inference_energy_nj =
        static_cast<double>(stats.requests) * stats.energy_per_request_nj;
    report.swap_ins += stats.swap_ins;
    report.evictions += stats.evictions;
    // Index-ordered sum — exactly reproducible from the per-model stats.
    report.inference_energy_nj += stats.inference_energy_nj;
  }
  report.total_energy_nj =
      report.inference_energy_nj + report.programming_energy_nj;
  report.energy_per_request_nj =
      report.total_energy_nj / static_cast<double>(report.total_requests);

  OBS_COUNTER_ADD("autohet_serve_requests_total", report.total_requests);
  OBS_GAUGE_SET("autohet_serve_peak_queue_depth", report.peak_queue_depth);
  OBS_GAUGE_SET("autohet_serve_sustained_qps", report.sustained_qps);
  return report;
}

void merge_serving_into_trace(const ServingReport& report,
                              obs::Tracer& tracer) {
  if (!tracer.enabled()) return;
  const auto ts = [](double t_ns) {
    return static_cast<std::uint64_t>(std::llround(std::max(0.0, t_ns)));
  };
  for (const ServingReport::TimelinePoint& point : report.queue_timeline) {
    tracer.counter_at("serve_queue_depth", ts(point.t_ns),
                      static_cast<double>(point.queue_depth));
  }
  for (const ServingReport::BusyInterval& interval : report.busy_timeline) {
    if (interval.program_until_ns > interval.start_ns) {
      tracer.counter_at("serve_programming", ts(interval.start_ns), 1.0);
      tracer.counter_at("serve_programming", ts(interval.program_until_ns),
                        0.0);
    }
    tracer.counter_at("serve_active", ts(interval.start_ns), 1.0);
    tracer.counter_at("serve_active", ts(interval.finish_ns), 0.0);
  }
}

}  // namespace autohet::serve
