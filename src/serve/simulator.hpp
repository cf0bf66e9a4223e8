// Discrete-event multi-tenant serving simulation.
//
// The simulator replays a TrafficTrace against a ServingFabric in simulated
// time: requests queue per model, an admission/batching policy forms batches
// (dispatch when max_batch requests are waiting or the oldest has waited
// max_wait), and each dispatched batch occupies the single accelerator for
// the makespan the existing batch scheduler (reram/scheduler.hpp) derives
// from the schedule inputs the fabric read off the model's validated plan
// (ServingFabric::schedule) — a non-resident model first pays the
// fabric's programming latency. Per-request completion times come from the
// schedule's per-image finish offsets, so the latency distribution reflects
// real pipeline fill/drain behaviour, not an average.
//
// Determinism is the core contract: every quantity in the ServingReport is
// a pure function of (plans, config, trace). The only parallelism is the
// precomputation of one max_batch schedule per model (every smaller batch
// is its prefix) and of per-model reports — pure functions stored by
// index — so `threads` changes wall time, never a byte of output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "mapping/plan.hpp"
#include "obs/trace.hpp"
#include "serve/fabric.hpp"
#include "serve/traffic.hpp"

namespace autohet::serve {

struct BatchingConfig {
  std::int64_t max_batch = 8;
  /// Longest a queued request may wait before its model's batch dispatches
  /// anyway (simulated nanoseconds).
  double max_wait_ns = 200'000.0;

  void validate() const;
};

struct LatencySummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

/// Nearest-rank percentile over an ascending-sorted sample vector.
double percentile(const std::vector<double>& sorted_values, double p);
LatencySummary summarize_latencies(std::vector<double> latencies_ms);

struct ModelServingStats {
  std::string network;
  std::int64_t requests = 0;
  std::int64_t batches = 0;
  std::int64_t swap_ins = 0;
  std::int64_t evictions = 0;
  double mean_batch = 0.0;
  LatencySummary latency;
  double energy_per_request_nj = 0.0;  ///< per-inference plan energy
  double inference_energy_nj = 0.0;    ///< requests * energy_per_request_nj
  std::int64_t standalone_tiles = 0;
};

struct ServingReport {
  // Config echo (written to JSON so a report is self-describing).
  TrafficConfig traffic;
  BatchingConfig batching;
  std::int64_t tile_capacity = 0;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  mapping::SharingScope scope = mapping::SharingScope::kCrossModel;
  bool functional = false;

  std::int64_t total_requests = 0;
  std::int64_t total_batches = 0;
  std::int64_t swap_ins = 0;    ///< programming events, cold loads included
  std::int64_t evictions = 0;
  double first_arrival_ns = 0.0;
  double last_completion_ns = 0.0;
  double sim_duration_s = 0.0;  ///< first arrival to last completion
  double sustained_qps = 0.0;   ///< total_requests / sim_duration_s
  LatencySummary latency;
  double mean_batch = 0.0;
  std::int64_t peak_queue_depth = 0;
  double mean_queue_depth = 0.0;  ///< time-weighted over the sim span
  double accel_busy_fraction = 0.0;  ///< programming + inference time
  /// Inference energy is the index-ordered sum of requests * per-request
  /// plan energy, so external checkers can reproduce it exactly from the
  /// per-model stats; programming energy is kept separate.
  double inference_energy_nj = 0.0;
  double programming_energy_nj = 0.0;
  double total_energy_nj = 0.0;
  double energy_per_request_nj = 0.0;
  std::vector<ModelServingStats> models;

  /// Simulated-time activity curve for the Chrome-trace timeline: queue
  /// depth after each change, and accelerator busy 0/1 edges.
  struct TimelinePoint {
    double t_ns = 0.0;
    std::int64_t queue_depth = 0;
  };
  std::vector<TimelinePoint> queue_timeline;
  struct BusyInterval {
    double start_ns = 0.0;
    double program_until_ns = 0.0;  ///< swap-programming portion, = start
                                    ///< when the batch hit a resident model
    double finish_ns = 0.0;
    std::int64_t model = 0;
    std::int64_t batch = 0;
  };
  std::vector<BusyInterval> busy_timeline;
};

/// Runs the trace against an existing fabric. The trace must pass
/// TrafficTrace::validate() (checked on entry). `pool` (optional)
/// parallelizes the per-model schedule precompute; output is
/// byte-identical for every pool size.
ServingReport simulate(ServingFabric& fabric, const BatchingConfig& batching,
                       const TrafficTrace& trace,
                       common::ThreadPool* pool = nullptr);

/// Emits the report's simulated-time activity onto the tracer as counter
/// tracks (`serve_queue_depth`, `serve_active`, `serve_programming`),
/// giving the Chrome-trace timeline of the whole serving run.
void merge_serving_into_trace(const ServingReport& report,
                              obs::Tracer& tracer);

}  // namespace autohet::serve
