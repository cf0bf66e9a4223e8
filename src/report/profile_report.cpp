#include "report/profile_report.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"
#include "report/serialize.hpp"
#include "report/table.hpp"

namespace autohet::report {

namespace {

const char* classify_bottleneck(const reram::LayerLatencyTerms& t) {
  // Roofline-style classification of the per-MVM latency: the dominant
  // term wins; ties resolve compute > adc > noc so the label is stable.
  const double noc = t.noc_ns();
  if (t.compute_ns >= t.adc_ns && t.compute_ns >= noc) return "compute";
  if (t.adc_ns >= noc) return "adc";
  return "noc";
}

void write_energy_fields(std::ostream& os, const reram::EnergyBreakdown& e) {
  os << "{\"adc\": " << format_double_json(e.adc_nj)
     << ", \"dac\": " << format_double_json(e.dac_nj)
     << ", \"cell\": " << format_double_json(e.cell_nj)
     << ", \"shift_add\": " << format_double_json(e.shift_add_nj)
     << ", \"buffer\": " << format_double_json(e.buffer_nj)
     << ", \"total\": " << format_double_json(e.total_nj()) << "}";
}

}  // namespace

PlanProfile build_plan_profile(const plan::DeploymentPlan& plan,
                               const reram::NetworkReport& report,
                               const reram::ScheduleReport& schedule,
                               const obs::ProfileSnapshot& recorded,
                               std::int64_t batch) {
  const std::size_t n = plan.layers.size();
  AUTOHET_CHECK(report.layers.size() == n,
                "report does not match the plan's layer count");
  PlanProfile profile;
  profile.network = plan.network;
  profile.batch = batch;
  profile.totals = report;
  profile.makespan_ns = schedule.makespan_ns;
  profile.steady_throughput = schedule.steady_throughput_inferences_per_s;
  profile.plan_evals = recorded.total(obs::ProfileKind::kPlanEval);
  profile.analytic_layer_evals =
      recorded.total(obs::ProfileKind::kAnalyticEval);
  profile.mc_trials = recorded.total(obs::ProfileKind::kMcTrial);
  profile.mvms_executed = recorded.total(obs::ProfileKind::kFunctionalMvm);
  profile.program_writes = recorded.total(obs::ProfileKind::kProgramWrite);

  // Busy time per stage from the schedule's task grid.
  std::vector<double> busy(n, 0.0);
  for (const reram::TaskTiming& t : schedule.tasks) {
    if (t.layer >= 0 && static_cast<std::size_t>(t.layer) < n) {
      busy[static_cast<std::size_t>(t.layer)] += t.finish_ns - t.start_ns;
    }
  }

  const double total_energy = report.energy.total_nj();
  profile.layers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const reram::LayerReport& lr = report.layers[i];
    const mapping::LayerAllocation& alloc = plan.allocation.layers[i];
    LayerProfile lp;
    lp.layer = static_cast<std::int64_t>(i);
    lp.shape = lr.shape.name();
    lp.tiles = lr.tiles;
    lp.crossbars = lr.logical_crossbars;
    lp.utilization = lr.utilization;
    lp.mvms_analytic = lr.mvm_invocations;
    lp.mvms_executed = recorded.layer_total(
        obs::ProfileKind::kFunctionalMvm, static_cast<std::int64_t>(i));
    lp.program_writes = recorded.layer_total(
        obs::ProfileKind::kProgramWrite, static_cast<std::int64_t>(i));
    for (const obs::ProfileRecord& r : recorded.records) {
      if (r.kind == obs::ProfileKind::kProgramWrite &&
          r.layer == static_cast<std::int64_t>(i)) {
        lp.crossbar_activity.push_back(CrossbarActivity{r.unit, r.value});
      }
    }
    lp.energy = lr.energy;
    lp.energy_share =
        total_energy > 0.0 ? lr.energy.total_nj() / total_energy : 0.0;
    lp.latency_ns = lr.latency_ns;
    lp.latency_terms = reram::layer_latency_terms(
        alloc.mapping, alloc.tiles_allocated, plan.accel.device);
    lp.bottleneck = classify_bottleneck(lp.latency_terms);
    lp.busy_ns = busy[i];
    lp.busy_fraction =
        schedule.makespan_ns > 0.0 ? busy[i] / schedule.makespan_ns : 0.0;
    profile.layers.push_back(std::move(lp));
  }

  // Tile attribution: walk the frozen tile table in order, handing each
  // occupant layer its next run of layer-local crossbar indices. This
  // follows the allocator's sequential placement (and tile-sharing moves
  // whole runs), so per-tile write attribution matches the per-layer
  // crossbar_activity indices.
  std::vector<std::int64_t> next_xb(n, 0);
  profile.tiles.reserve(plan.allocation.tiles.size());
  for (const mapping::Tile& tile : plan.allocation.tiles) {
    TileProfile tp;
    tp.tile = tile.id;
    tp.shape = tile.shape.name();
    tp.empty_crossbars = tile.empty_xbs;
    tp.released = tile.released;
    for (std::size_t j = 0; j < tile.layer_ids.size(); ++j) {
      TileOccupant occ;
      occ.layer = tile.layer_ids[j];
      occ.crossbars =
          j < tile.layer_xbs.size() ? tile.layer_xbs[j] : 0;
      if (occ.layer >= 0 && static_cast<std::size_t>(occ.layer) < n) {
        const auto li = static_cast<std::size_t>(occ.layer);
        const reram::LayerReport& lr = report.layers[li];
        if (lr.logical_crossbars > 0) {
          occ.energy_nj = lr.energy.total_nj() *
                          (static_cast<double>(occ.crossbars) /
                           static_cast<double>(lr.logical_crossbars));
        }
        const std::int64_t first = next_xb[li];
        for (std::int64_t xb = first; xb < first + occ.crossbars; ++xb) {
          occ.program_writes += recorded.value(
              obs::ProfileKind::kProgramWrite, occ.layer, xb);
        }
        next_xb[li] = first + occ.crossbars;
        tp.busy_ns = std::max(tp.busy_ns, profile.layers[li].busy_ns);
      }
      tp.energy_nj += occ.energy_nj;
      tp.occupants.push_back(std::move(occ));
    }
    profile.tiles.push_back(std::move(tp));
  }

  // Occupancy timeline: +1 at each task start, -1 at each finish; at equal
  // timestamps finishes apply before starts so back-to-back stages never
  // double-count. Coalesce simultaneous events into one point.
  std::vector<std::pair<double, int>> events;
  events.reserve(schedule.tasks.size() * 2);
  for (const reram::TaskTiming& t : schedule.tasks) {
    events.emplace_back(t.start_ns, +1);
    events.emplace_back(t.finish_ns, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  std::int64_t active = 0;
  for (std::size_t e = 0; e < events.size();) {
    const double t = events[e].first;
    while (e < events.size() && events[e].first == t) {
      active += events[e].second;
      ++e;
    }
    profile.timeline.push_back(TimelinePoint{t, active});
  }
  return profile;
}

void write_profile_json(std::ostream& os, const PlanProfile& profile) {
  os << "{\n";
  os << "  \"format\": \"autohet-profile\",\n";
  os << "  \"version\": 1,\n";
  os << "  \"network\": \"" << json_escape(profile.network) << "\",\n";
  os << "  \"batch\": " << profile.batch << ",\n";

  const reram::NetworkReport& r = profile.totals;
  os << "  \"totals\": {\n";
  os << "    \"energy_nj\": ";
  write_energy_fields(os, r.energy);
  os << ",\n";
  os << "    \"latency_ns\": " << format_double_json(r.latency_ns) << ",\n";
  os << "    \"utilization\": " << format_double_json(r.utilization)
     << ",\n";
  os << "    \"occupied_tiles\": " << r.occupied_tiles << ",\n";
  os << "    \"empty_crossbars\": " << r.empty_crossbars << ",\n";
  os << "    \"fault_vulnerability\": "
     << format_double_json(r.fault_vulnerability) << ",\n";
  os << "    \"rue\": " << format_double_json(r.rue()) << "\n";
  os << "  },\n";

  os << "  \"schedule\": {\"makespan_ns\": "
     << format_double_json(profile.makespan_ns)
     << ", \"steady_throughput_inferences_per_s\": "
     << format_double_json(profile.steady_throughput) << "},\n";

  os << "  \"counters\": {\"plan_evals\": " << profile.plan_evals
     << ", \"analytic_layer_evals\": " << profile.analytic_layer_evals
     << ", \"mc_trials\": " << profile.mc_trials
     << ", \"functional_mvms\": " << profile.mvms_executed
     << ", \"program_writes\": " << profile.program_writes << "},\n";

  os << "  \"layers\": [\n";
  for (std::size_t i = 0; i < profile.layers.size(); ++i) {
    const LayerProfile& l = profile.layers[i];
    os << "    {\"layer\": " << l.layer << ", \"shape\": \""
       << json_escape(l.shape) << "\", \"tiles\": " << l.tiles
       << ", \"crossbars\": " << l.crossbars
       << ", \"utilization\": " << format_double_json(l.utilization)
       << ",\n     \"mvms_analytic\": " << l.mvms_analytic
       << ", \"mvms_executed\": " << l.mvms_executed
       << ", \"program_writes\": " << l.program_writes
       << ",\n     \"energy_nj\": ";
    write_energy_fields(os, l.energy);
    os << ", \"energy_share\": " << format_double_json(l.energy_share)
       << ",\n     \"latency_ns\": " << format_double_json(l.latency_ns)
       << ", \"latency_terms_ns\": {\"compute\": "
       << format_double_json(l.latency_terms.compute_ns)
       << ", \"adc\": " << format_double_json(l.latency_terms.adc_ns)
       << ", \"merge\": " << format_double_json(l.latency_terms.merge_ns)
       << ", \"bus\": " << format_double_json(l.latency_terms.bus_ns)
       << "}, \"bottleneck\": \"" << l.bottleneck
       << "\",\n     \"busy_ns\": " << format_double_json(l.busy_ns)
       << ", \"busy_fraction\": " << format_double_json(l.busy_fraction)
       << ",\n     \"crossbar_program_writes\": [";
    for (std::size_t k = 0; k < l.crossbar_activity.size(); ++k) {
      if (k != 0) os << ", ";
      os << "[" << l.crossbar_activity[k].crossbar << ", "
         << l.crossbar_activity[k].program_writes << "]";
    }
    os << "]}";
    os << (i + 1 < profile.layers.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  os << "  \"tiles\": [\n";
  for (std::size_t i = 0; i < profile.tiles.size(); ++i) {
    const TileProfile& t = profile.tiles[i];
    os << "    {\"tile\": " << t.tile << ", \"shape\": \""
       << json_escape(t.shape)
       << "\", \"empty_crossbars\": " << t.empty_crossbars
       << ", \"released\": " << (t.released ? "true" : "false")
       << ", \"energy_nj\": " << format_double_json(t.energy_nj)
       << ", \"busy_ns\": " << format_double_json(t.busy_ns)
       << ", \"occupants\": [";
    for (std::size_t j = 0; j < t.occupants.size(); ++j) {
      const TileOccupant& o = t.occupants[j];
      if (j != 0) os << ", ";
      os << "{\"layer\": " << o.layer << ", \"crossbars\": " << o.crossbars
         << ", \"energy_nj\": " << format_double_json(o.energy_nj)
         << ", \"program_writes\": " << o.program_writes << "}";
    }
    os << "]}";
    os << (i + 1 < profile.tiles.size() ? ",\n" : "\n");
  }
  os << "  ],\n";

  os << "  \"timeline\": [";
  for (std::size_t i = 0; i < profile.timeline.size(); ++i) {
    if (i != 0) os << ", ";
    os << "[" << format_double_json(profile.timeline[i].t_ns) << ", "
       << profile.timeline[i].active << "]";
  }
  os << "]\n";
  os << "}\n";
}

void write_profile_records_json(std::ostream& os,
                                const obs::ProfileSnapshot& snapshot) {
  os << "{\n";
  os << "  \"format\": \"autohet-profile-records\",\n";
  os << "  \"version\": 1,\n";
  os << "  \"records\": [\n";
  for (std::size_t i = 0; i < snapshot.records.size(); ++i) {
    const obs::ProfileRecord& r = snapshot.records[i];
    os << "    {\"kind\": \"" << obs::profile_kind_name(r.kind)
       << "\", \"layer\": " << r.layer << ", \"unit\": " << r.unit
       << ", \"value\": " << r.value << "}";
    os << (i + 1 < snapshot.records.size() ? ",\n" : "\n");
  }
  os << "  ]\n";
  os << "}\n";
}

void print_hotspot_table(std::ostream& os, const PlanProfile& profile,
                         int top_n) {
  std::vector<std::size_t> order(profile.layers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ea = profile.layers[a].energy.total_nj();
    const double eb = profile.layers[b].energy.total_nj();
    if (ea != eb) return ea > eb;
    return a < b;  // stable, deterministic tie-break
  });
  if (top_n > 0 && static_cast<std::size_t>(top_n) < order.size()) {
    order.resize(static_cast<std::size_t>(top_n));
  }

  Table table({"layer", "shape", "tiles", "util%", "energy_nj", "share%",
               "latency_ns", "busy%", "bound", "mvms", "writes"});
  for (std::size_t i : order) {
    const LayerProfile& l = profile.layers[i];
    table.add_row({std::to_string(l.layer), l.shape,
                   std::to_string(l.tiles),
                   format_fixed(l.utilization * 100.0, 1),
                   format_fixed(l.energy.total_nj(), 2),
                   format_fixed(l.energy_share * 100.0, 1),
                   format_fixed(l.latency_ns, 1),
                   format_fixed(l.busy_fraction * 100.0, 1), l.bottleneck,
                   std::to_string(l.mvms_executed),
                   std::to_string(l.program_writes)});
  }
  os << "==== hotspots: " << profile.network << " (top "
     << order.size() << " of " << profile.layers.size()
     << " layers by energy) ====\n";
  table.print(os);
  os << "total energy " << format_fixed(profile.totals.energy.total_nj(), 2)
     << " nJ, latency " << format_fixed(profile.totals.latency_ns, 1)
     << " ns, makespan(batch " << profile.batch << ") "
     << format_fixed(profile.makespan_ns, 1) << " ns, utilization "
     << format_fixed(profile.totals.utilization * 100.0, 1) << "%\n";
}

void merge_profile_into_trace(const PlanProfile& profile) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) return;
  // Simulated-time occupancy track: how many pipeline stages are busy at
  // each schedule timestamp. Lives on the same trace timeline as the
  // wall-clock spans (distinguished by its name).
  for (const TimelinePoint& p : profile.timeline) {
    const double ns = std::max(0.0, p.t_ns);
    tracer.counter_at("plan_occupancy_active_stages",
                      static_cast<std::uint64_t>(std::llround(ns)),
                      static_cast<double>(p.active));
  }
}

}  // namespace autohet::report
