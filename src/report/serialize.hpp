// Serialization of evaluation artifacts and telemetry, for plotting,
// regression tooling and metric scrapers outside the repo (each bench
// prints human tables; these emitters give machine-readable equivalents).
#pragma once

#include <iosfwd>
#include <string>

#include "mapping/plan.hpp"
#include "obs/metrics.hpp"
#include "reram/stats.hpp"

namespace autohet::report {

/// Deterministic shortest-round-trip rendering of a finite double: the
/// fewest significant digits whose strtod parse is bit-identical to
/// `value`. Keeps serialize → parse → re-serialize byte-identical.
std::string format_double_json(double value);

/// Per-layer CSV: layer, shape, crossbars, adc_instances, tiles, mvms,
/// utilization, energy components, latency; followed by a TOTAL row.
void write_network_report_csv(std::ostream& os,
                              const reram::NetworkReport& report);

/// Prometheus text exposition (format 0.0.4): `# TYPE` lines, counters and
/// gauges as plain samples, histograms as cumulative `_bucket{le="..."}`
/// series (empty log2 buckets are skipped) plus `_sum`/`_count`.
void write_metrics_prometheus(std::ostream& os,
                              const obs::MetricsSnapshot& snapshot);

/// The same snapshot as one JSON object:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {"buckets":
/// [{"le": ..., "count": ...}], "count": ..., "sum": ...}}}.
void write_metrics_json(std::ostream& os,
                        const obs::MetricsSnapshot& snapshot);

/// One compiled DeploymentPlan as a JSON document (schema in DESIGN.md,
/// "Compile/deploy split"). Deterministic: fixed key order, shortest
/// round-trip doubles, 64-bit ids (fault fingerprint, fault seed) as
/// decimal strings — so serialize → parse → re-serialize is byte-identical.
void write_plan_json(std::ostream& os, const plan::DeploymentPlan& plan);

/// Parses a plan JSON document (as written by write_plan_json) and
/// validates the result; throws std::invalid_argument on malformed JSON,
/// schema violations, or a plan that fails DeploymentPlan::validate().
plan::DeploymentPlan read_plan_json(const std::string& text);

/// One NetworkReport as a JSON document with every field rendered via the
/// round-trip double format — the byte-comparable replay artifact of the
/// plan round-trip CI smoke.
void write_network_report_json(std::ostream& os,
                               const reram::NetworkReport& report);

}  // namespace autohet::report
