// Observability session: CLI flags -> sinks -> output files.
//
// Drivers (autohet_cli and the bench binaries) register the standard flags
// on their ArgParser, build an ObsSession from the parsed args in main's
// scope, and let the session's destructor write the configured outputs:
//
//   common::ArgParser args(...);
//   obs::add_cli_options(args);
//   ...parse...
//   obs::ObsSession session(args);
//   // --log-level is applied, --trace-out enables the tracer, --metrics-out
//   // enables latency timers; files are written when `session` dies (or on
//   // an explicit session.flush()).
//
// Header-only so the obs core library stays free of dependencies on
// common/cli and report/serialize (which sit above it in the link order).
#pragma once

#include <fstream>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "report/profile_report.hpp"
#include "report/serialize.hpp"

namespace autohet::obs {

struct Options {
  std::string metrics_out;  ///< exposition path; ".json" suffix => JSON
  std::string trace_out;    ///< Chrome trace_event JSON path
  std::string episode_log;  ///< per-episode JSONL path
  std::string profile_out;  ///< attribution-profiler JSON path
  std::string log_level;    ///< debug|info|warn|error|off; empty = keep
};

/// Registers --metrics-out, --trace-out, --episode-log, --profile-out,
/// --log-level.
inline void add_cli_options(common::ArgParser& args) {
  args.add_option("metrics-out", "",
                  "write a metrics exposition here on exit (Prometheus text; "
                  "a .json suffix selects JSON)");
  args.add_option("trace-out", "",
                  "write Chrome trace_event JSON here on exit (load in "
                  "chrome://tracing or ui.perfetto.dev)");
  args.add_option("episode-log", "",
                  "write per-episode search telemetry as JSON lines");
  args.add_option("profile-out", "",
                  "enable the attribution profiler and write its JSON here "
                  "on exit (the profile subcommand writes the full per-plan "
                  "report instead)");
  args.add_option("log-level", "",
                  "minimum log level: debug|info|warn|error|off");
}

inline Options options_from_cli(const common::ArgParser& args) {
  Options opts;
  opts.metrics_out = args.option("metrics-out");
  opts.trace_out = args.option("trace-out");
  opts.episode_log = args.option("episode-log");
  opts.profile_out = args.option("profile-out");
  opts.log_level = args.option("log-level");
  return opts;
}

/// Applies the options to the global sinks and writes the output files on
/// destruction (or an explicit flush()). With all paths empty this is a
/// no-op shell: the tracer stays a null sink and nothing is written.
class ObsSession {
 public:
  ObsSession() = default;
  explicit ObsSession(const Options& opts) { configure(opts); }
  explicit ObsSession(const common::ArgParser& args)
      : ObsSession(options_from_cli(args)) {}
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;
  ~ObsSession() {
    try {
      flush();
    } catch (...) {
      // Destructors must not throw; a failed flush loses telemetry only.
    }
  }

  /// Throws std::invalid_argument on an unknown --log-level string.
  void configure(const Options& opts) {
    if (!opts.log_level.empty()) {
      common::LogLevel level;
      AUTOHET_CHECK(common::parse_log_level(opts.log_level, &level),
                    "bad --log-level '" + opts.log_level +
                        "' (use debug|info|warn|error|off)");
      common::set_log_level(level);
    }
    metrics_out_ = opts.metrics_out;
    trace_out_ = opts.trace_out;
    profile_out_ = opts.profile_out;
    if (!metrics_out_.empty()) set_metrics_enabled(true);
    if (!trace_out_.empty()) Tracer::global().enable();
    if (!profile_out_.empty()) Profiler::global().enable();
    if (!opts.episode_log.empty()) EventLog::global().open(opts.episode_log);
  }

  /// Claims the --profile-out path: returns it and prevents flush() from
  /// writing the generic raw-records file there. The profile subcommand
  /// uses this to write the full per-plan report to the same path instead.
  std::string take_profile_out() {
    std::string path = profile_out_;
    profile_out_.clear();
    return path;
  }

  /// Writes the configured outputs now. Idempotent: each path is written
  /// at most once per configure().
  void flush() {
    // Account trace-ring overflow before the metrics snapshot below so the
    // counter reaches the exposition file. flush() runs both explicitly and
    // from the destructor, so only the delta since the last flush is added.
    const std::uint64_t dropped = Tracer::global().dropped_events();
    if (dropped > dropped_accounted_) {
      Registry::global()
          .counter("autohet_trace_dropped_events")
          .add(dropped - dropped_accounted_);
      common::log_warn("trace ring overflow: ", dropped - dropped_accounted_,
                       " events dropped (raise span granularity or flush "
                       "more often)");
      dropped_accounted_ = dropped;
    }
    if (!metrics_out_.empty()) {
      std::ofstream file(metrics_out_);
      AUTOHET_CHECK(file.good(), "cannot open metrics file: " + metrics_out_);
      const MetricsSnapshot snap = Registry::global().snapshot();
      if (metrics_out_.ends_with(".json")) {
        report::write_metrics_json(file, snap);
      } else {
        report::write_metrics_prometheus(file, snap);
      }
      metrics_out_.clear();
    }
    if (!trace_out_.empty()) {
      std::ofstream file(trace_out_);
      AUTOHET_CHECK(file.good(), "cannot open trace file: " + trace_out_);
      Tracer::global().write_chrome_trace(file);
      trace_out_.clear();
    }
    if (!profile_out_.empty()) {
      std::ofstream file(profile_out_);
      AUTOHET_CHECK(file.good(), "cannot open profile file: " + profile_out_);
      report::write_profile_records_json(file, Profiler::global().snapshot());
      profile_out_.clear();
    }
    EventLog::global().close();
  }

 private:
  std::string metrics_out_;
  std::string trace_out_;
  std::string profile_out_;
  std::uint64_t dropped_accounted_ = 0;
};

}  // namespace autohet::obs
