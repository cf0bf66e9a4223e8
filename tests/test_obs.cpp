// Tests for the observability layer (src/obs): histogram bucketing, the
// thread-sharded registry, span nesting, the Chrome-trace writer, the
// exposition formats, the CLI plumbing, and the disabled-by-default
// bit-identity contract.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "mapping/plan.hpp"
#include "report/serialize.hpp"

namespace {

using namespace autohet;

// ---------------------------------------------------------------- metrics --

TEST(Histogram, BucketBoundariesAreLogTwo) {
  // Bucket 0 holds exactly the value 0; bucket b >= 1 holds [2^(b-1), 2^b-1].
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_index(7), 3u);
  EXPECT_EQ(obs::Histogram::bucket_index(8), 4u);
  EXPECT_EQ(obs::Histogram::bucket_index(~std::uint64_t{0}), 64u);

  EXPECT_EQ(obs::Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(obs::Histogram::bucket_upper_bound(64), ~std::uint64_t{0});

  // Every value lands in the bucket whose range contains it.
  for (std::size_t b = 1; b < 10; ++b) {
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    const std::uint64_t hi = obs::Histogram::bucket_upper_bound(b);
    EXPECT_EQ(obs::Histogram::bucket_index(lo), b);
    EXPECT_EQ(obs::Histogram::bucket_index(hi), b);
  }
}

TEST(Histogram, RecordAccumulatesCountSumAndBuckets) {
  obs::Histogram hist;
  hist.record(0);
  hist.record(1);
  hist.record(5);
  hist.record(5);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(hist.sum(), 11u);
  const auto buckets = hist.buckets();
  EXPECT_EQ(buckets[0], 1u);  // value 0
  EXPECT_EQ(buckets[1], 1u);  // value 1
  EXPECT_EQ(buckets[3], 2u);  // values in [4, 7]
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0u);
}

TEST(Metrics, ShardedCounterMatchesSerialTotal) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Metrics, ShardedHistogramMatchesSerialTotal) {
  obs::Histogram hist;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) hist.record(3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  EXPECT_EQ(hist.sum(), 3 * kThreads * kPerThread);
  EXPECT_EQ(hist.buckets()[2], kThreads * kPerThread);
}

TEST(Metrics, GaugeRoundTripsDoubles) {
  obs::Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(-12.375);
  EXPECT_EQ(gauge.value(), -12.375);
}

TEST(Metrics, RegistryReturnsStableReferencesAndSnapshots) {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& c1 = reg.counter("test_registry_counter");
  obs::Counter& c2 = reg.counter("test_registry_counter");
  EXPECT_EQ(&c1, &c2);
  c1.reset();
  c1.add(7);
  reg.gauge("test_registry_gauge").set(2.5);
  reg.histogram("test_registry_hist").record(9);

  const obs::MetricsSnapshot snap = reg.snapshot();
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const auto& c : snap.counters) {
    if (c.name == "test_registry_counter") {
      saw_counter = true;
      EXPECT_EQ(c.value, 7u);
    }
  }
  for (const auto& g : snap.gauges) {
    if (g.name == "test_registry_gauge") {
      saw_gauge = true;
      EXPECT_EQ(g.value, 2.5);
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "test_registry_hist") {
      saw_hist = true;
      EXPECT_GE(h.count, 1u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

// ----------------------------------------------------------------- tracer --

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::global().clear_for_testing();
    obs::Tracer::global().enable();
  }
  void TearDown() override {
    obs::Tracer::global().disable();
    obs::Tracer::global().clear_for_testing();
  }
};

TEST_F(TracerTest, NestedSpansRecordDepthAndContainment) {
  {
    obs::ScopedSpan outer("outer_span");
    {
      obs::ScopedSpan inner("inner_span");
    }
  }
  const auto events = obs::Tracer::global().snapshot_events();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "outer_span") outer = &ev;
    if (std::string(ev.name) == "inner_span") inner = &ev;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(outer->ph, 'X');
  // Temporal containment: inner starts no earlier and ends no later.
  EXPECT_GE(inner->ts_ns, outer->ts_ns);
  EXPECT_LE(inner->ts_ns + inner->dur_ns, outer->ts_ns + outer->dur_ns);
  // Sorted view puts the enclosing span first.
  std::size_t outer_pos = 0, inner_pos = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (&events[i] == outer) outer_pos = i;
    if (&events[i] == inner) inner_pos = i;
  }
  EXPECT_LT(outer_pos, inner_pos);
}

TEST_F(TracerTest, DisabledSpansRecordNothing) {
  obs::Tracer::global().disable();
  {
    obs::ScopedSpan span("invisible");
  }
  EXPECT_TRUE(obs::Tracer::global().snapshot_events().empty());
}

TEST_F(TracerTest, CounterEventsCarryValues) {
  obs::Tracer::global().counter("test_counter_track", 42.0);
  const auto events = obs::Tracer::global().snapshot_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ph, 'C');
  EXPECT_EQ(events[0].value, 42.0);
}

/// Minimal structural JSON validator: checks quoting/escapes and that
/// braces/brackets balance. Enough to guarantee a JSON parser will not
/// reject the document for nesting errors.
bool json_brackets_balance(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return stack.empty() && !in_string;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST_F(TracerTest, ChromeTraceJsonRoundTrips) {
  {
    obs::ScopedSpan outer("rt_outer");
    obs::ScopedSpan inner("rt_inner");
  }
  obs::Tracer::global().counter("rt_track", 1.5);
  std::ostringstream oss;
  obs::Tracer::global().write_chrome_trace(oss);
  const std::string json = oss.str();

  EXPECT_TRUE(json_brackets_balance(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"rt_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"rt_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"rt_track\""), std::string::npos);
  // Every event is either process metadata ('M'), a complete span ('X'),
  // or a counter sample ('C') — there are no unmatched B/E pairs by
  // construction. Two spans + one counter + one metadata row here.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"C\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"M\""), 1u);
  // Each complete span carries a duration.
  EXPECT_EQ(count_occurrences(json, "\"dur\":"), 2u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"E\""), 0u);
}

TEST_F(TracerTest, SpansFromMultipleThreadsKeepTheirThreadIds) {
  std::thread t1([] { obs::ScopedSpan span("thread_span"); });
  std::thread t2([] { obs::ScopedSpan span("thread_span"); });
  t1.join();
  t2.join();
  const auto events = obs::Tracer::global().snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST_F(TracerTest, CounterAtRecordsExplicitSimulatedTimestamp) {
  // counter_at() stamps the caller-supplied (simulated) time instead of the
  // wall clock, so schedule-occupancy tracks land at their model timestamps.
  obs::Tracer::global().counter_at("sim_track", 123456789, 3.0);
  obs::Tracer::global().counter_at("sim_track", 987654321, 0.0);
  const auto events = obs::Tracer::global().snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, 'C');
  EXPECT_EQ(events[0].ts_ns, 123456789u);
  EXPECT_EQ(events[0].value, 3.0);
  EXPECT_EQ(events[1].ts_ns, 987654321u);
  EXPECT_EQ(events[1].value, 0.0);
}

// ------------------------------------------------------------- exposition --

TEST(Exposition, PrometheusTextContainsTypedSeries) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"demo_total", 3});
  snap.gauges.push_back({"demo_gauge", 1.5});
  obs::MetricsSnapshot::HistogramSample h;
  h.name = "demo_latency_ns";
  h.buckets[0] = 1;  // one zero-valued sample
  h.buckets[2] = 2;  // two samples in [2, 3]
  h.count = 3;
  h.sum = 6;
  snap.histograms.push_back(h);

  std::ostringstream oss;
  report::write_metrics_prometheus(oss, snap);
  const std::string text = oss.str();
  EXPECT_NE(text.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("demo_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_latency_ns histogram"), std::string::npos);
  // Buckets are cumulative: the le="3" bucket includes the zero bucket.
  EXPECT_NE(text.find("demo_latency_ns_bucket{le=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("demo_latency_ns_bucket{le=\"3\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("demo_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("demo_latency_ns_sum 6"), std::string::npos);
  EXPECT_NE(text.find("demo_latency_ns_count 3"), std::string::npos);
}

TEST(Exposition, JsonFormIsStructurallyValid) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"demo_total", 3});
  obs::MetricsSnapshot::HistogramSample h;
  h.name = "demo_hist";
  h.buckets[1] = 4;
  h.count = 4;
  h.sum = 4;
  snap.histograms.push_back(h);

  std::ostringstream oss;
  report::write_metrics_json(oss, snap);
  const std::string json = oss.str();
  EXPECT_TRUE(json_brackets_balance(json)) << json;
  EXPECT_NE(json.find("\"demo_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"demo_hist\""), std::string::npos);
  EXPECT_NE(json.find("{\"le\": 1, \"count\": 4}"), std::string::npos);
}

TEST(Exposition, JsonHistogramTerminatesWithInfBucket) {
  obs::MetricsSnapshot snap;
  obs::MetricsSnapshot::HistogramSample h;
  h.name = "demo_hist";
  h.buckets[0] = 1;
  h.buckets[3] = 2;
  h.count = 3;
  h.sum = 10;
  snap.histograms.push_back(h);

  std::ostringstream oss;
  report::write_metrics_json(oss, snap);
  const std::string json = oss.str();
  EXPECT_TRUE(json_brackets_balance(json)) << json;
  // The bucket list mirrors the Prometheus exposition: it is terminated by
  // an explicit +Inf bucket carrying the cumulative sample count, so a
  // consumer can recover the total without knowing the bucket layout.
  const std::string inf_bucket = "{\"le\": \"+Inf\", \"count\": 3}";
  const auto pos = json.find(inf_bucket);
  ASSERT_NE(pos, std::string::npos) << json;
  EXPECT_EQ(json.find("{\"le\":", pos + 1), std::string::npos)
      << "+Inf must be the last bucket";
}

TEST(Exposition, PrometheusAndJsonAgreeOnRecordedHistogram) {
  // Round-trip: record through the real sharded histogram, then render both
  // exposition formats and check they describe the same distribution.
  obs::Histogram hist;
  hist.record(0);
  hist.record(6);
  hist.record(6);
  hist.record(1u << 20);

  obs::MetricsSnapshot snap;
  obs::MetricsSnapshot::HistogramSample h;
  h.name = "roundtrip_ns";
  h.buckets = hist.buckets();
  h.count = hist.count();
  h.sum = hist.sum();
  snap.histograms.push_back(h);

  std::ostringstream prom_os;
  report::write_metrics_prometheus(prom_os, snap);
  const std::string prom = prom_os.str();
  std::ostringstream json_os;
  report::write_metrics_json(json_os, snap);
  const std::string json = json_os.str();

  // Both expositions carry the same cumulative +Inf count and total sum.
  EXPECT_NE(prom.find("roundtrip_ns_bucket{le=\"+Inf\"} 4"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("roundtrip_ns_sum " + std::to_string(hist.sum())),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("roundtrip_ns_count 4"), std::string::npos) << prom;
  EXPECT_NE(json.find("{\"le\": \"+Inf\", \"count\": 4}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\": 4, \"sum\": " + std::to_string(hist.sum())),
            std::string::npos)
      << json;
}

// -------------------------------------------------------- CLI and session --

TEST(ObsCli, OptionsParseThroughArgParser) {
  common::ArgParser args("prog", "test");
  obs::add_cli_options(args);
  const char* argv[] = {"prog", "--metrics-out", "m.prom",
                        "--trace-out=t.json", "--episode-log", "e.jsonl",
                        "--log-level", "debug"};
  std::string error;
  ASSERT_TRUE(args.parse(8, argv, &error)) << error;
  const obs::Options opts = obs::options_from_cli(args);
  EXPECT_EQ(opts.metrics_out, "m.prom");
  EXPECT_EQ(opts.trace_out, "t.json");
  EXPECT_EQ(opts.episode_log, "e.jsonl");
  EXPECT_EQ(opts.log_level, "debug");
}

TEST(ObsCli, DefaultsAreEmptyAndDisabled) {
  common::ArgParser args("prog", "test");
  obs::add_cli_options(args);
  const char* argv[] = {"prog"};
  std::string error;
  ASSERT_TRUE(args.parse(1, argv, &error)) << error;
  const obs::Options opts = obs::options_from_cli(args);
  EXPECT_TRUE(opts.metrics_out.empty());
  EXPECT_TRUE(opts.trace_out.empty());
  EXPECT_TRUE(opts.episode_log.empty());
  EXPECT_TRUE(opts.log_level.empty());
}

TEST(ObsCli, BadLogLevelThrowsInvalidArgument) {
  obs::Options opts;
  opts.log_level = "chatty";
  obs::ObsSession session;
  EXPECT_THROW(session.configure(opts), std::invalid_argument);
}

TEST(ObsCli, SessionFlushWritesAllConfiguredFiles) {
  const std::filesystem::path dir = ::testing::TempDir();
  const std::string metrics_path = (dir / "obs_test_metrics.prom").string();
  const std::string metrics_json_path =
      (dir / "obs_test_metrics.json").string();
  const std::string trace_path = (dir / "obs_test_trace.json").string();
  const std::string episode_path = (dir / "obs_test_episodes.jsonl").string();

  obs::Tracer::global().clear_for_testing();
  {
    obs::Options opts;
    opts.metrics_out = metrics_path;
    opts.trace_out = trace_path;
    opts.episode_log = episode_path;
    obs::ObsSession session(opts);
    EXPECT_TRUE(obs::metrics_enabled());
    EXPECT_TRUE(obs::Tracer::global().enabled());
    EXPECT_TRUE(obs::EventLog::global().enabled());
    // Direct API rather than the OBS_* macros so this test also covers the
    // -DAUTOHET_OBS=OFF build (the runtime machinery stays available there).
    obs::Registry::global().counter("obs_test_flush_total").add(1);
    {
      obs::ScopedSpan span("obs_test_span");
    }
    obs::EventLog::global().emit("{\"episode\": 0}");
  }  // destructor flushes

  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::stringstream metrics_text;
  metrics_text << metrics.rdbuf();
  EXPECT_NE(metrics_text.str().find("obs_test_flush_total"),
            std::string::npos);

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::stringstream trace_text;
  trace_text << trace.rdbuf();
  EXPECT_TRUE(json_brackets_balance(trace_text.str()));
  EXPECT_NE(trace_text.str().find("obs_test_span"), std::string::npos);

  std::ifstream episodes(episode_path);
  ASSERT_TRUE(episodes.good());
  std::string line;
  ASSERT_TRUE(std::getline(episodes, line));
  EXPECT_EQ(line, "{\"episode\": 0}");

  // A .json metrics path selects the JSON exposition.
  {
    obs::Options opts;
    opts.metrics_out = metrics_json_path;
    obs::ObsSession session(opts);
  }
  std::ifstream metrics_json(metrics_json_path);
  ASSERT_TRUE(metrics_json.good());
  std::stringstream metrics_json_text;
  metrics_json_text << metrics_json.rdbuf();
  EXPECT_TRUE(json_brackets_balance(metrics_json_text.str()));
  EXPECT_NE(metrics_json_text.str().find("\"counters\""), std::string::npos);

  obs::set_metrics_enabled(false);
  obs::Tracer::global().disable();
  obs::Tracer::global().clear_for_testing();
  std::filesystem::remove(metrics_path);
  std::filesystem::remove(metrics_json_path);
  std::filesystem::remove(trace_path);
  std::filesystem::remove(episode_path);
}

TEST(ObsCli, SessionFlushSurfacesDroppedTraceEvents) {
  const std::filesystem::path dir = ::testing::TempDir();
  const std::string metrics_path = (dir / "obs_test_dropped.prom").string();
  const std::string trace_path = (dir / "obs_test_dropped_trace.json").string();

  obs::Tracer::global().clear_for_testing();
  {
    obs::Options opts;
    opts.metrics_out = metrics_path;
    opts.trace_out = trace_path;
    obs::ObsSession session(opts);
    // Overflow this thread's ring (1 << 16 events) by exactly five events so
    // the wrap-around is visible and countable.
    for (int i = 0; i < (1 << 16) + 5; ++i) {
      obs::Tracer::global().counter("obs_test_overflow", i);
    }
    EXPECT_EQ(obs::Tracer::global().dropped_events(), 5u);
    // Repeated flushes must account only the delta, not re-add the total.
    session.flush();
    session.flush();
  }  // destructor flushes a third time

  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::stringstream text;
  text << metrics.rdbuf();
  EXPECT_NE(text.str().find("autohet_trace_dropped_events 5"),
            std::string::npos)
      << text.str();

  obs::set_metrics_enabled(false);
  obs::Tracer::global().disable();
  obs::Tracer::global().clear_for_testing();
  std::filesystem::remove(metrics_path);
  std::filesystem::remove(trace_path);
}

// ----------------------------------------------------------- bit identity --

/// The instrumentation must not perturb the hardware model: reports computed
/// with every sink enabled are bit-identical to reports computed with the
/// default null sinks.
TEST(ObsOverhead, ReportsAreBitIdenticalWithSinksOnAndOff) {
  const auto net = nn::lenet5();
  const auto layers = net.mappable_layers();
  std::vector<mapping::CrossbarShape> shapes(layers.size(),
                                             mapping::CrossbarShape{128, 128});
  reram::AcceleratorConfig accel;
  accel.tile_shared = true;

  const plan::DeploymentPlan p =
      plan::compile_plan(net.name, layers, shapes, accel);
  const reram::NetworkReport baseline = plan::evaluate_plan(p);

  obs::set_metrics_enabled(true);
  obs::Tracer::global().enable();
  const reram::NetworkReport instrumented = plan::evaluate_plan(p);
  obs::Tracer::global().disable();
  obs::Tracer::global().clear_for_testing();
  obs::set_metrics_enabled(false);

  EXPECT_EQ(baseline.utilization, instrumented.utilization);
  EXPECT_EQ(baseline.energy.total_nj(), instrumented.energy.total_nj());
  EXPECT_EQ(baseline.latency_ns, instrumented.latency_ns);
  EXPECT_EQ(baseline.occupied_tiles, instrumented.occupied_tiles);
  EXPECT_EQ(baseline.empty_crossbars, instrumented.empty_crossbars);
  EXPECT_EQ(baseline.rue(), instrumented.rue());
  ASSERT_EQ(baseline.layers.size(), instrumented.layers.size());
  for (std::size_t i = 0; i < baseline.layers.size(); ++i) {
    EXPECT_EQ(baseline.layers[i].utilization,
              instrumented.layers[i].utilization);
    EXPECT_EQ(baseline.layers[i].energy.total_nj(),
              instrumented.layers[i].energy.total_nj());
    EXPECT_EQ(baseline.layers[i].latency_ns, instrumented.layers[i].latency_ns);
  }
}

}  // namespace
