// Benchmark harness for the four AutoHet workflows: the RL search (VGG16),
// the robustness-aware search with an in-loop Monte-Carlo reward (LeNet-5),
// the fixed-budget Monte-Carlo fault sweep (LeNet-5) and multi-tenant
// serving under swap pressure (LeNet-5 + AlexNet).
//
// One process runs one workload for one seed. It prints a single JSON object
// of raw measurements on stdout; perfbench/run.py derives the benchmark's
// metrics from it (percentiles, ratios) and checks them against
// BENCHMARK.json.
//
//   untraced (--trace 0): repeats set-up + body until --seconds have passed,
//     at least kMinReps times, every repetition on the run's seed, so every
//     repetition does the same work, and repetition k on the k-th allowed
//     core in turn. Every repetition starts from freshly built environments,
//     engines and fabric caches, so no repetition replays another one's
//     cached work. Reports the host time of each part of each repetition
//     (search episode, MC grid point, simulate call), separately timed
//     set-ups and the simulated results.
//   traced (--trace 1): runs the body with harness-side spans around every
//     call into the library and once without (after a warm-up run), then
//     the per-layer probes. Layers this workload does not call are measured
//     by a small run of a workload that does call them, so every traced run
//     reports every layer.
//
// Usage: perfbench_harness --workload <name> --seed <n> --seconds <s>
//                          --trace <0|1> [--trace-out <chrome-trace.json>]
//                          [--episode-log <scratch.jsonl>]
// The searches time their episodes through obs::EventLog, which needs the
// scratch file --episode-log names; without it a search is one part.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "autohet/env.hpp"
#include "autohet/search.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "mapping/crossbar_shape.hpp"
#include "mapping/plan.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"
#include "report/serialize.hpp"
#include "reram/eval_engine.hpp"
#include "reram/functional.hpp"
#include "reram/kernels/kernels.hpp"
#include "reram/scheduler.hpp"
#include "serve/fabric.hpp"
#include "serve/serialize.hpp"
#include "serve/simulator.hpp"
#include "serve/traffic.hpp"

using namespace autohet;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Derives an independent 64-bit stream seed from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Monte-Carlo worker threads: the host's cores, capped at 4.
std::size_t pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

/// The paper's accelerator with tile sharing on (4 PEs per tile, ideal
/// device unless a workload sets faults).
reram::AcceleratorConfig paper_accel() {
  reram::AcceleratorConfig accel;
  accel.tile_shared = true;
  accel.pes_per_tile = 4;
  return accel;
}

// ---------------------------------------------------------------------------
// Harness-side spans and counters.

/// Records spans around calls into the library, in memory. Disabled
/// recorders cost one branch per span. Each span keeps its parent, so the
/// Chrome-trace dump shows the call tree; durations are also collected per
/// name as the per-layer samples.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  class Span {
   public:
    Span(Recorder& recorder, const char* name) : recorder_(recorder) {
      if (!recorder.enabled_) return;
      name_ = name;
      id_ = recorder.next_id_++;
      parent_ = recorder.open_.empty() ? -1 : recorder.open_.back();
      recorder.open_.push_back(id_);
      start_ = Clock::now();
    }
    ~Span() {
      if (name_ == nullptr) return;
      const Clock::time_point end = Clock::now();
      recorder_.open_.pop_back();
      recorder_.events_.push_back({name_, start_, end, id_, parent_});
      recorder_.samples_[name_].push_back(seconds_between(start_, end));
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Recorder& recorder_;
    const char* name_ = nullptr;
    Clock::time_point start_;
    int id_ = 0;
    int parent_ = -1;
  };

  /// A count or ratio measured at a layer boundary (traced runs only).
  void value(const std::string& name, double v) {
    if (enabled_) values_[name] = v;
  }

  /// Adds `other`'s samples and values for every name this recorder does
  /// not have yet, except the names in `skip`.
  void merge_missing(const Recorder& other, const std::set<std::string>& skip) {
    for (const auto& [name, v] : other.samples_) {
      if (!skip.count(name) && !samples_.count(name)) samples_[name] = v;
    }
    for (const auto& [name, v] : other.values_) {
      if (!skip.count(name) && !values_.count(name)) values_[name] = v;
    }
    for (Event e : other.events_) {
      e.id += next_id_;
      if (e.parent >= 0) e.parent += next_id_;
      events_.push_back(std::move(e));
    }
    next_id_ += other.next_id_;
  }

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }
  std::map<std::string, double>& values() { return values_; }
  const std::map<std::string, double>& values() const { return values_; }

  void write_chrome_trace(std::ostream& os, Clock::time_point origin) const {
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << e.name
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
         << seconds_between(origin, e.start) * 1e6
         << ", \"dur\": " << seconds_between(e.start, e.end) * 1e6
         << ", \"args\": {\"id\": " << e.id << ", \"parent\": " << e.parent
         << "}}";
    }
    os << "\n]}\n";
  }

 private:
  struct Event {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int id;
    int parent;
  };
  bool enabled_;
  int next_id_ = 0;
  std::vector<int> open_;
  std::vector<Event> events_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
};

// ---------------------------------------------------------------------------
// Workloads.

/// What one repetition of a workload's body did.
struct Rep {
  double seconds = 0.0;  ///< host time of the body's library calls
  /// The body split into parts, in order: operations (episodes, trials,
  /// requests) and host time of each.
  std::vector<double> part_ops;
  std::vector<double> part_seconds;
  /// Simulated results: deterministic in the repetition's seed.
  std::map<std::string, double> sim;
};

/// Correctness bookkeeping of one harness process.
struct Outcome {
  std::int64_t attempted = 0;  ///< episodes, MC grid points, simulate calls
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Builds fresh state for one repetition with inputs drawn from `seed`:
  /// cold engines and caches.
  virtual void setup(Recorder& rec, std::uint64_t seed) = 0;
  /// Runs the measured body once on the state setup() built.
  virtual Rep run(Recorder& rec, Outcome& out) = 0;
  /// Correctness checks on the last setup's inputs that need more than one
  /// body run (once a process).
  virtual void final_checks(Recorder&, Outcome&) {}
  /// Per-layer probes on the data of the last run (traced runs only).
  virtual void probes(Recorder&) {}
};

// ---- RL search (plain Eq. 2 or robustness-aware with measured MC) ----

class SearchWorkload : public Workload {
 public:
  /// `episode_log`: scratch file for the search's per-episode EventLog
  /// lines, or empty to time the search as one part.
  SearchWorkload(nn::NetworkSpec net, int episodes, bool robust,
                 std::string episode_log)
      : net_(std::move(net)),
        episodes_(episodes),
        robust_(robust),
        episode_log_(std::move(episode_log)) {}

  void setup(Recorder& rec, std::uint64_t seed) override {
    seed_ = seed;
    search_.reset();
    env_.reset();
    model_.reset();
    core::EnvConfig cfg;
    cfg.candidates = mapping::hybrid_candidates();
    cfg.accel = paper_accel();
    if (robust_) {
      {
        Recorder::Span span(rec, "nn.model_init_ms");
        common::Rng rng(mix(seed_, 1));
        model_ = std::make_unique<nn::Model>(net_, rng);
      }
      cfg.objective = core::RewardObjective::kRobustnessAware;
      cfg.accel.faults = faults();
      cfg.mc_reward_model = model_.get();
    }
    env_ = std::make_unique<core::CrossbarEnv>(net_.mappable_layers(), cfg);
    search_ = std::make_unique<core::AutoHetSearch>(*env_, search_config());
  }

  Rep run(Recorder& rec, Outcome& out) override {
    obs::EventLog& log = obs::EventLog::global();
    if (!episode_log_.empty()) log.open(episode_log_);
    const Clock::time_point t0 = Clock::now();
    {
      Recorder::Span span(rec, "autohet.search_s");
      result_ = search_->run();
    }
    const double seconds = seconds_between(t0, Clock::now());
    out.attempted += episodes_;
    std::vector<double> part_seconds;
    if (!episode_log_.empty()) {
      log.close();
      part_seconds = episode_seconds();
      out.check(static_cast<int>(part_seconds.size()) == episodes_,
                "episode log length differs from the episode count");
    } else {
      part_seconds = {seconds};
    }

    const double best = result_.best_reward;
    out.check(std::isfinite(best) && best > 0.0, "best_reward not positive");
    out.check(static_cast<int>(result_.history.size()) == episodes_,
              "search history length differs from the episode count");
    // The search's cached feedback must equal a fresh, cold evaluation.
    const reram::EvaluationEngine fresh(env_->layers(), env_->candidates(),
                                        env_->accel());
    const reram::NetworkReport check = fresh.evaluate(result_.best_actions);
    out.check(check.energy.total_nj() ==
                      result_.best_report.energy.total_nj() &&
                  check.utilization == result_.best_report.utilization,
              "best design's report differs from a fresh evaluation");
    if (net_.name == "VGG16" && !robust_ && episodes_ == 300 && seed_ == 1) {
      out.check(std::fabs(best - 0.834291) <= 5e-7,
                "search-vgg16 best_reward differs from the 0.834291 anchor");
    }
    const double energy = result_.best_report.energy.total_nj();
    const std::size_t parts = part_seconds.size();
    return {seconds,
            std::vector<double>(parts, static_cast<double>(episodes_) /
                                           static_cast<double>(parts)),
            std::move(part_seconds),
            {{"best_reward", best},
             {"best_energy_nj", energy},
             {"best_utilization", result_.best_report.utilization},
             {"sim_energy_nj", energy}}};
  }

  void probes(Recorder& rec) override {
    rec.value("rl.updates",
              static_cast<double>(env_->num_layers()) * episodes_);
    probe_agent(rec);
    probe_evaluate(rec);
    if (robust_) probe_robustness(rec);
  }

 private:
  /// Host time of each episode of the last search, read back from the
  /// EventLog lines (`"wall_ms": <ms>`) AutoHetSearch::run wrote.
  std::vector<double> episode_seconds() const {
    static const std::string key = "\"wall_ms\": ";
    std::ifstream in(episode_log_);
    std::vector<double> out;
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t at = line.find(key);
      if (at != std::string::npos) {
        out.push_back(std::strtod(line.c_str() + at + key.size(), nullptr) /
                      1e3);
      }
    }
    return out;
  }

  core::SearchConfig search_config() const {
    core::SearchConfig cfg;
    cfg.episodes = episodes_;
    cfg.warmup_episodes = std::min(25, episodes_ / 4);
    cfg.seed = seed_;
    return cfg;
  }

  /// search_time's robust block: stuck-at 5e-4 per polarity, σ = 0.01,
  /// 2 bits per cell.
  static reram::FaultConfig faults() {
    reram::FaultConfig f;
    f.stuck_at_zero_rate = 5e-4;
    f.stuck_at_one_rate = 5e-4;
    f.program_sigma = 0.01;
    f.cell_bits = 2;
    return f;
  }

  /// A probe agent with the search's DdpgConfig, its replay buffer refilled
  /// with exactly the search's transitions (replayed from the history).
  void probe_agent(Recorder& rec) {
    rl::DdpgConfig ddpg = search_config().ddpg;
    ddpg.state_dim = core::kStateDim;
    rl::DdpgAgent agent(ddpg, common::Rng(mix(seed_, 2)));
    const std::size_t n = env_->num_layers();
    const double actions = static_cast<double>(env_->num_actions());
    std::vector<std::vector<double>> states;
    for (const core::EpisodeRecord& record : result_.history) {
      std::vector<std::vector<double>> s;
      std::size_t prev_action = 0;
      double prev_util = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        s.push_back(env_->state(k, prev_action, prev_util));
        prev_action = record.actions[k];
        prev_util = env_->layer_utilization(k, prev_action);
      }
      s.push_back(env_->state(n - 1, prev_action, prev_util));
      for (std::size_t k = 0; k < n; ++k) {
        rl::Transition t;
        t.state = s[k];
        t.next_state = s[k + 1];
        t.action = actions > 1
                       ? (static_cast<double>(record.actions[k]) + 0.5) /
                             actions
                       : 0.5;
        t.reward = record.reward;
        t.terminal = k + 1 == n;
        agent.remember(std::move(t));
      }
      states.push_back(std::move(s[0]));
    }
    constexpr int kUpdates = 400;
    for (int i = 0; i < kUpdates; ++i) {
      Recorder::Span span(rec, "rl.update_us");
      agent.update();
    }
    for (const auto& s : states) {
      Recorder::Span span(rec, "rl.act_us");
      (void)agent.act(s);
    }
  }

  /// The search history's action vectors replayed through a fresh engine.
  void probe_evaluate(Recorder& rec) {
    const reram::EvaluationEngine engine(env_->layers(), env_->candidates(),
                                         env_->accel());
    for (const core::EpisodeRecord& record : result_.history) {
      Recorder::Span span(rec, "reram.eval.evaluate_us");
      (void)engine.evaluate(record.actions);
    }
    const auto stats = engine.cache_stats();
    rec.value("reram.eval.memo_hits", static_cast<double>(stats.hits));
    rec.value("reram.eval.memo_misses", static_cast<double>(stats.misses));
    rec.value("reram.eval.memo_hit_ratio", stats.hit_rate());
  }

  /// The search's in-loop evaluate_robustness_cached calls replayed, in
  /// order, through a fresh engine and a harness-owned LayerFabricCache.
  void probe_robustness(Recorder& rec) {
    const reram::EvaluationEngine engine(env_->layers(), env_->candidates(),
                                         env_->accel());
    reram::LayerFabricCache layer_cache;
    reram::RobustnessOptions options = core::default_search_mc_options();
    options.layer_cache = &layer_cache;
    for (const core::EpisodeRecord& record : result_.history) {
      Recorder::Span span(rec, "reram.eval.robust_ms");
      (void)engine.evaluate_robustness_cached(*model_, record.actions,
                                              env_->accel().faults, options);
    }
    rec.value("reram.eval.robust_memo_hit_ratio",
              engine.robustness_cache_stats().hit_rate());
    const auto layer = layer_cache.stats();
    const double lookups = static_cast<double>(layer.hits + layer.builds);
    rec.value("reram.eval.layer_cache_hit_ratio",
              lookups > 0.0 ? static_cast<double>(layer.hits) / lookups : 0.0);
  }

  nn::NetworkSpec net_;
  int episodes_;
  bool robust_;
  std::string episode_log_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<nn::Model> model_;
  std::unique_ptr<core::CrossbarEnv> env_;
  std::unique_ptr<core::AutoHetSearch> search_;
  core::SearchResult result_;
};

// ---- fixed-budget Monte-Carlo fault sweep ----

/// Every field of a robustness report, floats in hex: equal strings mean
/// byte-identical reports.
std::string digest(const reram::RobustnessReport& r) {
  std::ostringstream os;
  os << std::hexfloat << r.trials << ' ' << r.trials_requested << ' '
     << r.early_stopped << ' ' << r.accuracy_ci_lower << ' '
     << r.accuracy_ci_upper << ' ' << r.samples << ' ' << r.mean_accuracy
     << ' ' << r.stddev_accuracy << ' ' << r.min_accuracy << ' '
     << r.max_accuracy << ' ' << r.mean_logit_error << ' '
     << r.fault_stats.physical_cells << ' ' << r.fault_stats.stuck_at_zero
     << ' ' << r.fault_stats.stuck_at_one << ' '
     << r.fault_stats.weights_changed;
  for (double e : r.layer_error) os << ' ' << e;
  return os.str();
}

class McSweepWorkload : public Workload {
 public:
  static constexpr double kStuckRates[] = {0.0, 1e-4, 1e-3, 5e-3, 1e-2};
  static constexpr int kTrials = 5;
  static constexpr int kSamples = 12;
  static constexpr double kProgramSigma = 0.01;

  /// `full`: one heterogeneous allocation plus every homogeneous candidate
  /// over cell bits {1, 2, 4}; otherwise the heterogeneous allocation at
  /// 2 bits only (the probe-sized sweep).
  explicit McSweepWorkload(bool full)
      : net_(nn::lenet5()),
        pool_(std::make_unique<common::ThreadPool>(pool_threads())) {
    const auto candidates = mapping::hybrid_candidates();
    const std::size_t layers = net_.mappable_layers().size();
    std::vector<std::size_t> hetero(layers);
    for (std::size_t i = 0; i < layers; ++i) hetero[i] = i % candidates.size();
    allocations_.push_back(hetero);
    if (full) {
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        allocations_.emplace_back(layers, c);
      }
      cell_bits_ = {1, 2, 4};
    } else {
      cell_bits_ = {2};
    }
  }

  void setup(Recorder& rec, std::uint64_t seed) override {
    seed_ = seed;
    env_.reset();
    cache_.reset();
    model_.reset();
    {
      Recorder::Span span(rec, "nn.model_init_ms");
      common::Rng rng(mix(seed_, 1));
      model_ = std::make_unique<nn::Model>(net_, rng);
    }
    env_ = make_env();
    cache_ = std::make_unique<reram::TrialFabricCache>();
  }

  Rep run(Recorder& rec, Outcome& out) override {
    const reram::RobustnessOptions options =
        mc_options(pool_.get(), cache_.get());
    std::vector<std::string> digests;
    double trials = 0.0;
    double accuracy_sum = 0.0;
    Rep rep;
    const Clock::time_point t0 = Clock::now();
    for (const auto& actions : allocations_) {
      for (const int bits : cell_bits_) {
        for (const double rate : kStuckRates) {
          reram::RobustnessReport report;
          const Clock::time_point p0 = Clock::now();
          {
            Recorder::Span span(rec, "reram.mc.point_ms");
            report = env_->engine().evaluate_robustness(
                *model_, actions, faults(rate, bits), options);
          }
          rep.part_seconds.push_back(seconds_between(p0, Clock::now()));
          rep.part_ops.push_back(static_cast<double>(report.trials));
          ++out.attempted;
          trials += report.trials;
          accuracy_sum += report.mean_accuracy;
          out.check(report.trials == kTrials &&
                        report.mean_accuracy >= 0.0 &&
                        report.mean_accuracy <= 1.0,
                    "MC point outside the fixed budget or [0, 1]");
          digests.push_back(digest(report));
        }
      }
    }
    rep.seconds = seconds_between(t0, Clock::now());
    if (!digests_.empty() && digests_seed_ == seed_) {
      out.check(digests == digests_, "MC reports differ between repetitions");
    }
    digests_ = std::move(digests);
    digests_seed_ = seed_;
    trials_run_ = trials;
    rep.sim = {{"mc_accuracy_mean",
                accuracy_sum / static_cast<double>(digests_.size())},
               {"sim_energy_nj",
                env_->evaluate(allocations_.front()).energy.total_nj()}};
    return rep;
  }

  /// Serial and pooled reports must be byte-identical: the heterogeneous
  /// allocation's first cell-bits row, run serially and pooled, each on a
  /// fresh engine and cache. The two timings give the pool speedup.
  void final_checks(Recorder& rec, Outcome& out) override {
    const auto subset = [&](common::ThreadPool* pool,
                            std::vector<std::string>& digests) {
      const auto env = make_env();
      reram::TrialFabricCache cache;
      const reram::RobustnessOptions options = mc_options(pool, &cache);
      const Clock::time_point t0 = Clock::now();
      for (const double rate : kStuckRates) {
        digests.push_back(digest(env->engine().evaluate_robustness(
            *model_, allocations_.front(), faults(rate, cell_bits_.front()),
            options)));
        ++out.attempted;
      }
      return seconds_between(t0, Clock::now());
    };
    std::vector<std::string> serial_digests;
    std::vector<std::string> pooled_digests;
    const double serial = subset(nullptr, serial_digests);
    const double pooled = subset(pool_.get(), pooled_digests);
    out.check(serial_digests == pooled_digests,
              "serial and pooled MC reports differ");
    // A 1-core host cannot measure a parallel speedup: 0 marks it
    // unmeasured.
    rec.value("common.pool.speedup",
              std::thread::hardware_concurrency() > 1 ? serial / pooled : 0.0);
    rec.value("common.pool.threads", static_cast<double>(pool_->size()));
  }

  void probes(Recorder& rec) override {
    rec.value("reram.mc.trials_run", trials_run_);
    const auto stats = cache_->stats();
    const double lookups =
        static_cast<double>(stats.trial_records + stats.trial_replays);
    rec.value("reram.mc.fabric_cache_hit_ratio",
              lookups > 0.0 ? static_cast<double>(stats.trial_replays) / lookups
                            : 0.0);
    const auto candidates = mapping::hybrid_candidates();
    const nn::LayerSpec& first = net_.layers.front();
    common::Rng image_rng(mix(seed_, 3));
    std::vector<tensor::Tensor> images;
    for (int s = 0; s < kSamples; ++s) {
      images.push_back(nn::synthetic_image(image_rng, first.in_channels,
                                           first.in_height, first.in_width));
    }
    for (const auto& actions : allocations_) {
      std::vector<mapping::CrossbarShape> shapes;
      for (std::size_t a : actions) shapes.push_back(candidates[a]);
      std::unique_ptr<reram::SimulatedModel> ideal;
      {
        Recorder::Span span(rec, "reram.functional.program_ms");
        ideal = std::make_unique<reram::SimulatedModel>(*model_, shapes);
      }
      for (const auto& image : images) {
        Recorder::Span span(rec, "reram.functional.forward_us");
        (void)ideal->forward(image);
      }
      for (const int bits : cell_bits_) {
        for (const double rate : kStuckRates) {
          Recorder::Span span(rec, "reram.faults.burn_ms");
          (void)ideal->with_faults(faults(rate, bits));
        }
      }
    }
  }

 private:
  std::unique_ptr<core::CrossbarEnv> make_env() const {
    core::EnvConfig cfg;
    cfg.candidates = mapping::hybrid_candidates();
    cfg.accel = paper_accel();
    return std::make_unique<core::CrossbarEnv>(net_.mappable_layers(), cfg);
  }

  reram::RobustnessOptions mc_options(common::ThreadPool* pool,
                                      reram::TrialFabricCache* cache) const {
    reram::RobustnessOptions options;
    options.trials = kTrials;
    options.samples = kSamples;
    options.input_seed = mix(seed_, 4);
    options.threads = pool != nullptr ? static_cast<int>(pool->size()) : 1;
    options.pool = pool;
    options.cache = cache;
    return options;
  }

  reram::FaultConfig faults(double stuck_rate, int cell_bits) const {
    reram::FaultConfig f;
    f.stuck_at_zero_rate = stuck_rate / 2.0;
    f.stuck_at_one_rate = stuck_rate / 2.0;
    f.program_sigma = kProgramSigma;
    f.cell_bits = cell_bits;
    f.seed = mix(seed_, 5);
    return f;
  }

  nn::NetworkSpec net_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<common::ThreadPool> pool_;
  std::vector<std::vector<std::size_t>> allocations_;
  std::vector<int> cell_bits_;
  std::unique_ptr<nn::Model> model_;
  std::unique_ptr<core::CrossbarEnv> env_;
  std::unique_ptr<reram::TrialFabricCache> cache_;
  std::vector<std::string> digests_;  ///< the last run's reports
  std::uint64_t digests_seed_ = 0;
  double trials_run_ = 0.0;
};

// ---- multi-tenant serving under swap pressure ----

/// Time-weighted mean queue depth over [t0, t1) (simulated ns).
double mean_queue_depth(const serve::ServingReport& r, double t0, double t1) {
  const auto& tl = r.queue_timeline;
  double integral = 0.0;
  for (std::size_t i = 0; i < tl.size(); ++i) {
    const double end = i + 1 < tl.size() ? tl[i + 1].t_ns : r.last_completion_ns;
    const double overlap = std::min(end, t1) - std::max(tl[i].t_ns, t0);
    if (overlap > 0.0) integral += static_cast<double>(tl[i].queue_depth) * overlap;
  }
  return integral / (t1 - t0);
}

class ServeWorkload : public Workload {
 public:
  /// Offered loads (fractions of the popularity-weighted full-batch service
  /// capacity) replayed every repetition; the middle one is nominal.
  static constexpr double kLoads[] = {0.5, 0.7, 0.9};
  static constexpr std::size_t kNominal = 1;
  /// Requests of the nominal trace. The horizon (simulated seconds) is
  /// derived from it once and pinned: every rate replays the same horizon.
  static constexpr double kNominalRequests = 4000.0;
  /// Simulated p99 limit for the highest-rate search.
  static constexpr double kSloP99Ms = 25.0;
  static constexpr int kRateSearchSteps = 8;

  void setup(Recorder& rec, std::uint64_t seed) override {
    seed_ = seed;
    plans_.clear();
    traces_.clear();
    for (const nn::NetworkSpec& net : {nn::lenet5(), nn::alexnet()}) {
      const auto mappable = net.mappable_layers();
      const std::vector<mapping::CrossbarShape> shapes(mappable.size(),
                                                       {72, 64});
      Recorder::Span span(rec, "mapping.compile_plan_ms");
      plans_.push_back(
          plan::compile_plan(net.name, mappable, shapes, paper_accel()));
    }
    // The tile budget is the larger standalone footprint: the two models
    // cannot co-reside, so every popularity flip swaps.
    fabric_config_ = serve::FabricConfig{};
    {
      const auto probe = build_fabric(rec);
      std::int64_t capacity = 0;
      for (std::int64_t m = 0; m < probe->model_count(); ++m) {
        capacity = std::max(capacity, probe->standalone_tiles(m));
      }
      fabric_config_.tile_capacity = capacity;
    }
    const std::vector<double> weights = serve::zipf_weights(
        static_cast<std::int64_t>(plans_.size()), serve::TrafficConfig{}.zipf_s);
    double weighted_ns = 0.0;
    for (std::size_t m = 0; m < plans_.size(); ++m) {
      Recorder::Span span(rec, "reram.sched.schedule_batch_us");
      const auto schedule =
          reram::schedule_batch(plans_[m], batching_.max_batch);
      weighted_ns += weights[m] * schedule.makespan_ns /
                     static_cast<double>(batching_.max_batch);
    }
    capacity_qps_ = 1e9 / weighted_ns;
    horizon_s_ = kNominalRequests / (kLoads[kNominal] * capacity_qps_);
    for (const double load : kLoads) traces_.push_back(trace(rec, load));
  }

  Rep run(Recorder& rec, Outcome& out) override {
    Rep rep;
    const auto simulate = [&](const serve::TrafficTrace& trace) {
      const auto fabric = build_fabric(rec);
      const Clock::time_point t0 = Clock::now();
      serve::ServingReport report;
      {
        Recorder::Span span(rec, "serve.simulate_ms");
        report = serve::simulate(*fabric, batching_, trace);
      }
      const double seconds = seconds_between(t0, Clock::now());
      rep.seconds += seconds;
      rep.part_seconds.push_back(seconds);
      rep.part_ops.push_back(static_cast<double>(trace.requests.size()));
      ++out.attempted;
      check_energy(report, out);
      return report;
    };
    bool base_ok = false;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      serve::ServingReport report = simulate(traces_[i]);
      if (i == 0) base_ok = meets_slo(report);
      if (i == kNominal) nominal_ = std::move(report);
    }
    // Highest offered load meeting the p99 limit without a growing queue,
    // by bisection between the lowest fixed load and 1.5x capacity.
    double lo = kLoads[0];
    double hi = 1.5;
    for (int step = 0; base_ok && step < kRateSearchSteps; ++step) {
      const double mid = 0.5 * (lo + hi);
      (meets_slo(simulate(trace(rec, mid))) ? lo : hi) = mid;
    }
    out.check(base_ok, "lowest fixed load misses the serving SLO");
    out.check(nominal_.total_requests >= 1000,
              "nominal trace too short for a p99 with 10 samples beyond it");

    rep.sim = {{"serve_p50_ms", nominal_.latency.p50_ms},
               {"serve_p99_ms", nominal_.latency.p99_ms},
               {"serve_max_qps_at_slo", base_ok ? lo * capacity_qps_ : 0.0},
               {"serve_energy_per_request_nj", nominal_.energy_per_request_nj},
               {"sim_energy_nj", nominal_.energy_per_request_nj}};
    return rep;
  }

  /// Two simulate calls on fresh fabrics, serial and with a thread pool,
  /// must produce byte-identical reports.
  void final_checks(Recorder& rec, Outcome& out) override {
    const serve::TrafficTrace& trace = traces_[kNominal];
    const auto once = [&](common::ThreadPool* pool) {
      const auto fabric = build_fabric(rec);
      ++out.attempted;
      return serve::serving_json_string(
          serve::simulate(*fabric, batching_, trace, pool));
    };
    common::ThreadPool pool(pool_threads());
    const std::string first = once(nullptr);
    out.check(once(nullptr) == first,
              "two simulate calls produced different reports");
    out.check(once(&pool) == first,
              "pooled simulate produced a different report");
  }

  /// Replays the nominal run's admission sequence (one admit per batch)
  /// through a fresh fabric.
  void probes(Recorder& rec) override {
    auto fabric = build_fabric(rec);
    double swaps = 0.0;
    for (const auto& batch : nominal_.busy_timeline) {
      Recorder::Span span(rec, "serve.fabric.admit_us");
      swaps += fabric->admit(batch.model).swapped_in ? 1.0 : 0.0;
    }
    const double admits = static_cast<double>(nominal_.busy_timeline.size());
    rec.value("serve.fabric.swap_ratio", admits > 0.0 ? swaps / admits : 0.0);
  }

 private:
  std::unique_ptr<serve::ServingFabric> build_fabric(Recorder& rec) const {
    Recorder::Span span(rec, "serve.fabric.build_ms");
    return std::make_unique<serve::ServingFabric>(plans_, fabric_config_);
  }

  serve::TrafficTrace trace(Recorder& rec, double load) const {
    serve::TrafficConfig config;
    config.seed = mix(seed_, 6);
    config.profile = serve::RateProfile::kConstant;
    config.mean_qps = load * capacity_qps_;
    config.duration_s = horizon_s_;
    Recorder::Span span(rec, "serve.traffic.generate_ms");
    return serve::generate_trace(config, static_cast<std::int64_t>(plans_.size()));
  }

  /// p99 within the limit, and a queue that does not grow: the last
  /// quarter's mean depth stays within 1.5x the second quarter's plus one
  /// batch (a backlog growing linearly from zero gives 2.33x).
  bool meets_slo(const serve::ServingReport& r) const {
    const double start = r.first_arrival_ns;
    const double q = horizon_s_ * 1e9 / 4.0;
    const double second = mean_queue_depth(r, start + q, start + 2.0 * q);
    const double last = mean_queue_depth(r, start + 3.0 * q, start + 4.0 * q);
    const bool growing =
        last > 1.5 * second + static_cast<double>(batching_.max_batch);
    return r.latency.p99_ms <= kSloP99Ms && !growing;
  }

  static void check_energy(const serve::ServingReport& r, Outcome& out) {
    double inference = 0.0;
    for (const auto& m : r.models) inference += m.inference_energy_nj;
    out.check(inference == r.inference_energy_nj &&
                  r.inference_energy_nj + r.programming_energy_nj ==
                      r.total_energy_nj,
              "serving energy is not inference + programming");
  }

  std::uint64_t seed_ = 0;
  std::vector<plan::DeploymentPlan> plans_;
  serve::FabricConfig fabric_config_;
  serve::BatchingConfig batching_;
  double capacity_qps_ = 0.0;
  double horizon_s_ = 0.0;
  std::vector<serve::TrafficTrace> traces_;
  serve::ServingReport nominal_;
};

// ---------------------------------------------------------------------------

const char* const kWorkloads[] = {"search-vgg16", "robust-search-lenet5",
                                  "mc-sweep-lenet5", "serve-swap"};

/// `full` builds the benchmarked workload; otherwise the probe-sized
/// version a traced run of another workload uses for the layers it does not
/// call itself. `episode_log` is passed to the searches.
std::unique_ptr<Workload> make_workload(const std::string& name, bool full,
                                        const std::string& episode_log = "") {
  if (name == "search-vgg16") {
    return full ? std::make_unique<SearchWorkload>(nn::vgg16(), 300, false,
                                                   episode_log)
                : std::make_unique<SearchWorkload>(nn::lenet5(), 40, false,
                                                   episode_log);
  }
  if (name == "robust-search-lenet5") {
    return std::make_unique<SearchWorkload>(nn::lenet5(), full ? 500 : 40,
                                            true, episode_log);
  }
  if (name == "mc-sweep-lenet5") return std::make_unique<McSweepWorkload>(full);
  if (name == "serve-swap") return std::make_unique<ServeWorkload>();
  return nullptr;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread (not the pools it already started) to
/// `cpus`. Should that fail, the thread stays where it is: its timings stay
/// valid, only less steady.
void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (!cpus.empty()) sched_setaffinity(0, sizeof(set), &set);
}

/// Untraced runs repeat the body at least this often.
constexpr int kMinReps = 5;
/// Set-up samples: blocks of kSetupBlock back-to-back set-ups, one block
/// before the first repetition and then at most every kSetupBlockEvery
/// seconds.
constexpr int kSetupBlock = 5;
constexpr double kSetupBlockEvery = 0.5;

// ---- output ----

std::string json_string(const std::string& s) {
  return "\"" + report::json_escape(s) + "\"";
}

/// Shortest round-trip decimal; raises on NaN or infinity.
std::string json_number(double v) { return report::format_double_json(v); }

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(v[i]);
  }
  return out + "]";
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += (first ? "" : ", ") + json_string(k) + ": " + json_number(v);
    first = false;
  }
  return out + "}";
}

/// Peak resident set of this process image (0 when unknown). VmHWM, unlike
/// getrusage's ru_maxrss, does not inherit the peak of the parent that
/// exec'ed the harness.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string episode_log;
};

int usage(const char* msg) {
  std::cerr << "perfbench_harness: " << msg
            << "\nusage: perfbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--episode-log <file>]\n";
  return 2;
}

/// The raw measurements as one JSON object.
std::string result_json(const Args& args, const Outcome& outcome,
                        const std::vector<double>& setup_s,
                        const std::vector<Rep>& reps,
                        const std::map<std::string, double>& sim,
                        const Recorder& traced) {
  const unsigned cores = std::thread::hardware_concurrency();
  const char* kernel_env = std::getenv("AUTOHET_KERNEL");
#ifdef AUTOHET_OBS_DISABLED
  const char* obs = "off";
#else
  const char* obs = "on";
#endif
  std::ostringstream os;
  os << "{\"workload\": " << json_string(args.workload)
     << ", \"seed\": " << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
     << ",\n \"provenance\": {\"host_cores\": " << cores
     << ", \"kernel\": " << json_string(reram::kernels::variant_name(
                                reram::kernels::active_variant()))
     << ", \"kernel_override\": "
     << json_string(kernel_env != nullptr ? kernel_env : "")
     << ", \"pool_threads\": " << pool_threads()
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"obs\": " << json_string(obs) << "},\n \"attempted\": "
     << outcome.attempted << ", \"failures\": [";
  for (std::size_t i = 0; i < outcome.failures.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_string(outcome.failures[i]);
  }
  os << "],\n \"setup_s\": " << json_array(setup_s)
     << ",\n \"parts\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    os << (i == 0 ? "\n  " : ",\n  ") << "{\"ops\": "
       << json_array(reps[i].part_ops)
       << ", \"seconds\": " << json_array(reps[i].part_seconds) << "}";
  }
  os << "]"
     << ",\n \"peak_rss_mb\": " << json_number(peak_rss_mb())
     << ",\n \"sim\": " << json_object(sim) << ",\n \"samples\": {";
  bool first = true;
  for (const auto& [name, v] : traced.samples()) {
    os << (first ? "\n  " : ",\n  ") << json_string(name) << ": "
       << json_array(v);
    first = false;
  }
  os << "},\n \"values\": " << json_object(traced.values()) << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--episode-log") {
      args.episode_log = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  const auto workload =
      make_workload(args.workload, true, args.trace ? "" : args.episode_log);
  if (!workload) return usage("unknown workload");

  Outcome outcome;
  std::vector<Rep> reps;
  std::vector<double> setup_s;
  std::map<std::string, double> sim;
  Recorder traced(true);
  const Clock::time_point origin = Clock::now();
  try {
    Recorder off(false);
    if (!args.trace) {
      // On a shared host each core is slowed by its own neighbours, in
      // phases lasting seconds to minutes, and the scheduler may keep this
      // thread on one core for the whole run. Repetition k runs on the
      // k-th allowed core in turn, so every part of the body is timed on
      // every core, and its fast side does not depend on the core chosen.
      const std::vector<int> cpus = allowed_cpus();
      // Set-up is timed on its own, in blocks of back-to-back set-ups
      // spread over the run, so its samples see the same host conditions
      // as the repetitions.
      Clock::time_point last_block = origin;
      for (int k = 0; k < kMinReps ||
                      seconds_between(origin, Clock::now()) < args.seconds;
           ++k) {
        if (!cpus.empty()) pin_to({cpus[k % cpus.size()]});
        if (k == 0 || seconds_between(last_block, Clock::now()) >=
                          kSetupBlockEvery) {
          for (int i = 0; i < kSetupBlock; ++i) {
            const Clock::time_point t0 = Clock::now();
            workload->setup(off, args.seed);
            setup_s.push_back(seconds_between(t0, Clock::now()));
          }
          last_block = Clock::now();
        }
        workload->setup(off, args.seed);
        reps.push_back(workload->run(off, outcome));
        outcome.check(reps.back().sim == reps.front().sim &&
                          reps.back().part_ops == reps.front().part_ops,
                      "repetitions of one seed did different work");
      }
      pin_to(cpus);
      workload->final_checks(off, outcome);
      sim = reps.front().sim;
    } else {
      // Layers this workload does not call are measured by probe-sized runs
      // of the workloads that do. They are built first, so that their
      // thread pools keep every core.
      std::vector<std::pair<const char*, std::unique_ptr<Workload>>> others;
      for (const char* other : kWorkloads) {
        if (args.workload != other) {
          others.emplace_back(other, make_workload(other, false));
        }
      }
      // The calling thread stays on one core, so that timings compared
      // with each other (traced and untraced body, a probe and the search
      // it stands for) share that core's neighbours.
      const std::vector<int> cpus = allowed_cpus();
      if (!cpus.empty()) pin_to({cpus.front()});
      // Tracing overhead: the same body traced, then untraced, after a
      // warm-up run that takes the process's one-off costs (first-touch
      // page faults, thread start-up) off both sides. All three use the
      // run's seed, so their simulated results must be identical.
      workload->setup(off, args.seed);
      reps.push_back(workload->run(off, outcome));
      workload->setup(traced, args.seed);
      reps.push_back(workload->run(traced, outcome));
      workload->setup(off, args.seed);
      reps.push_back(workload->run(off, outcome));
      traced.values()["trace.overhead_s"] = reps[1].seconds - reps[2].seconds;
      workload->final_checks(traced, outcome);
      workload->probes(traced);
      for (const Rep& rep : reps) {
        outcome.check(rep.sim == reps.front().sim,
                      "simulated results differ between runs of one seed");
      }
      sim = reps.front().sim;
      // Counts of the benchmarked workload's own work (rl.updates) are
      // never taken from the probes.
      for (const auto& [other, probe] : others) {
        Recorder rec(true);
        Outcome probe_outcome;
        probe->setup(rec, args.seed);
        probe->run(rec, probe_outcome);
        probe->final_checks(rec, probe_outcome);
        probe->probes(rec);
        traced.merge_missing(rec, {"rl.updates"});
        outcome.attempted += probe_outcome.attempted;
        for (const auto& f : probe_outcome.failures) {
          outcome.failures.push_back(std::string(other) + " probe: " + f);
        }
      }
      traced.values().emplace("rl.updates", 0.0);
    }
    if (args.trace && !args.trace_out.empty()) {
      std::ofstream os(args.trace_out);
      traced.write_chrome_trace(os, origin);
    }
    std::cout << result_json(args, outcome, setup_s,
                             args.trace ? std::vector<Rep>{} : reps, sim,
                             traced);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
