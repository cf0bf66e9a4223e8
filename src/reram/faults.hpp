// ReRAM non-ideality model: stuck-at faults and conductance variation,
// seeded and deterministic.
//
// The paper evaluates an *ideal* device; multi-bit ReRAM cells are precisely
// the ones most vulnerable to conductance variation and stuck-at defects
// (Hamun, arXiv:2502.01502; CIM-Explorer, arXiv:2505.14303). This module
// makes the fabric's non-ideality a first-class, reproducible axis:
//
//   * Storage model. A logical 8-bit weight w is stored offset-binary
//     (v = w + 128) across `8 / cell_bits` physical cells ("planes") of
//     `cell_bits` bits each. Plane p carries the level
//     v_p = (v >> p·b) & (2^b − 1) with weight-space scale 2^{p·b}. Faults
//     act on the levels; the perturbed weight is folded back into the
//     two's-complement cell that both datapaths read exactly.
//
//   * Stuck-at faults. Every physical cell is independently stuck-at-0
//     (level forced to 0, HRS) with probability `stuck_at_zero_rate` and
//     stuck-at-1 (level forced to 2^b − 1, LRS) with probability
//     `stuck_at_one_rate`. The fault map is a pure function of
//     (seed, crossbar_id, cell index): same seed ⇒ same map.
//
//   * Conductance variation. Each programmed level is perturbed
//     lognormally, v' = v · exp(σ·N(0,1)), then rounded back to the level
//     grid. Because plane p re-enters the weight with scale 2^{p·b} and
//     b-bit cells space 2^b − 1 levels across the same conductance window,
//     the *effective* weight-space error grows with bits per cell:
//     σ_w = σ · A(b) with A(b)² = E[v²] · Σ_p 4^{p·b} (see weight_sigma()).
//
// Faults and programming variation are burned into a clean copy of the
// programmed weights (`MappedLayer::burn`, which drives
// `LogicalCrossbar::burn_clones` per crossbar). A default `FaultConfig{}`
// is ideal: no RNG is consumed and every output stays bit-identical to the
// fault-free build (tested).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "mapping/layer_mapping.hpp"
#include "nn/layer.hpp"

namespace autohet::reram {

/// Device non-ideality knobs. Default-constructed = ideal device.
struct FaultConfig {
  double stuck_at_zero_rate = 0.0;  ///< per physical cell, Bernoulli
  double stuck_at_one_rate = 0.0;   ///< per physical cell, Bernoulli
  double program_sigma = 0.0;  ///< lognormal σ of programmed conductance
  int cell_bits = 1;           ///< bits per physical cell (1, 2, 4 or 8)
  std::uint64_t seed = 0xfa0175eedULL;  // "faults-eed"

  /// True when every non-ideality is off; the fault machinery then never
  /// touches an RNG and programmed arrays stay bit-identical.
  bool ideal() const noexcept {
    return stuck_at_zero_rate == 0.0 && stuck_at_one_rate == 0.0 &&
           program_sigma == 0.0;
  }

  /// Derives the trial-t configuration for Monte-Carlo sweeps: identical
  /// rates, independent seed stream.
  FaultConfig for_trial(std::uint64_t trial) const noexcept;

  void validate() const;

  bool operator==(const FaultConfig&) const = default;
};

/// Aggregate counts of one fault-map application (per crossbar, per layer
/// or per fabric depending on who reports them).
struct FaultMapStats {
  std::int64_t physical_cells = 0;  ///< cells visited (rows·cols·planes)
  std::int64_t stuck_at_zero = 0;
  std::int64_t stuck_at_one = 0;
  std::int64_t weights_changed = 0;  ///< logical weights whose value moved

  FaultMapStats& operator+=(const FaultMapStats& o) noexcept {
    physical_cells += o.physical_cells;
    stuck_at_zero += o.stuck_at_zero;
    stuck_at_one += o.stuck_at_one;
    weights_changed += o.weights_changed;
    return *this;
  }
};

/// Wilson score interval for a Bernoulli proportion: the set of p whose
/// z-score test would not reject `successes` hits in `n` draws. Unlike the
/// normal approximation it stays inside [0, 1] and behaves sanely at
/// p̂ ∈ {0, 1}, which is exactly where fault sweeps live (rate-0 points
/// agree on every sample).
struct WilsonInterval {
  double lower = 0.0;
  double upper = 1.0;
  double halfwidth() const noexcept { return 0.5 * (upper - lower); }
};

/// z for the two-sided 95% interval — the sequential stopping rule's
/// confidence level.
inline constexpr double kWilsonZ95 = 1.959963984540054;

/// Wilson interval on `successes` hits in `n` draws (n <= 0 ⇒ [0, 1]).
/// Takes doubles so callers can pass a design-effect-adjusted effective
/// sample size (see SequentialStopper::interval).
WilsonInterval wilson_interval(double successes, double n,
                               double z = kWilsonZ95);

/// Monte-Carlo trial budget: how many fault-map trials a robustness
/// evaluation spends. The default `kFixed` mode runs exactly the configured
/// trial count — reports stay byte-identical to the pre-budget code.
/// `kAdaptive` runs trials in chunks and stops as soon as the Wilson CI
/// half-width of the pooled per-sample agreement falls to `ci_halfwidth`
/// (never before `min_trials`, never past the cap), spending the full
/// budget only on points whose accuracy is genuinely uncertain. Executed
/// trials use the same `FaultConfig::for_trial` seed stream as fixed mode,
/// so an adaptive run that stops after T trials reports exactly the fixed-
/// mode statistics of its first T trials (a prefix, not an approximation).
/// With a TrialFabricCache, adaptive zero-stuck-rate points also replay the
/// shared variation-only recording instead of burning fresh fabrics:
/// statistically equivalent, not byte-identical, so never in kFixed.
struct RobustnessBudget {
  enum class Mode { kFixed, kAdaptive };
  Mode mode = Mode::kFixed;
  /// Adaptive target: stop once the pooled agreement CI half-width is ≤
  /// this (95% Wilson).
  double ci_halfwidth = 0.05;
  /// Adaptive clamps: never stop before `min_trials`; `max_trials` caps the
  /// spend (0 = use RobustnessOptions::trials as the cap).
  int min_trials = 2;
  int max_trials = 0;
  /// Trials evaluated between CI checks after `min_trials` — stopping
  /// decisions happen at chunk boundaries only, so the executed trial count
  /// is a pure function of the sample outcomes, never of thread scheduling.
  int chunk_trials = 1;

  void validate() const;
  bool operator==(const RobustnessBudget&) const = default;
};

/// The sequential stopping rule, factored out of the Monte-Carlo loop so
/// its statistics are unit-testable on raw Bernoulli streams. Feed it one
/// completed trial at a time (`add_trial`); `next_boundary` yields the
/// trial index to run up to before the next decision, and `should_stop`
/// answers the decision. Deterministic: the stop point depends only on the
/// budget and the per-trial success counts.
///
/// Two intervals, two jobs:
///  - `pooled_interval()` treats the n = trials·samples outcomes as
///    independent Bernoulli draws. `should_stop` targets its half-width —
///    this is the budget knob: spend trials until the pooled agreement
///    estimate is tight, then stop.
///  - `interval()` is *cluster-robust* and is what reports carry. Samples
///    within one trial share one fault map, so they are positively
///    correlated and the pooled CI is anti-conservative exactly at the
///    bimodal grid points (a fabric either survives or collapses). The
///    stopper estimates the intra-trial correlation ρ from the
///    between-trial variance of per-trial proportions (moment estimator:
///    Var(p_t) = p(1−p)/m · (1 + (m−1)ρ)), inflates the variance by the
///    Kish design effect DEFF = 1 + (m−1)·ρ̂ and evaluates the Wilson
///    interval at the effective sample size n/DEFF. Consistent trials
///    (ρ̂ = 0) keep the full n; fully clustered trials degrade to one
///    effective draw per trial. At a strongly clustered point the adaptive
///    run stops on the pooled target (bounding cost) while the reported
///    robust CI stays honestly wide — adaptivity never overstates the
///    precision actually achieved.
class SequentialStopper {
 public:
  /// `requested` is the trial cap (RobustnessOptions::trials when the
  /// budget leaves max_trials at 0).
  SequentialStopper(const RobustnessBudget& budget, int requested);

  /// Records one completed trial's pooled sample outcomes.
  void add_trial(std::int64_t successes, std::int64_t samples);

  /// First decision boundary after `executed` trials: min_trials for the
  /// opening chunk, then chunk_trials at a time, clamped to the cap.
  int next_boundary(int executed) const noexcept;

  /// True once the pooled CI half-width target is met (at or past
  /// min_trials) or the trial cap is exhausted.
  bool should_stop() const noexcept;

  /// True when should_stop() fired on the CI target rather than the cap.
  bool stopped_early() const noexcept {
    return should_stop() && trials_ < cap_;
  }

  /// Plain 95% Wilson CI on the pooled per-sample agreement — the stopping
  /// target (see above).
  WilsonInterval pooled_interval() const;
  /// Cluster-robust 95% Wilson CI on the pooled agreement (see above) —
  /// the interval reports carry.
  WilsonInterval interval() const;
  /// The estimated Kish design effect 1 + (m−1)·ρ̂ (1 until two trials
  /// with between-trial spread have been fed).
  double design_effect() const noexcept;
  int trials() const noexcept { return trials_; }
  int cap() const noexcept { return cap_; }

 private:
  RobustnessBudget budget_;
  int cap_ = 0;        ///< effective max trials
  int min_ = 0;        ///< effective min trials (≤ cap)
  int trials_ = 0;     ///< trials fed so far
  std::int64_t successes_ = 0;
  std::int64_t n_ = 0;   ///< pooled sample draws
  std::int64_t m_ = 0;   ///< samples per trial (constant across trials)
  double sum_p_ = 0.0;   ///< Σ per-trial proportions
  double sum_p2_ = 0.0;  ///< Σ squared per-trial proportions
};

/// Monte-Carlo robustness of one configuration (accuracy-under-faults over
/// N seeded trials). Produced by `monte_carlo_robustness` (functional.hpp)
/// and `EvaluationEngine::evaluate_robustness`.
struct RobustnessReport {
  int trials = 0;            ///< trials actually executed
  int trials_requested = 0;  ///< the configured budget (== trials in kFixed)
  bool early_stopped = false;  ///< adaptive CI target met before the cap
  /// 95% Wilson CI on the pooled per-sample agreement across the executed
  /// trials — the quantity the adaptive stopping rule resolves.
  double accuracy_ci_lower = 0.0;
  double accuracy_ci_upper = 1.0;
  int samples = 0;
  double mean_accuracy = 0.0;    ///< mean argmax agreement vs ideal fabric
  double stddev_accuracy = 0.0;  ///< across trials (population stddev)
  double min_accuracy = 0.0;
  double max_accuracy = 0.0;
  double mean_logit_error = 0.0;  ///< mean max-|logit diff| vs ideal fabric
  /// Per-mappable-layer mean relative output error — where the fault
  /// energy enters the network.
  std::vector<double> layer_error;
  FaultMapStats fault_stats;  ///< aggregated over every trial fabric
};

/// One stuck-at draw candidate captured by a recording burn-in pass
/// (FaultModel::apply_recording / burn): the raw 53-bit uniform draw `k`, the flat
/// physical-plane index it targets ((row·cols + col)·planes + plane) and the
/// originally programmed weight of the owning logical cell (needed to
/// recompute weights_changed exactly on replay). Only draws below
/// FaultModel::kRecordCap53 are kept, so at sweep-scale rates the list is a
/// few candidates per thousand cells. A recording groups its candidates by
/// draw bucket `k >> FaultModel::kRecordBucketShift` (ascending buckets,
/// stream order inside each), so a replay at a low rate reads only the
/// leading buckets.
struct StuckCandidate {
  std::uint64_t k = 0;       ///< raw uniform_bits53 draw
  std::uint32_t plane = 0;   ///< (row·cols + col)·planes + plane
  std::int8_t original = 0;  ///< programmed weight before any perturbation
};

/// End offset of each draw bucket in a recorded candidate list: bucket b
/// (draws in [b·2⁴⁵, (b+1)·2⁴⁵), i.e. uniform draws in [b·2⁻⁸, (b+1)·2⁻⁸))
/// spans [b == 0 ? 0 : ends[b−1], ends[b]).
using StuckBucketEnds = std::array<std::uint32_t, 4>;

/// One destination of a burn (FaultModel::burn): a trial's seed and its
/// copy of the programmed weights, burned in place.
struct BurnTarget {
  std::uint64_t seed = 0;         ///< the trial's FaultConfig::seed
  std::span<std::int8_t> cells;   ///< rows × cols at row_stride
  /// Recording burns set both (see FaultModel::apply_recording); plain
  /// burns leave both null.
  std::vector<StuckCandidate>* hits = nullptr;
  StuckBucketEnds* bucket_ends = nullptr;
  FaultMapStats stats;  ///< out: this target's counts
};

/// Seeded sampler that burns a FaultConfig into programmed weight arrays.
/// Stateless across calls: every perturbation is a pure function of
/// (config.seed, crossbar_id), so fabrics rebuilt with the same seed see
/// the same fault maps.
class FaultModel {
 public:
  explicit FaultModel(const FaultConfig& config);

  const FaultConfig& config() const noexcept { return config_; }
  bool ideal() const noexcept { return config_.ideal(); }

  /// The burn entry point. Burns this config into every target, target i
  /// under the stream (targets[i].seed, crossbar_id): stuck-at faults and
  /// programming variation on a full rows×cols two's-complement weight
  /// array (row-major, stride `row_stride`). Every target must hold the
  /// same programmed weights — the trials of one point burn clones of one
  /// clean array — so the kernel table's burn op (kernels::Ops::burn) can
  /// run them in lockstep lane groups; each target ends exactly as a burn
  /// of it alone would leave it. The kernel is stream-exact: its cells,
  /// stats and consumed RNG stream are bit-identical to the per-cell
  /// oracle in tests/oracle.hpp (tested). Targets with `hits` set burn
  /// recording (see apply_recording); a call records for every target or
  /// for none. One target is a batch of one.
  void burn(std::span<BurnTarget> targets, std::int64_t rows,
            std::int64_t cols, std::int64_t row_stride,
            std::uint64_t crossbar_id) const;

  /// burn() of one target under config().seed, returning its stats.
  FaultMapStats apply(std::span<std::int8_t> cells, std::int64_t rows,
                      std::int64_t cols, std::int64_t row_stride,
                      std::uint64_t crossbar_id) const;

  /// Recording cap: stuck draws with k < 2⁵³/64 are captured by
  /// apply_recording, so any config whose summed stuck rate is ≤ 2⁻⁶
  /// (≈ 1.56%) can be replayed from one recording. Every sweep grid tops
  /// out at 1e-2; configs above the cap take the direct burn. A low cap
  /// keeps a recording small (≈ 1.6% of the planes), which matters once a
  /// point's trials all record at the same time.
  static constexpr std::uint64_t kRecordCap53 = std::uint64_t{1} << 47;
  /// Draw-bucket width of a recording (2⁴⁵, i.e. 2⁻⁸ of the unit interval):
  /// the cap spans exactly the StuckBucketEnds buckets.
  static constexpr int kRecordBucketShift = 45;
  static_assert((kRecordCap53 >> kRecordBucketShift) ==
                std::tuple_size_v<StuckBucketEnds>);

  /// True when this config's burn-in can be recorded and later replayed:
  /// stuck draws consumed (some stuck rate > 0 — a zero-rate stream skips
  /// the draws entirely and is a different stream) and thresholds within
  /// the recording cap.
  bool record_eligible() const noexcept {
    return stuck_sum_thr53_ > 0 && stuck_sum_thr53_ <= kRecordCap53;
  }

  /// Recording burn-in (burn() of one recording target under
  /// config().seed): consumes the RNG stream exactly as apply() does for
  /// this config, applies programming variation to `cells`, but *records*
  /// every stuck draw below kRecordCap53 into `out` (replacing its contents,
  /// grouped by draw bucket with stream order kept inside each bucket, the
  /// bucket ends in `bucket_ends`) instead of applying any stuck override.
  /// The returned stats carry the variation-only counts (stuck counts zero);
  /// replay_stuck() then completes the burn for any rate pair within the
  /// cap. The key property (tested): the burn-in stream position never
  /// depends on the stuck *rate values*, so one recording serves every
  /// nonzero-rate config sharing (seed, program_sigma, cell_bits). Requires
  /// record_eligible().
  FaultMapStats apply_recording(std::span<std::int8_t> cells,
                                std::int64_t rows, std::int64_t cols,
                                std::int64_t row_stride,
                                std::uint64_t crossbar_id,
                                std::vector<StuckCandidate>& out,
                                StuckBucketEnds& bucket_ends) const;

  /// Completes a recorded burn on a post-variation clone: forces the planes
  /// whose recorded draw falls under this config's thresholds and returns
  /// the *delta* stats (stuck counts plus the weights_changed correction
  /// relative to the recording's variation-only count; physical_cells 0, so
  /// recording stats + delta == apply() stats exactly). Only the leading
  /// ⌈summed threshold / 2⁴⁵⌉ buckets are read; zero rates read none.
  /// `cells` must hold the recording's post-variation state; `hits` and
  /// `bucket_ends` must be the recording's for the same geometry. A config
  /// above the recording cap is rejected: its draws in [cap, threshold)
  /// were never recorded, so the replay would be wrong.
  FaultMapStats replay_stuck(std::span<std::int8_t> cells, std::int64_t cols,
                             std::int64_t row_stride,
                             std::span<const StuckCandidate> hits,
                             const StuckBucketEnds& bucket_ends) const;

  /// Effective weight-space rms error per unit σ of per-level lognormal
  /// noise: A(b) = sqrt(E[v²] · Σ_p 4^{p·b}) with v uniform over the level
  /// grid. Grows with cell_bits — multi-bit cells pack tighter levels, so
  /// the same conductance spread costs more weight-space error.
  static double level_noise_amplification(int cell_bits) noexcept;

 private:
  FaultConfig config_;
  int planes_ = 8;           ///< 8 / cell_bits
  unsigned level_mask_ = 1;  ///< 2^cell_bits − 1
  // Fast-kernel precompute (see kernels::BurnSpec): integer stuck-at
  // thresholds on the raw 53-bit uniform draw, and per-level
  // polar-rejection safety bounds s_safe[L] — when the accepted polar s
  // exceeds s_safe[L] the lognormal perturbation provably cannot move level
  // L off its grid point, so the sqrt/log/exp are skipped while the RNG
  // stream advances identically.
  std::uint64_t stuck_zero_thr53_ = 0;  ///< u < z₀ ⟺ bits53 < this
  std::uint64_t stuck_sum_thr53_ = 0;   ///< u < z₀+z₁ ⟺ bits53 < this
  std::vector<double> level_s_safe_;    ///< indexed by level, [0..mask]
};

/// The canonical recording config for cross-rate cache spanning: `config`
/// with its stuck rates replaced by the largest recordable rate (summed
/// threshold == FaultModel::kRecordCap53, i.e. 2⁻⁶). A recording burn
/// captures *every* stuck draw below the cap regardless of the rate values,
/// so the probe's recording is identical to the one any in-cap nonzero-rate
/// config sharing (seed, program_sigma, cell_bits) would produce — it exists
/// so a zero-stuck-rate grid point (whose own burn-in skips the stuck draws
/// entirely and is therefore not recordable) can join the shared recorded
/// fabric family. Replaying it at zero rates forces no candidates.
FaultConfig spanning_probe(const FaultConfig& config) noexcept;

/// Closed-form per-layer fault vulnerability in [0, 1]: the expected
/// relative MVM output error of `layer` mapped as `m` under `faults`.
///
///   ε_cell = sqrt(p₀ + p₁ + σ_prog²) · A(b) / 127
///   ε_layer = min(1, ε_cell · sqrt(row_blocks))
///
/// The √row_blocks factor models the adder-tree merge of independently
/// converted partial sums: each row block contributes its own
/// conversion-referred error, so configurations that split a layer across
/// more, smaller crossbars accumulate more of it. This is the robustness
/// counterweight to utilization (small crossbars pack tighter but fragment
/// the partial sums), and it is what the robustness-aware reward trades.
/// Returns 0 for an ideal config.
double analytic_layer_vulnerability(const mapping::LayerMapping& m,
                                    const FaultConfig& faults);

/// Network-level aggregation: rms over the per-layer vulnerabilities,
/// clamped to [0, 1]. Both `plan::evaluate_plan` and the `EvaluationEngine`
/// use exactly this formula so their reports stay bit-identical.
double aggregate_network_vulnerability(const std::vector<double>& layer_vuln);

/// Convenience: maps every layer and aggregates, without building reports.
double analytic_network_vulnerability(
    const std::vector<nn::LayerSpec>& layers,
    const std::vector<mapping::CrossbarShape>& shapes,
    const FaultConfig& faults);

}  // namespace autohet::reram
