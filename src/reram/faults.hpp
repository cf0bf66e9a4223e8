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
//   * Stuck-at faults. Every physical cell of a programmed weight is
//     independently stuck-at-0 (level forced to 0, HRS) with probability
//     `stuck_at_zero_rate` and stuck-at-1 (level forced to 2^b − 1, LRS)
//     with probability `stuck_at_one_rate`. The fault map is a pure
//     function of (seed, layer, weight row, weight col, plane): same seed ⇒
//     same map, whatever crossbar shape holds the layer.
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
// `LogicalCrossbar::burn` per crossbar), one keyed draw per physical cell
// (FaultModel). A default `FaultConfig{}` is ideal: nothing is drawn and
// every output stays bit-identical to the fault-free build (tested).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

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

  /// True when every non-ideality is off; the fault machinery then draws
  /// nothing and programmed arrays stay bit-identical.
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
  /// Physical cells burned: programmed weights × planes (8 / cell_bits),
  /// the same for every crossbar shape.
  std::int64_t physical_cells = 0;
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

/// Where a block of programmed weights sits in the keyed draw space (see
/// FaultModel): the trial's seed, the layer and the layer-weight
/// coordinates of the block's first cell.
struct BurnKey {
  std::uint64_t seed = 0;   ///< the trial's FaultConfig::seed
  std::uint64_t layer = 0;  ///< mappable-layer index
  std::int64_t row0 = 0;    ///< weight row the block's row 0 holds
  std::int64_t col0 = 0;    ///< weight column the block's column 0 holds
};

/// Burns a FaultConfig into programmed weights with draws keyed by logical
/// weight. Every (seed, layer, weight row r, weight col c, plane p) owns two
/// counter-based 64-bit draws, SplitMix64 outputs at fixed counters:
///
///   base    = splitmix64(seed ^ (layer + 1)·γ)     (one SplitMix64 step)
///   counter = r·2³² + c·2⁴ + slot,  slot = p (stuck) or 8 + p (variation)
///   draw    = mix(base + counter·γ)                (SplitMix64 finalizer)
///
/// with γ = 0x9e3779b97f4a7c15 (Salmon et al., "Parallel Random Numbers: As
/// Easy as 1, 2, 3", SC'11, for the counter-based idea). A draw's top 52
/// bits k stand for the uniform u = (k + ½)·2⁻⁵², strictly inside (0, 1).
///
///   * Stuck-at: the plane is stuck-at-0 when u < stuck_at_zero_rate and
///     stuck-at-1 when u < stuck_at_zero_rate + stuck_at_one_rate. A
///     plane's stuck draw ignores the rates, so the stuck set at rate r is
///     a subset of the stuck set at every r' > r.
///   * Variation (non-stuck planes with a nonzero level L): the level
///     becomes round(L·exp(σZ)) clamped to [0, 2^b − 1], with Z = Φ⁻¹(u)
///     of the variation draw. It lands on j exactly when u lies in
///     [Φ(ln((j − ½)/L)/σ), Φ(ln((j + ½)/L)/σ)) (from 0 for j = 0, to 1
///     for the top level), so the burn compares k
///     against integer thresholds built once per config from those Φ
///     values; no transcendental runs per cell. A config whose thresholds
///     can move no level takes no variation draw.
///
/// Nothing depends on the crossbar shape, so a layer burns to the same
/// logical weights under every allocation. Only the programmed weights
/// burn: the empty cells of a crossbar are never read. Stateless across
/// calls.
///
/// The per-block loop is the `burn_block` op of the reram kernel table
/// (kernels/kernels.hpp): burn() checks the block, derives the key base and
/// hands the thresholds to `kernels::ops()`. The vector variants draw
/// consecutive weights of a row in lanes (8 per zmm on avx512); every
/// variant burns the same cells and counts.
class FaultModel {
 public:
  explicit FaultModel(const FaultConfig& config);

  const FaultConfig& config() const noexcept { return config_; }
  bool ideal() const noexcept { return config_.ideal(); }

  /// Burns the rows × cols block of two's-complement weights `cells`
  /// (row-major, exactly rows·cols of them) in place under `key`: cell
  /// (i, j) holds weight (key.row0 + i, key.col0 + j) of layer key.layer.
  /// Returns the block's counts. An ideal config touches nothing.
  FaultMapStats burn(std::span<std::int8_t> cells, std::int64_t rows,
                     std::int64_t cols, const BurnKey& key) const;

  /// burn() under config().seed of a block at weight (0, 0) of `layer`.
  FaultMapStats apply(std::span<std::int8_t> cells, std::int64_t rows,
                      std::int64_t cols, std::uint64_t layer) const;

  /// Effective weight-space rms error per unit σ of per-level lognormal
  /// noise: A(b) = sqrt(E[v²] · Σ_p 4^{p·b}) with v uniform over the level
  /// grid. Grows with cell_bits — multi-bit cells pack tighter levels, so
  /// the same conductance spread costs more weight-space error.
  static double level_noise_amplification(int cell_bits) noexcept;

 private:
  FaultConfig config_;
  std::uint64_t zero_thr_ = 0;   ///< stuck-at-0 ⟺ k < this
  std::uint64_t stuck_thr_ = 0;  ///< stuck ⟺ k < this
  /// Variation thresholds, empty when no level can move: level L lands at
  /// most on j ⟺ k < bounds_[L·mask + j] (j = 0 … mask − 1), and keeps L ⟺
  /// k ∈ [bounds_[L·mask + L − 1], bounds_[L·mask + L]) (the ends clamped).
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> stay_lo_, stay_hi_;  ///< indexed by level
};

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
