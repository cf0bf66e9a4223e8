#include "reram/faults.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace autohet::reram {

namespace {
/// E[v²] for v uniform over {0, …, 2^b − 1}: (2^b−1)(2^{b+1}−1)/6.
double mean_square_level(int bits) noexcept {
  const double top = static_cast<double>((1 << bits) - 1);
  return top * (2.0 * top + 1.0) / 6.0;
}
}  // namespace

FaultConfig FaultConfig::for_trial(std::uint64_t trial) const noexcept {
  FaultConfig out = *this;
  // SplitMix the trial index into an independent seed stream.
  std::uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL * (trial + 1));
  out.seed = common::splitmix64(sm);
  return out;
}

void FaultConfig::validate() const {
  AUTOHET_CHECK(stuck_at_zero_rate >= 0.0 && stuck_at_zero_rate <= 1.0 &&
                    stuck_at_one_rate >= 0.0 && stuck_at_one_rate <= 1.0 &&
                    stuck_at_zero_rate + stuck_at_one_rate <= 1.0,
                "stuck-at rates must be probabilities summing to <= 1");
  AUTOHET_CHECK(program_sigma >= 0.0 && read_sigma >= 0.0,
                "variation sigmas must be non-negative");
  AUTOHET_CHECK(drift_time_s >= 0.0 && drift_nu >= 0.0,
                "drift parameters must be non-negative");
  AUTOHET_CHECK(cell_bits > 0 && cell_bits <= 8 && 8 % cell_bits == 0,
                "cell_bits must divide 8");
}

WilsonInterval wilson_interval(double successes, double n, double z) {
  if (n <= 0.0) return {};
  const double p = successes / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double spread =
      z * std::sqrt((p * (1.0 - p) + z2 / (4.0 * n)) / n) / denom;
  return {std::max(0.0, center - spread), std::min(1.0, center + spread)};
}

void RobustnessBudget::validate() const {
  AUTOHET_CHECK(ci_halfwidth > 0.0 && ci_halfwidth < 1.0,
                "ci_halfwidth must be in (0, 1)");
  AUTOHET_CHECK(min_trials > 0, "min_trials must be positive");
  AUTOHET_CHECK(max_trials >= 0, "max_trials must be non-negative");
  AUTOHET_CHECK(max_trials == 0 || max_trials >= min_trials,
                "max_trials must be 0 or >= min_trials");
  AUTOHET_CHECK(chunk_trials > 0, "chunk_trials must be positive");
}

SequentialStopper::SequentialStopper(const RobustnessBudget& budget,
                                     int requested)
    : budget_(budget) {
  budget_.validate();
  AUTOHET_CHECK(requested > 0, "stopper needs a positive trial cap");
  cap_ = budget_.max_trials > 0 ? budget_.max_trials : requested;
  min_ = std::min(budget_.min_trials, cap_);
}

void SequentialStopper::add_trial(std::int64_t successes,
                                  std::int64_t samples) {
  AUTOHET_CHECK(samples > 0 && successes >= 0 && successes <= samples,
                "trial successes must be within the sample count");
  AUTOHET_CHECK(m_ == 0 || m_ == samples,
                "every trial must contribute the same sample count");
  m_ = samples;
  ++trials_;
  successes_ += successes;
  n_ += samples;
  const double p_t =
      static_cast<double>(successes) / static_cast<double>(samples);
  sum_p_ += p_t;
  sum_p2_ += p_t * p_t;
}

double SequentialStopper::design_effect() const noexcept {
  if (trials_ < 2 || m_ < 2) return 1.0;
  const double p = static_cast<double>(successes_) /
                   static_cast<double>(n_);
  if (p <= 0.0 || p >= 1.0) return 1.0;  // no spread ⇒ no clustering signal
  const double t = static_cast<double>(trials_);
  const double m = static_cast<double>(m_);
  // Unbiased between-trial variance of the per-trial proportions; p equals
  // their mean because every trial carries the same m.
  const double var_b =
      std::max(0.0, (sum_p2_ - t * p * p) / (t - 1.0));
  // Moment estimator: Var(p_t) = p(1−p)/m · (1 + (m−1)ρ), clamped to a
  // valid correlation.
  const double rho = std::clamp(
      (m * var_b / (p * (1.0 - p)) - 1.0) / (m - 1.0), 0.0, 1.0);
  return 1.0 + (m - 1.0) * rho;
}

WilsonInterval SequentialStopper::pooled_interval() const {
  if (n_ <= 0) return {};
  return wilson_interval(static_cast<double>(successes_),
                         static_cast<double>(n_));
}

WilsonInterval SequentialStopper::interval() const {
  if (n_ <= 0) return {};
  const double deff = design_effect();
  const double n_eff = static_cast<double>(n_) / deff;
  const double p = static_cast<double>(successes_) /
                   static_cast<double>(n_);
  return wilson_interval(p * n_eff, n_eff);
}

int SequentialStopper::next_boundary(int executed) const noexcept {
  const int target = executed < min_ ? min_ : executed + budget_.chunk_trials;
  return std::min(cap_, target);
}

bool SequentialStopper::should_stop() const noexcept {
  if (trials_ >= cap_) return true;
  if (trials_ < min_) return false;
  return pooled_interval().halfwidth() <= budget_.ci_halfwidth;
}

FaultConfig spanning_probe(const FaultConfig& config) noexcept {
  FaultConfig probe = config;
  // kRecordCap53 · 2⁻⁵³ = 2⁻⁴ exactly, so thr53(rate) lands on the cap.
  probe.stuck_at_zero_rate =
      static_cast<double>(FaultModel::kRecordCap53) * 0x1.0p-53;
  probe.stuck_at_one_rate = 0.0;
  return probe;
}

double FaultModel::level_noise_amplification(int cell_bits) noexcept {
  double scale_sum = 0.0;  // Σ_p 4^{p·b} over the 8/b planes
  for (int p = 0; p < 8 / cell_bits; ++p) {
    scale_sum += std::pow(4.0, static_cast<double>(p * cell_bits));
  }
  return std::sqrt(mean_square_level(cell_bits) * scale_sum);
}

FaultModel::FaultModel(const FaultConfig& config) : config_(config) {
  config_.validate();
  planes_ = 8 / config_.cell_bits;
  level_mask_ = (1u << config_.cell_bits) - 1u;
  drift_factor_ =
      (config_.drift_time_s > 0.0 && config_.drift_nu > 0.0)
          ? std::pow(1.0 + config_.drift_time_s, -config_.drift_nu)
          : 1.0;
  read_sigma_weights_ =
      config_.read_sigma * level_noise_amplification(config_.cell_bits);

  // Fast-kernel precompute. Retention drift multiplies every level by a
  // constant != 1, defeating the "level provably unchanged" shortcut, so
  // drifted configs stay on the reference path.
  fast_eligible_ = drift_factor_ == 1.0;
  // uniform() returns k·2⁻⁵³ with k = uniform_bits53(); multiplying a rate
  // by 2⁵³ is exact (pure exponent shift), so k·2⁻⁵³ < rate ⟺ k < ceil(T).
  const auto thr53 = [](double rate) {
    return static_cast<std::uint64_t>(std::ceil(rate * 0x1.0p53));
  };
  stuck_zero_thr53_ = thr53(config_.stuck_at_zero_rate);
  // The sum is rounded in double first, exactly as perturb_weight compares.
  stuck_sum_thr53_ =
      thr53(config_.stuck_at_zero_rate + config_.stuck_at_one_rate);
  if (fast_eligible_ && config_.program_sigma > 0.0) {
    // Marsaglia polar: the accepted pair (u, v) with s = u²+v² yields
    // deviates u·m and v·m with m = sqrt(−2 ln s / s), so |N| ≤ sqrt(−2 ln s)
    // (since |u|,|v| ≤ √s). Level L survives lround(L·exp(σN)) == L whenever
    // |σN| < ln(1 + 1/(2L)) — the tighter of the two rounding boundaries —
    // giving the sufficient condition s > exp(−(ln(1+1/(2L))/σ)²/2).
    level_s_safe_.assign(level_mask_ + 1u, 1.0);  // level 0 draws no normal
    for (unsigned level = 1; level <= level_mask_; ++level) {
      // The 1−1e−9 shrink keeps the bound conservative against the ~1-ulp
      // rounding of this precompute chain: borderline cells take the exact
      // slow path instead of being (wrongly) skipped.
      const double bound = (1.0 - 1e-9) *
                           std::log1p(0.5 / static_cast<double>(level)) /
                           config_.program_sigma;
      level_s_safe_[level] = std::exp(-0.5 * bound * bound);
    }
  }
}

std::int8_t FaultModel::perturb_weight(std::int8_t weight, common::Rng& rng,
                                       FaultMapStats& stats) const {
  const int b = config_.cell_bits;
  const auto offset = static_cast<unsigned>(static_cast<int>(weight) + 128);
  unsigned out = 0;
  for (int p = 0; p < planes_; ++p, ++stats.physical_cells) {
    double level = static_cast<double>((offset >> (p * b)) & level_mask_);
    // Programming variation: lognormal on the stored conductance level
    // (HRS level 0 stays 0 — an off cell has nothing to vary).
    if (config_.program_sigma > 0.0 && level > 0.0) {
      level *= std::exp(rng.normal(0.0, config_.program_sigma));
    }
    level *= drift_factor_;  // deterministic retention decay
    auto quantized = static_cast<unsigned>(std::clamp(
        std::lround(level), 0l, static_cast<long>(level_mask_)));
    // Stuck-at faults override whatever was programmed. One uniform draw
    // per physical cell whenever either rate is nonzero keeps the map a
    // pure function of the RNG stream position.
    if (config_.stuck_at_zero_rate > 0.0 || config_.stuck_at_one_rate > 0.0) {
      const double u = rng.uniform();
      if (u < config_.stuck_at_zero_rate) {
        quantized = 0;
        ++stats.stuck_at_zero;
      } else if (u < config_.stuck_at_zero_rate + config_.stuck_at_one_rate) {
        quantized = level_mask_;
        ++stats.stuck_at_one;
      }
    }
    out |= (quantized & level_mask_) << (p * b);
  }
  const auto perturbed =
      static_cast<std::int8_t>(static_cast<int>(out) - 128);
  if (perturbed != weight) ++stats.weights_changed;
  return perturbed;
}

FaultMapStats FaultModel::apply(std::span<std::int8_t> cells,
                                std::int64_t rows, std::int64_t cols,
                                std::int64_t row_stride,
                                std::uint64_t crossbar_id) const {
  if (!fast_eligible_) {
    return apply_reference(cells, rows, cols, row_stride, crossbar_id);
  }
  FaultMapStats stats;
  if (ideal()) return stats;
  AUTOHET_CHECK(rows >= 0 && cols >= 0 && row_stride >= cols,
                "invalid fault-map geometry");
  common::Rng rng = common::Rng(config_.seed).child(crossbar_id);
  stats = apply_fast<false>(cells, rows, cols, row_stride, rng, nullptr);
  OBS_COUNTER_ADD("autohet_fault_cells_total",
                  static_cast<std::uint64_t>(stats.physical_cells));
  OBS_COUNTER_ADD("autohet_fault_stuck_cells_total",
                  static_cast<std::uint64_t>(stats.stuck_at_zero +
                                             stats.stuck_at_one));
  return stats;
}

FaultMapStats FaultModel::apply_reference(std::span<std::int8_t> cells,
                                          std::int64_t rows, std::int64_t cols,
                                          std::int64_t row_stride,
                                          std::uint64_t crossbar_id) const {
  FaultMapStats stats;
  if (ideal()) return stats;
  AUTOHET_CHECK(rows >= 0 && cols >= 0 && row_stride >= cols,
                "invalid fault-map geometry");
  common::Rng rng = common::Rng(config_.seed).child(crossbar_id);
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int8_t* row = cells.data() + r * row_stride;
    for (std::int64_t c = 0; c < cols; ++c) {
      row[c] = perturb_weight(row[c], rng, stats);
    }
  }
  OBS_COUNTER_ADD("autohet_fault_cells_total",
                  static_cast<std::uint64_t>(stats.physical_cells));
  OBS_COUNTER_ADD("autohet_fault_stuck_cells_total",
                  static_cast<std::uint64_t>(stats.stuck_at_zero +
                                             stats.stuck_at_one));
  return stats;
}

template <bool kRecord>
FaultMapStats FaultModel::apply_fast(std::span<std::int8_t> cells,
                                     std::int64_t rows, std::int64_t cols,
                                     std::int64_t row_stride, common::Rng& rng,
                                     std::vector<StuckCandidate>* rec) const {
  switch (planes_) {
    case 8:
      return apply_fast_impl<8, kRecord>(cells, rows, cols, row_stride, rng,
                                         rec);
    case 4:
      return apply_fast_impl<4, kRecord>(cells, rows, cols, row_stride, rng,
                                         rec);
    case 2:
      return apply_fast_impl<2, kRecord>(cells, rows, cols, row_stride, rng,
                                         rec);
    default:
      return apply_fast_impl<1, kRecord>(cells, rows, cols, row_stride, rng,
                                         rec);
  }
}

FaultMapStats FaultModel::apply_recording(
    std::span<std::int8_t> cells, std::int64_t rows, std::int64_t cols,
    std::int64_t row_stride, std::uint64_t crossbar_id,
    std::vector<StuckCandidate>& out, StuckBucketEnds& bucket_ends) const {
  AUTOHET_CHECK(record_eligible(),
                "this fault config cannot be recorded (drift, zero stuck "
                "rates, or rates beyond the recording cap)");
  AUTOHET_CHECK(rows >= 0 && cols >= 0 && row_stride >= cols,
                "invalid fault-map geometry");
  AUTOHET_CHECK(rows * cols * planes_ <= 0xffffffffll,
                "crossbar too large for 32-bit plane indices");
  common::Rng rng = common::Rng(config_.seed).child(crossbar_id);
  // Every plane draws once and lands in a given bucket with probability
  // 2⁻⁸: reserving the mean plus four standard deviations makes regrowth
  // rare, and the concatenation below sizes `out` exactly.
  std::array<std::vector<StuckCandidate>, std::tuple_size_v<StuckBucketEnds>>
      bins;
  const double mean = static_cast<double>(rows * cols * planes_) * 0x1.0p-8;
  const auto expected =
      static_cast<std::size_t>(mean + 4.0 * std::sqrt(mean) + 8.0);
  for (auto& bin : bins) bin.reserve(expected);
  const FaultMapStats stats =
      apply_fast<true>(cells, rows, cols, row_stride, rng, bins.data());
  std::size_t total = 0;
  for (const auto& bin : bins) total += bin.size();
  out.clear();
  out.reserve(total);
  for (std::size_t b = 0; b < bins.size(); ++b) {
    out.insert(out.end(), bins[b].begin(), bins[b].end());
    bucket_ends[b] = static_cast<std::uint32_t>(out.size());
  }
  return stats;
}

FaultMapStats FaultModel::replay_stuck(
    std::span<std::int8_t> cells, std::int64_t cols, std::int64_t row_stride,
    std::span<const StuckCandidate> hits,
    const StuckBucketEnds& bucket_ends) const {
  FaultMapStats delta;
  // Buckets at or above the summed threshold hold no hit: read the leading
  // ⌈thr / 2⁴⁵⌉ of them (none at zero rates).
  const std::uint64_t width = std::uint64_t{1} << kRecordBucketShift;
  const std::size_t visit = std::min<std::size_t>(
      static_cast<std::size_t>((stuck_sum_thr53_ + width - 1) >>
                               kRecordBucketShift),
      bucket_ends.size());
  const std::size_t end = visit == 0 ? 0 : bucket_ends[visit - 1];
  AUTOHET_CHECK(end <= hits.size(),
                "bucket ends do not match the recorded candidates");
  const int b = config_.cell_bits;
  const auto planes = static_cast<std::uint32_t>(planes_);
  for (const StuckCandidate& hit : hits.first(end)) {
    if (hit.k >= stuck_sum_thr53_) continue;
    unsigned forced;
    if (hit.k < stuck_zero_thr53_) {
      forced = 0;
      ++delta.stuck_at_zero;
    } else {
      forced = level_mask_;
      ++delta.stuck_at_one;
    }
    const std::uint32_t cell = hit.plane / planes;
    const auto p = static_cast<int>(hit.plane % planes);
    std::int8_t& byte = cells[static_cast<std::size_t>(
        (cell / cols) * row_stride + cell % cols)];
    const std::int8_t before = byte;
    auto offset = static_cast<unsigned>(static_cast<int>(before) + 128);
    offset = (offset & ~(level_mask_ << (p * b))) | (forced << (p * b));
    byte = static_cast<std::int8_t>(static_cast<int>(offset) - 128);
    // Hits on one cell may sit in different buckets, so weights_changed is
    // corrected per hit; the terms telescope to [final != original] −
    // [post-variation != original] per cell (the recording counted the
    // latter).
    delta.weights_changed += static_cast<int>(byte != hit.original) -
                             static_cast<int>(before != hit.original);
  }
  return delta;
}

template <int kPlanes, bool kRecord>
FaultMapStats FaultModel::apply_fast_impl(
    std::span<std::int8_t> cells, std::int64_t rows, std::int64_t cols,
    std::int64_t row_stride, common::Rng& rng,
    std::vector<StuckCandidate>* rec) const {
  // Burn-in dominates Monte-Carlo robustness wall time (it touches every
  // physical cell of every trial fabric), so this kernel strips the per-cell
  // cost to raw RNG stream advancement wherever the result provably cannot
  // change. It replicates perturb_weight's stream consumption draw for draw:
  //   * the lognormal variation draws one polar-method normal per nonzero
  //     level — here the rejection loop runs identically, but the sqrt/log/
  //     exp/lround are skipped whenever s > level_s_safe_[L] proves the
  //     rounded level is unchanged (the overwhelmingly common case at
  //     realistic σ). The polar pair cache lives in locals: legal because
  //     this rng is crossbar-local and discarded when apply() returns.
  //   * the stuck-at uniform compares raw 53-bit draws against precomputed
  //     integer thresholds instead of materializing doubles.
  const int b = 8 / kPlanes;
  constexpr int planes = kPlanes;
  const unsigned mask = level_mask_;
  const double sigma = config_.program_sigma;
  const bool variation = sigma > 0.0;
  const bool stuck =
      config_.stuck_at_zero_rate > 0.0 || config_.stuck_at_one_rate > 0.0;
  // A zero weight encodes as offset 128 = top_level in the top plane alone
  // (for every cell_bits dividing 8), so its draw pattern is fixed.
  const unsigned top_level = 1u << (b - 1);
  const int top_shift = (planes - 1) * b;
  const double s_safe_top = variation ? level_s_safe_[top_level] : 1.0;
  FaultMapStats stats;
  stats.physical_cells = rows * cols * planes;
  // Polar pair cache (mirrors Rng::normal's cached second deviate, with the
  // value deferred: only s and the pair are kept until someone needs it).
  bool has_pending = false;
  double pu = 0.0, pv = 0.0, ps = 0.0;
  // Recording locals: flat plane-index base and original weight of the cell
  // currently being processed (unused when !kRecord).
  std::uint64_t rec_base = 0;
  std::int8_t rec_orig = 0;
  // uniform(-1, 1) = -1 + 2·(k·2⁻⁵³) with k = uniform_bits53(). The doubling
  // and the subtraction are both exact (k·2⁻⁵² and k·2⁻⁵² − 1 each fit in 53
  // significant bits since |k − 2⁵²| ≤ 2⁵²), so the single convert+multiply
  // below is bit-identical with a shorter dependency chain in the rejection
  // loop.
  const auto unit_draw = [&rng]() {
    return static_cast<double>(static_cast<std::int64_t>(rng.uniform_bits53()) -
                               (std::int64_t{1} << 52)) *
           0x1.0p-52;
  };
  const auto next_normal_su = [&](double& s, double& uv) {
    if (has_pending) {
      has_pending = false;
      s = ps;
      uv = pv;  // second deviate of the pair, as Rng::normal caches
    } else {
      do {
        pu = unit_draw();
        pv = unit_draw();
        ps = pu * pu + pv * pv;
      } while (ps >= 1.0 || ps == 0.0);
      has_pending = true;
      s = ps;
      uv = pu;
    }
  };
  // Rare: the deviate is large enough to possibly move the level.
  const auto requantize = [&](unsigned level, double s, double uv) {
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    const double noisy =
        static_cast<double>(level) * std::exp(sigma * (uv * m));
    return static_cast<unsigned>(
        std::clamp(std::lround(noisy), 0l, static_cast<long>(mask)));
  };
  // Files a captured draw under its bucket (see StuckBucketEnds).
  const auto record = [&](std::uint64_t k, int p) {
    const auto plane = rec_base + static_cast<std::uint64_t>(p);
    rec[k >> kRecordBucketShift].push_back(
        {k, static_cast<std::uint32_t>(plane), rec_orig});
  };
  const auto stuck_override = [&](unsigned& quantized, int p) {
    const std::uint64_t k = rng.uniform_bits53();
    if constexpr (kRecord) {
      (void)quantized;
      if (k < kRecordCap53) [[unlikely]] record(k, p);
    } else {
      (void)p;
      if (k < stuck_sum_thr53_) {
        if (k < stuck_zero_thr53_) {
          quantized = 0;
          ++stats.stuck_at_zero;
        } else {
          quantized = mask;
          ++stats.stuck_at_one;
        }
      }
    }
  };
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int8_t* row = cells.data() + r * row_stride;
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::int8_t weight = row[c];
      if (weight == 0) {
        // Zero weight — the vast majority of a sparsely used physical array
        // (stuck-at maps cover every cell, used or not). Its plane pattern
        // is known up front, so the per-plane `level > 0` test that costs
        // the generic path a mispredict per plane disappears: the lower
        // planes collapse to a straight run of stuck draws and only the top
        // plane draws variation. Stream consumption is identical.
        unsigned out = 0;
        if constexpr (kRecord) {
          rec_base =
              static_cast<std::uint64_t>(r * cols + c) * planes;
          rec_orig = 0;
        }
        if (stuck) {
          for (int p = 0; p < planes - 1; ++p) {
            const std::uint64_t k = rng.uniform_bits53();
            if constexpr (kRecord) {
              if (k < kRecordCap53) [[unlikely]] record(k, p);
            } else if (k < stuck_sum_thr53_) [[unlikely]] {
              if (k < stuck_zero_thr53_) {
                ++stats.stuck_at_zero;  // level was already 0
              } else {
                out |= mask << (p * b);
                ++stats.stuck_at_one;
              }
            }
          }
        }
        unsigned quantized = top_level;
        if (variation) {
          double s, uv;
          next_normal_su(s, uv);
          if (s <= s_safe_top) [[unlikely]] {
            quantized = requantize(top_level, s, uv);
          }
        }
        if (stuck) stuck_override(quantized, planes - 1);
        out |= (quantized & mask) << top_shift;
        const auto perturbed =
            static_cast<std::int8_t>(static_cast<int>(out) - 128);
        if (perturbed != 0) ++stats.weights_changed;
        row[c] = perturbed;
        continue;
      }
      const auto offset = static_cast<unsigned>(static_cast<int>(weight) + 128);
      if constexpr (kRecord) {
        rec_base = static_cast<std::uint64_t>(r * cols + c) * planes;
        rec_orig = weight;
      }
      // Branchless mask of planes holding a nonzero level. Iterating its set
      // bits (below) replaces `planes` unpredictable per-plane `level > 0`
      // branches — the dominant cost on random weights, where each plane
      // mispredicts half the time — with one loop whose trip count is the
      // set-plane count.
      unsigned plane_mask = 0;
      for (int p = 0; p < planes; ++p) {
        plane_mask |= ((offset >> (p * b)) & mask) ? 1u << p : 0u;
      }
      if (!variation) plane_mask = 0;  // no draws → every plane is stuck-only
      unsigned out = offset;
      // Planes outside the draw mask keep their stored level unless a stuck
      // draw hits (rare), so the run loops touch `out` only on a hit.
      const auto stuck_run = [&](int from, int to) {
        for (int rp = from; rp < to; ++rp) {
          const std::uint64_t k = rng.uniform_bits53();
          if constexpr (kRecord) {
            if (k < kRecordCap53) [[unlikely]] record(k, rp);
          } else if (k < stuck_sum_thr53_) [[unlikely]] {
            unsigned forced;
            if (k < stuck_zero_thr53_) {
              forced = 0;
              ++stats.stuck_at_zero;
            } else {
              forced = mask;
              ++stats.stuck_at_one;
            }
            out = (out & ~(mask << (rp * b))) | (forced << (rp * b));
          }
        }
      };
      int p = 0;
      unsigned pending_planes = plane_mask;
      while (pending_planes) {
        const int q = std::countr_zero(pending_planes);
        pending_planes &= pending_planes - 1;
        if (stuck) stuck_run(p, q);
        const unsigned level = (offset >> (q * b)) & mask;
        unsigned quantized = level;
        double s, uv;
        next_normal_su(s, uv);
        if (s <= level_s_safe_[level]) {
          quantized = requantize(level, s, uv);
        }
        if (stuck) stuck_override(quantized, q);
        out = (out & ~(mask << (q * b))) | (quantized << (q * b));
        p = q + 1;
      }
      if (stuck) stuck_run(p, planes);
      const auto perturbed =
          static_cast<std::int8_t>(static_cast<int>(out) - 128);
      if (perturbed != weight) ++stats.weights_changed;
      row[c] = perturbed;
    }
  }
  return stats;
}

double analytic_layer_vulnerability(const mapping::LayerMapping& m,
                                    const FaultConfig& faults) {
  if (faults.ideal()) return 0.0;
  faults.validate();
  const double drift_loss =
      (faults.drift_time_s > 0.0 && faults.drift_nu > 0.0)
          ? 1.0 - std::pow(1.0 + faults.drift_time_s, -faults.drift_nu)
          : 0.0;
  const double per_level_variance =
      faults.stuck_at_zero_rate + faults.stuck_at_one_rate +
      faults.program_sigma * faults.program_sigma +
      faults.read_sigma * faults.read_sigma + drift_loss * drift_loss;
  const double cell_error =
      std::sqrt(per_level_variance) *
      FaultModel::level_noise_amplification(faults.cell_bits) / 127.0;
  const double blocks = static_cast<double>(std::max<std::int64_t>(
      m.row_blocks, 1));
  return std::min(1.0, cell_error * std::sqrt(blocks));
}

double aggregate_network_vulnerability(const std::vector<double>& layer_vuln) {
  if (layer_vuln.empty()) return 0.0;
  double sum_sq = 0.0;
  for (const double v : layer_vuln) sum_sq += v * v;
  return std::min(1.0,
                  std::sqrt(sum_sq / static_cast<double>(layer_vuln.size())));
}

double analytic_network_vulnerability(
    const std::vector<nn::LayerSpec>& layers,
    const std::vector<mapping::CrossbarShape>& shapes,
    const FaultConfig& faults) {
  AUTOHET_CHECK(layers.size() == shapes.size(),
                "layers and shapes must be the same length");
  std::vector<double> vuln;
  vuln.reserve(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    vuln.push_back(analytic_layer_vulnerability(
        mapping::map_layer(layers[i], shapes[i]), faults));
  }
  return aggregate_network_vulnerability(vuln);
}

}  // namespace autohet::reram
