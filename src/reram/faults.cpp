#include "reram/faults.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "reram/kernels/kernels.hpp"

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
  AUTOHET_CHECK(program_sigma >= 0.0,
                "program_sigma must be non-negative");
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
  // kRecordCap53 · 2⁻⁵³ = 2⁻⁶ exactly, so thr53(rate) lands on the cap.
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

  // Burn-kernel precompute. uniform() returns k·2⁻⁵³ with k = uniform_bits53(); multiplying a rate
  // by 2⁵³ is exact (pure exponent shift), so k·2⁻⁵³ < rate ⟺ k < ceil(T).
  const auto thr53 = [](double rate) {
    return static_cast<std::uint64_t>(std::ceil(rate * 0x1.0p53));
  };
  stuck_zero_thr53_ = thr53(config_.stuck_at_zero_rate);
  // The sum is rounded in double first, as the per-cell compare does.
  stuck_sum_thr53_ =
      thr53(config_.stuck_at_zero_rate + config_.stuck_at_one_rate);
  if (config_.program_sigma > 0.0) {
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

void FaultModel::burn(std::span<BurnTarget> targets, std::int64_t rows,
                      std::int64_t cols, std::int64_t row_stride,
                      std::uint64_t crossbar_id) const {
  if (targets.empty()) return;
  const bool record = targets.front().hits != nullptr;
  for (const BurnTarget& t : targets) {
    AUTOHET_CHECK((t.hits != nullptr) == record &&
                      (t.bucket_ends != nullptr) == record,
                  "a burn records for every target or for none");
  }
  if (record) {
    AUTOHET_CHECK(record_eligible(),
                  "this fault config cannot be recorded (zero stuck rates, "
                  "or rates beyond the recording cap)");
  } else if (ideal()) {
    for (BurnTarget& t : targets) t.stats = {};
    return;
  }
  AUTOHET_CHECK(rows >= 0 && cols >= 0 && row_stride >= cols,
                "invalid fault-map geometry");
  AUTOHET_CHECK(!record || rows * cols * planes_ <= 0xffffffffll,
                "crossbar too large for 32-bit plane indices");
  const auto extent = static_cast<std::size_t>(
      rows == 0 ? 0 : (rows - 1) * row_stride + cols);
  for (const BurnTarget& t : targets) {
    AUTOHET_CHECK(t.cells.size() >= extent,
                  "burn target smaller than its fault-map geometry");
  }
  const kernels::BurnSpec spec{
      planes_,
      config_.program_sigma,
      config_.stuck_at_zero_rate > 0.0 || config_.stuck_at_one_rate > 0.0,
      record,
      stuck_zero_thr53_,
      stuck_sum_thr53_,
      level_s_safe_.data()};
  // A recording lane files its draws into one vector per bucket; every
  // plane lands in a given bucket with probability 2⁻⁸, so reserving the
  // mean plus four standard deviations makes regrowth rare, and the
  // concatenation below sizes `hits` exactly.
  using Bins = std::array<std::vector<StuckCandidate>,
                          std::tuple_size_v<StuckBucketEnds>>;
  std::vector<Bins> bins(record ? targets.size() : 0);
  const double mean = static_cast<double>(rows * cols * planes_) * 0x1.0p-8;
  const auto expected =
      static_cast<std::size_t>(mean + 4.0 * std::sqrt(mean) + 8.0);
  std::vector<kernels::BurnLane> lanes(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    lanes[i].rng = common::Rng(targets[i].seed).child(crossbar_id);
    lanes[i].cells = targets[i].cells.data();
    lanes[i].stats = &targets[i].stats;
    if (record) {
      for (auto& bin : bins[i]) bin.reserve(expected);
      lanes[i].bins = bins[i].data();
    }
  }
  kernels::ops().burn(spec, rows, cols, row_stride, lanes.data(),
                      lanes.size());
  for (std::size_t i = 0; i < bins.size(); ++i) {
    std::size_t total = 0;
    for (const auto& bin : bins[i]) total += bin.size();
    std::vector<StuckCandidate>& out = *targets[i].hits;
    out.clear();
    out.reserve(total);
    for (std::size_t b = 0; b < bins[i].size(); ++b) {
      out.insert(out.end(), bins[i][b].begin(), bins[i][b].end());
      (*targets[i].bucket_ends)[b] = static_cast<std::uint32_t>(out.size());
    }
  }
  if (record) return;  // a recording's counts are completed by its replays
  for (const BurnTarget& t : targets) {
    OBS_COUNTER_ADD("autohet_fault_cells_total",
                    static_cast<std::uint64_t>(t.stats.physical_cells));
    OBS_COUNTER_ADD("autohet_fault_stuck_cells_total",
                    static_cast<std::uint64_t>(t.stats.stuck_at_zero +
                                               t.stats.stuck_at_one));
  }
}

FaultMapStats FaultModel::apply(std::span<std::int8_t> cells,
                                std::int64_t rows, std::int64_t cols,
                                std::int64_t row_stride,
                                std::uint64_t crossbar_id) const {
  BurnTarget target;
  target.seed = config_.seed;
  target.cells = cells;
  burn(std::span(&target, 1), rows, cols, row_stride, crossbar_id);
  return target.stats;
}

FaultMapStats FaultModel::apply_recording(
    std::span<std::int8_t> cells, std::int64_t rows, std::int64_t cols,
    std::int64_t row_stride, std::uint64_t crossbar_id,
    std::vector<StuckCandidate>& out, StuckBucketEnds& bucket_ends) const {
  BurnTarget target;
  target.seed = config_.seed;
  target.cells = cells;
  target.hits = &out;
  target.bucket_ends = &bucket_ends;
  burn(std::span(&target, 1), rows, cols, row_stride, crossbar_id);
  return target.stats;
}

FaultMapStats FaultModel::replay_stuck(
    std::span<std::int8_t> cells, std::int64_t cols, std::int64_t row_stride,
    std::span<const StuckCandidate> hits,
    const StuckBucketEnds& bucket_ends) const {
  // Zero rates force nothing and stay replayable; any other config must be
  // recordable, or the draws in [cap, threshold) it needs were never kept.
  AUTOHET_CHECK(record_eligible() || stuck_sum_thr53_ == 0,
                "this fault config cannot be replayed (rates beyond the "
                "recording cap)");
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

double analytic_layer_vulnerability(const mapping::LayerMapping& m,
                                    const FaultConfig& faults) {
  if (faults.ideal()) return 0.0;
  faults.validate();
  const double per_level_variance =
      faults.stuck_at_zero_rate + faults.stuck_at_one_rate +
      faults.program_sigma * faults.program_sigma;
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
