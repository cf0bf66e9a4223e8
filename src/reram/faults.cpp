#include "reram/faults.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace autohet::reram {

namespace {
/// E[v²] for v uniform over {0, …, 2^b − 1}: (2^b−1)(2^{b+1}−1)/6.
double mean_square_level(int bits) noexcept {
  const double top = static_cast<double>((1 << bits) - 1);
  return top * (2.0 * top + 1.0) / 6.0;
}

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
/// The number of 52-bit draws k: every threshold lies in [0, kDraws].
constexpr std::uint64_t kDraws = std::uint64_t{1} << 52;

/// The top 52 bits of the SplitMix64 finalizer of state `z`: the keyed draw
/// of counter c under a (seed, layer) base is mix52(base + c·γ) (see
/// FaultModel).
inline std::uint64_t mix52(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) >> 12;
}

/// One block burn: the block, its key base and the config's thresholds.
struct BlockBurn {
  std::int8_t* cells;
  std::int64_t rows, cols;
  std::uint64_t base;
  std::int64_t row0, col0;
  std::uint64_t zero_thr, stuck_thr;
  const std::uint64_t* bounds;  ///< null when no level can move
  const std::uint64_t* stay_lo;
  const std::uint64_t* stay_hi;
};

/// Burns the block at kBits bits per cell (see FaultModel). `b` is taken by
/// value: the cell loop's int8 stores may alias any memory, so fields read
/// through a pointer would be reloaded on every cell. A weight's plane draws
/// are taken together and tested without branches; only a weight with a
/// stuck plane or a moved level takes the per-plane path.
template <int kBits>
FaultMapStats burn_block(const BlockBurn b) {
  constexpr int planes = 8 / kBits;
  constexpr unsigned mask = (1u << kBits) - 1u;
  FaultMapStats stats;
  stats.physical_cells = b.rows * b.cols * planes;
  const bool stuck = b.stuck_thr > 0;
  const bool varies = b.bounds != nullptr;
  if (!stuck && !varies) return stats;
  for (std::int64_t i = 0; i < b.rows; ++i) {
    std::int8_t* row = b.cells + i * b.cols;
    // The SplitMix64 state of slot 0 of weight (row0 + i, col0 + j).
    std::uint64_t z = b.base + ((static_cast<std::uint64_t>(b.row0 + i) << 32) +
                                (static_cast<std::uint64_t>(b.col0) << 4)) *
                                   kGamma;
    for (std::int64_t j = 0; j < b.cols; ++j, z += 16 * kGamma) {
      const std::int8_t weight = row[j];
      const auto offset = static_cast<unsigned>(static_cast<int>(weight) + 128);
      std::uint64_t k_stuck[planes] = {};
      std::uint64_t k_vary[planes] = {};
      unsigned hits = 0;
      for (int p = 0; p < planes; ++p) {
        const std::uint64_t slot = z + static_cast<std::uint64_t>(p) * kGamma;
        if (stuck) {
          k_stuck[p] = mix52(slot);
          hits |= static_cast<unsigned>(k_stuck[p] < b.stuck_thr) << p;
        }
        if (varies) {
          // Level 0 stays put: its range is [0, kDraws).
          const unsigned level = (offset >> (p * kBits)) & mask;
          k_vary[p] = mix52(slot + 8 * kGamma);
          hits |= static_cast<unsigned>((k_vary[p] < b.stay_lo[level]) |
                                        (k_vary[p] >= b.stay_hi[level]))
                  << p;
        }
      }
      if (hits == 0) continue;
      unsigned out = offset;
      for (int p = 0; p < planes; ++p) {
        if (((hits >> p) & 1u) == 0) continue;
        unsigned level;
        if (stuck && k_stuck[p] < b.stuck_thr) {
          if (k_stuck[p] < b.zero_thr) {
            level = 0;
            ++stats.stuck_at_zero;
          } else {
            level = mask;
            ++stats.stuck_at_one;
          }
        } else {
          const unsigned from = (offset >> (p * kBits)) & mask;
          const std::uint64_t* bound = b.bounds + std::size_t{from} * mask;
          level = static_cast<unsigned>(
              std::upper_bound(bound, bound + mask, k_vary[p]) - bound);
        }
        out = (out & ~(mask << (p * kBits))) | (level << (p * kBits));
      }
      const auto perturbed =
          static_cast<std::int8_t>(static_cast<int>(out) - 128);
      stats.weights_changed += perturbed != weight;
      row[j] = perturbed;
    }
  }
  return stats;
}

/// The number of draws k whose uniform (k + ½)·2⁻⁵² lies below `p`: the k
/// with 2k + 1 < p·2⁵³. The product is exact, and so are y − 1 and the
/// halving for y in (1, 2⁵³], so `k < threshold(p)` ⟺ u < p exactly.
std::uint64_t threshold(double p) {
  const double y = std::min(p, 1.0) * 0x1.0p53;
  if (!(y > 1.0)) return 0;
  return static_cast<std::uint64_t>(std::ceil((y - 1.0) / 2.0));
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
  zero_thr_ = threshold(config_.stuck_at_zero_rate);
  // The sum is rounded in double first, as `u < z₀ + z₁` rounds it.
  stuck_thr_ =
      threshold(config_.stuck_at_zero_rate + config_.stuck_at_one_rate);
  if (config_.program_sigma == 0.0) return;
  // Level L lands at most on j ⟺ L·exp(σZ) < j + ½ ⟺ u < Φ(ln((j+½)/L)/σ).
  const unsigned mask = level_mask_;
  std::vector<std::uint64_t> bounds(std::size_t{mask + 1} * mask, 0);
  std::vector<std::uint64_t> lo(mask + 1, 0), hi(mask + 1, kDraws);
  bool moves = false;
  for (unsigned level = 1; level <= mask; ++level) {
    std::uint64_t* row = bounds.data() + std::size_t{level} * mask;
    for (unsigned j = 0; j < mask; ++j) {
      const double z = std::log((static_cast<double>(j) + 0.5) /
                                static_cast<double>(level)) /
                       config_.program_sigma;
      row[j] = threshold(0.5 * std::erfc(-z / std::numbers::sqrt2));
    }
    lo[level] = row[level - 1];
    if (level < mask) hi[level] = row[level];
    moves = moves || lo[level] > 0 || hi[level] < kDraws;
  }
  if (!moves) return;
  bounds_ = std::move(bounds);
  stay_lo_ = std::move(lo);
  stay_hi_ = std::move(hi);
}

FaultMapStats FaultModel::burn(std::span<std::int8_t> cells,
                               std::int64_t rows, std::int64_t cols,
                               const BurnKey& key) const {
  if (ideal()) return {};
  AUTOHET_CHECK(rows >= 0 && cols >= 0, "invalid fault-map geometry");
  AUTOHET_CHECK(cells.size() == static_cast<std::size_t>(rows * cols),
                "burn block size differs from its cells");
  AUTOHET_CHECK(key.row0 >= 0 && key.col0 >= 0 &&
                    key.row0 + rows <= (std::int64_t{1} << 32) &&
                    key.col0 + cols <= (std::int64_t{1} << 28),
                "weight coordinates beyond the keyed draw space");
  std::uint64_t base = key.seed ^ ((key.layer + 1) * kGamma);
  base = common::splitmix64(base);
  const BlockBurn block{cells.data(),
                        rows,
                        cols,
                        base,
                        key.row0,
                        key.col0,
                        zero_thr_,
                        stuck_thr_,
                        bounds_.empty() ? nullptr : bounds_.data(),
                        stay_lo_.data(),
                        stay_hi_.data()};
  FaultMapStats stats;
  switch (config_.cell_bits) {
    case 1:
      stats = burn_block<1>(block);
      break;
    case 2:
      stats = burn_block<2>(block);
      break;
    case 4:
      stats = burn_block<4>(block);
      break;
    default:
      stats = burn_block<8>(block);
      break;
  }
  OBS_COUNTER_ADD("autohet_fault_cells_total",
                  static_cast<std::uint64_t>(stats.physical_cells));
  OBS_COUNTER_ADD("autohet_fault_stuck_cells_total",
                  static_cast<std::uint64_t>(stats.stuck_at_zero +
                                             stats.stuck_at_one));
  return stats;
}

FaultMapStats FaultModel::apply(std::span<std::int8_t> cells,
                                std::int64_t rows, std::int64_t cols,
                                std::uint64_t layer) const {
  return burn(cells, rows, cols, BurnKey{config_.seed, layer, 0, 0});
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
