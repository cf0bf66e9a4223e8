// Exploration noise for DDPG.
#pragma once

#include "common/rng.hpp"

namespace autohet::rl {

/// Gaussian noise with multiplicative per-episode decay, as in HAQ-style
/// searches.
class DecayingGaussian {
 public:
  explicit DecayingGaussian(double sigma = 0.5, double decay = 0.99,
                            double min_sigma = 0.02)
      : sigma_(sigma), decay_(decay), min_sigma_(min_sigma) {}

  double sample(common::Rng& rng) noexcept { return sigma_ * rng.normal(); }
  void decay() noexcept {
    sigma_ *= decay_;
    if (sigma_ < min_sigma_) sigma_ = min_sigma_;
  }
  double sigma() const noexcept { return sigma_; }

 private:
  double sigma_;
  double decay_;
  double min_sigma_;
};

}  // namespace autohet::rl
