// Prioritized experience replay (Schaul et al.): transitions are sampled
// proportionally to |TD error|^alpha instead of uniformly, with
// importance-sampling weights correcting the induced bias. An optional
// upgrade over the paper's plain experience pool for the deep-model
// searches where informative transitions are rare.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "rl/replay_buffer.hpp"

namespace autohet::rl {

class PrioritizedReplayBuffer {
 public:
  /// `alpha` controls prioritization strength (0 = uniform).
  PrioritizedReplayBuffer(std::size_t capacity, double alpha = 0.6,
                          double epsilon = 1e-3);

  /// Adds with the current maximum priority so new transitions are seen at
  /// least once.
  void add(Transition t);

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return storage_.size(); }

  struct Sample {
    const Transition* transition = nullptr;
    std::size_t index = 0;   ///< pass back to update_priority
    double weight = 1.0;     ///< normalized importance-sampling weight
  };

  /// Proportional sampling with replacement; `beta` is the IS-correction
  /// exponent (1 = full correction). Weights are normalized by the batch
  /// maximum. Written into scratch the buffer owns (no allocation in steady
  /// state); the list stays valid until the next sample().
  const std::vector<Sample>& sample(common::Rng& rng, std::size_t batch,
                                    double beta);

  /// Sets the priority of a sampled transition from its fresh |TD error|.
  void update_priority(std::size_t index, double td_error_abs);

 private:
  std::vector<Transition> storage_;
  std::vector<double> priorities_;  ///< already raised to alpha
  std::vector<double> prefix_;      ///< sample() scratch: priority prefix sums
  std::vector<Sample> sampled_;     ///< sample() scratch: the drawn batch
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  double alpha_;
  double epsilon_;
  double max_priority_ = 1.0;  ///< in p^alpha space
};

}  // namespace autohet::rl
