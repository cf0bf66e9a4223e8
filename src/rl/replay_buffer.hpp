// The experience pool (paper §3.2): a fixed-capacity ring buffer of
// (S_k, S_{k+1}, a_k, R) transitions with uniform minibatch sampling.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace autohet::rl {

struct Transition {
  std::vector<double> state;
  std::vector<double> next_state;
  double action = 0.0;  ///< continuous action in [0, 1]
  double reward = 0.0;
  bool terminal = false;  ///< last layer of the episode
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  void add(Transition t);
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return storage_.size(); }

  /// Uniform sample with replacement of `batch` transitions, written into
  /// scratch the buffer owns (no allocation once it has grown to `batch`).
  /// The list stays valid until the next sample(); the pointers until the
  /// next add().
  const std::vector<const Transition*>& sample(common::Rng& rng,
                                               std::size_t batch);

 private:
  std::vector<Transition> storage_;
  std::vector<const Transition*> sampled_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
};

}  // namespace autohet::rl
