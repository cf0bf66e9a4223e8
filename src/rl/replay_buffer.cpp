#include "rl/replay_buffer.hpp"

#include "common/error.hpp"

namespace autohet::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : storage_(capacity) {
  AUTOHET_CHECK(capacity > 0, "replay capacity must be positive");
}

void ReplayBuffer::add(Transition t) {
  storage_[next_] = std::move(t);
  next_ = (next_ + 1) % storage_.size();
  if (size_ < storage_.size()) ++size_;
}

const std::vector<const Transition*>& ReplayBuffer::sample(common::Rng& rng,
                                                           std::size_t batch) {
  AUTOHET_CHECK(size_ > 0, "cannot sample from an empty replay buffer");
  sampled_.resize(batch);
  for (auto& t : sampled_) t = &storage_[rng.uniform_u64(size_)];
  return sampled_;
}

}  // namespace autohet::rl
