#include "rl/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "rl/kernels/dense.hpp"

namespace autohet::rl {

double apply_activation(Activation a, double x) noexcept {
  switch (a) {
    case Activation::kLinear:
      return x;
    case Activation::kRelu:
      return x > 0.0 ? x : 0.0;
    case Activation::kTanh:
      return std::tanh(x);
    case Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

double activation_grad_from_output(Activation a, double y) noexcept {
  switch (a) {
    case Activation::kLinear:
      return 1.0;
    case Activation::kRelu:
      return y > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh:
      return 1.0 - y * y;
    case Activation::kSigmoid:
      return y * (1.0 - y);
  }
  return 1.0;
}

Mlp::Mlp(std::vector<int> sizes, std::vector<Activation> activations,
         common::Rng& rng)
    : sizes_(std::move(sizes)), activations_(std::move(activations)) {
  AUTOHET_CHECK(sizes_.size() >= 2, "MLP needs at least input and output");
  AUTOHET_CHECK(activations_.size() == sizes_.size() - 1,
                "one activation per affine layer required");
  for (int s : sizes_) AUTOHET_CHECK(s > 0, "layer sizes must be positive");

  std::size_t total = 0;
  offsets_.reserve(sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    offsets_.push_back(total);
    total += static_cast<std::size_t>(sizes_[l + 1]) *
                 static_cast<std::size_t>(sizes_[l]) +
             static_cast<std::size_t>(sizes_[l + 1]);
  }
  params_.resize(total);
  grads_.assign(total, 0.0);

  // Xavier/Glorot uniform initialization; biases start at zero.
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    const double limit =
        std::sqrt(6.0 / static_cast<double>(sizes_[l] + sizes_[l + 1]));
    double* w = params_.data() + weight_offset(l);
    const std::size_t n = static_cast<std::size_t>(sizes_[l + 1] * sizes_[l]);
    for (std::size_t i = 0; i < n; ++i) w[i] = rng.uniform(-limit, limit);
    double* b = params_.data() + bias_offset(l);
    std::fill(b, b + sizes_[l + 1], 0.0);
  }
}

const std::vector<double>& Mlp::forward_batch(const double* x,
                                              std::size_t batch,
                                              BatchCache& cache) const {
  AUTOHET_CHECK(x != nullptr && batch > 0, "empty batch");
  cache.batch = batch;
  cache.post.resize(sizes_.size());
  const auto in0 = static_cast<std::size_t>(sizes_.front());
  cache.post[0].assign(x, x + batch * in0);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    const auto in = static_cast<std::size_t>(sizes_[l]);
    const auto out = static_cast<std::size_t>(sizes_[l + 1]);
    const std::vector<double>& X = cache.post[l];
    std::vector<double>& Y = cache.post[l + 1];
    Y.resize(batch * out);
    // Transpose W (out×in) into wt (in×out) so the inner accumulation runs
    // unit-stride over independent output neurons.
    cache.wt.resize(in * out);
    const double* w = params_.data() + weight_offset(l);
    for (std::size_t o = 0; o < out; ++o) {
      for (std::size_t i = 0; i < in; ++i) cache.wt[i * out + o] = w[o * in + i];
    }
    const double* b = params_.data() + bias_offset(l);
    const Activation act = activations_[l];
    for (std::size_t s = 0; s < batch; ++s) {
      std::copy(b, b + out, Y.data() + s * out);
    }
    // Y[s][o] = b[o] + Σ_i X[s][i]·wt[i][o], i ascending.
    kernels::ops().gemm_acc(batch, in, out, X.data(), in, 1, cache.wt.data(),
                            out, Y.data(), out);
    // Activation applied over the whole batch; the ReLU case is written
    // branchless so it vectorizes (the switch stays outside the loop).
    double* Yd = Y.data();
    const std::size_t n = batch * out;
    switch (act) {
      case Activation::kLinear:
        break;
      case Activation::kRelu:
        for (std::size_t idx = 0; idx < n; ++idx)
          Yd[idx] = Yd[idx] > 0.0 ? Yd[idx] : 0.0;
        break;
      default:
        for (std::size_t idx = 0; idx < n; ++idx)
          Yd[idx] = apply_activation(act, Yd[idx]);
        break;
    }
  }
  return cache.post.back();
}

void Mlp::backward_batch(BatchCache& cache,
                         std::span<const double> grad_output,
                         std::vector<double>* grad_input,
                         bool accumulate_param_grads) {
  const std::size_t batch = cache.batch;
  AUTOHET_CHECK(cache.post.size() == sizes_.size(),
                "cache does not match network depth");
  AUTOHET_CHECK(grad_output.size() ==
                    batch * static_cast<std::size_t>(sizes_.back()),
                "grad_output size mismatch");
  cache.delta.assign(grad_output.begin(), grad_output.end());
  for (std::size_t l = sizes_.size() - 1; l-- > 0;) {
    const auto in = static_cast<std::size_t>(sizes_[l]);
    const auto out = static_cast<std::size_t>(sizes_[l + 1]);
    const std::vector<double>& Y = cache.post[l + 1];
    const std::vector<double>& X = cache.post[l];
    const Activation act = activations_[l];
    // Through the activation: delta ← delta ⊙ f'(y). ReLU branchless as in
    // forward_batch.
    switch (act) {
      case Activation::kLinear:
        break;
      case Activation::kRelu:
        for (std::size_t idx = 0; idx < batch * out; ++idx)
          cache.delta[idx] = Y[idx] > 0.0 ? cache.delta[idx] : 0.0;
        break;
      default:
        for (std::size_t idx = 0; idx < batch * out; ++idx)
          cache.delta[idx] *= activation_grad_from_output(act, Y[idx]);
        break;
    }
    const double* w = params_.data() + weight_offset(l);
    double* gw = grads_.data() + weight_offset(l);
    double* gb = grads_.data() + bias_offset(l);
    // dL/d(input) is only needed below the bottom layer when the caller
    // asked for it; skipping it there changes no other value.
    const bool need_input_grad = (l > 0) || (grad_input != nullptr);
    const kernels::Ops& k = kernels::ops();
    if (accumulate_param_grads) {
      // gb[o] += Σ_s delta[s][o] and gw[o][i] += Σ_s delta[s][o]·X[s][i],
      // both s ascending — the order one-sample passes accumulate in.
      for (std::size_t o = 0; o < out; ++o) {
        double acc = gb[o];
        for (std::size_t s = 0; s < batch; ++s)
          acc += cache.delta[s * out + o];
        gb[o] = acc;
      }
      k.gemm_acc(out, batch, in, cache.delta.data(), 1, out, X.data(), in, gw,
                 in);
    }
    if (need_input_grad) {
      // next_delta[s][i] = Σ_o delta[s][o]·w[o][i], o ascending.
      cache.next_delta.assign(batch * in, 0.0);
      k.gemm_acc(batch, out, in, cache.delta.data(), out, 1, w, in,
                 cache.next_delta.data(), in);
      cache.delta.swap(cache.next_delta);
    }
  }
  if (grad_input != nullptr) *grad_input = cache.delta;
}

void Mlp::zero_grads() { std::fill(grads_.begin(), grads_.end(), 0.0); }

void Mlp::soft_update_from(const Mlp& src, double tau) {
  AUTOHET_CHECK(src.params_.size() == params_.size(),
                "soft update requires identical architectures");
  kernels::ops().soft_update(params_.data(), src.params_.data(),
                             params_.size(), tau);
}

void Mlp::copy_params_from(const Mlp& src) {
  AUTOHET_CHECK(src.params_.size() == params_.size(),
                "copy requires identical architectures");
  params_ = src.params_;
}

}  // namespace autohet::rl
