// Dense multi-layer perceptron with manual backpropagation.
//
// Small and allocation-friendly: parameters live in one flat vector so the
// Adam optimizer and DDPG's target-network soft updates operate on plain
// arrays. Double precision throughout. The batched passes are the DDPG
// update's hot path; their GEMMs (and Adam and the soft update) run through
// the ISA-dispatched table of rl/kernels/dense.hpp, whose variants are all
// bit-identical to the per-sample scalar path.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace autohet::rl {

enum class Activation { kLinear, kRelu, kTanh, kSigmoid };

double apply_activation(Activation a, double x) noexcept;
/// Derivative expressed in terms of the *activated* output y = f(x).
double activation_grad_from_output(Activation a, double y) noexcept;

class Mlp {
 public:
  /// `sizes` = {in, h1, ..., out}; `activations` has sizes.size()-1 entries,
  /// one per affine layer. Weights are Xavier-initialized from `rng`.
  Mlp(std::vector<int> sizes, std::vector<Activation> activations,
      common::Rng& rng);

  int input_size() const noexcept { return sizes_.front(); }
  int output_size() const noexcept { return sizes_.back(); }
  std::size_t param_count() const noexcept { return params_.size(); }

  std::vector<double>& params() noexcept { return params_; }
  const std::vector<double>& params() const noexcept { return params_; }
  std::vector<double>& grads() noexcept { return grads_; }

  /// Plain forward pass.
  std::vector<double> forward(std::span<const double> input) const;

  /// Activations cache for backward(). post[0] is the input itself;
  /// post[l] is the output of affine layer l-1 after its activation.
  struct Cache {
    std::vector<std::vector<double>> post;
  };
  std::vector<double> forward(std::span<const double> input,
                              Cache& cache) const;

  /// Accumulates parameter gradients for dL/d(output) = `grad_output` and
  /// returns dL/d(input). Call zero_grads() between minibatches.
  std::vector<double> backward(const Cache& cache,
                               std::span<const double> grad_output);

  // ---- batched kernels (the DDPG update hot path) ----
  //
  // Row-major batch×width activations. The arithmetic is element-for-
  // element the same as the per-sample path — each output neuron's dot
  // product accumulates over inputs in the same order, and parameter
  // gradients accumulate over the batch in sample order — but the products
  // run as register-tiled GEMMs (weights transposed into scratch) that
  // vectorize across output columns without reassociating any
  // floating-point reduction. All scratch lives in the caller's
  // BatchCache; steady-state calls allocate nothing.

  struct BatchCache {
    std::size_t batch = 0;
    /// post[0] is the input batch; post[l] the activated output of affine
    /// layer l-1. Flattened batch × sizes_[l], row-major.
    std::vector<std::vector<double>> post;
    std::vector<double> wt;          ///< in×out transposed-weight scratch
    std::vector<double> delta;       ///< backprop scratch
    std::vector<double> next_delta;  ///< backprop scratch
  };

  /// Forward for `batch` rows (`x` is batch × input_size, row-major).
  /// Returns the output batch (batch × output_size), owned by `cache`.
  const std::vector<double>& forward_batch(const double* x, std::size_t batch,
                                           BatchCache& cache) const;

  /// Batched backward: `grad_output` is batch × output_size. Accumulates
  /// parameter gradients (sample-major, matching repeated per-sample
  /// backward calls) and, when `grad_input` is non-null, writes
  /// dL/d(input) as batch × input_size. Pass `accumulate_param_grads =
  /// false` when only dL/d(input) is wanted (DDPG's actor pass
  /// differentiates the critic w.r.t. the action, not its weights).
  void backward_batch(BatchCache& cache, std::span<const double> grad_output,
                      std::vector<double>* grad_input,
                      bool accumulate_param_grads = true);

  void zero_grads();

  /// θ ← τ·θ_src + (1-τ)·θ (DDPG target-network soft update).
  void soft_update_from(const Mlp& src, double tau);
  void copy_params_from(const Mlp& src);

 private:
  // Parameter layout per layer l: weights W_l (out×in, row-major) followed
  // by biases b_l (out).
  std::size_t weight_offset(std::size_t layer) const noexcept {
    return offsets_[layer];
  }
  std::size_t bias_offset(std::size_t layer) const noexcept {
    return offsets_[layer] +
           static_cast<std::size_t>(sizes_[layer + 1] * sizes_[layer]);
  }

  std::vector<int> sizes_;
  std::vector<Activation> activations_;
  std::vector<std::size_t> offsets_;  // start of each layer's block
  std::vector<double> params_;
  std::vector<double> grads_;
};

}  // namespace autohet::rl
