// Scalar oracles: plain per-cell implementations of fault burn-in,
// crossbar MVMs, the network forward and the Monte-Carlo robustness
// evaluation of the functional simulator, and the per-sample passes of the
// RL agent's MLP. The production datapaths (reram/faults.hpp,
// reram/crossbar.hpp, reram/functional.hpp, rl/mlp.hpp) run dispatched
// SIMD kernels, threshold-table fault burns, batched MVMs and GEMMs, fabric
// caches and a thread pool; each is tested bit for bit against the
// straightforward loop here, and bench/functional_throughput times the
// simulator against these loops as the scalar baseline. Nothing here is
// fast, and nothing here shares code with the path it checks beyond the
// public building blocks (the graph walk, the RNG, the stopper, the
// activation functions). Activation quantization and pooling have their
// own per-element loops here, which oracle::Fabric runs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "mapping/crossbar_shape.hpp"
#include "nn/model.hpp"
#include "reram/crossbar.hpp"
#include "reram/faults.hpp"
#include "reram/functional.hpp"
#include "rl/mlp.hpp"
#include "tensor/tensor.hpp"

namespace autohet::oracle {

// --------------------------------------------------------------- burn-in --

/// The keyed draw at `slot` (plane p: p for its stuck draw, 8 + p for its
/// variation draw) of weight (row, col) of `layer` under `seed`, as the
/// uniform (k + ½)·2⁻⁵² of its top 52 bits k. Written from the key layout
/// documented at reram::FaultModel.
double keyed_uniform(std::uint64_t seed, std::uint64_t layer, std::int64_t row,
                     std::int64_t col, unsigned slot);

/// Perturbs weight (row, col) of `layer` under `config` with the trial seed
/// `seed`, one physical cell (plane) at a time: stuck-at-0 when the plane's
/// stuck uniform is below stuck_at_zero_rate, stuck-at-1 below the summed
/// rate, and otherwise, for a nonzero level L with program_sigma > 0, the
/// level j whose Φ-interval [Φ(ln((j − ½)/L)/σ), Φ(ln((j + ½)/L)/σ)) holds
/// the variation uniform, searched upward from 0 with std::erfc.
std::int8_t perturb_weight(const reram::FaultConfig& config,
                           std::int8_t weight, std::uint64_t seed,
                           std::uint64_t layer, std::int64_t row,
                           std::int64_t col, reram::FaultMapStats& stats);

/// perturb_weight over the rows × cols block at `cells` (row-major, stride
/// `row_stride`) whose cell (i, j) holds weight (key.row0 + i,
/// key.col0 + j) of key.layer under key.seed; an ideal config touches
/// nothing.
reram::FaultMapStats burn_reference(const reram::FaultConfig& config,
                                    std::span<std::int8_t> cells,
                                    std::int64_t rows, std::int64_t cols,
                                    std::int64_t row_stride,
                                    const reram::BurnKey& key);

// ---------------------------------------- quantization and pooling --

/// nn::quantize_activations one element at a time: every input checked
/// (x >= 0, so NaN fails), the maximum taken in input order, then
/// clamp(std::round(x / scale), 0, 2^bits − 1) per element.
nn::QuantizedActivations quantize_activations(const tensor::Tensor& t,
                                              int bits = 8);

/// tensor::maxpool2d / avgpool2d one window at a time: each window reduced
/// in row-major order from −inf (std::max) or 0 (sum, then divided by the
/// window's cell count).
tensor::Tensor maxpool2d(const tensor::Tensor& input, std::int64_t window,
                         std::int64_t stride);
tensor::Tensor avgpool2d(const tensor::Tensor& input, std::int64_t window,
                         std::int64_t stride);

// ------------------------------------------------------------------ MVMs --

/// The bit-serial datapath cell by cell: for every input bit (1-bit DAC
/// cycle) and weight bit plane (plane 7 is the two's-complement sign, worth
/// −2^7), the binary bitline sums shift-added into the accumulator.
std::vector<std::int32_t> mvm_bit_serial_scalar(
    const reram::LogicalCrossbar& xb, std::span<const std::uint8_t> input);

/// Plain int32 GEMV over the programmed cells.
std::vector<std::int32_t> mvm_reference_scalar(
    const reram::LogicalCrossbar& xb, std::span<const std::uint8_t> input);

// ---------------------------------------------------- network and MC ----

/// A fabric programmed from scratch: every mappable layer quantized, cut
/// into crossbars by the kernel-aligned mapping and each crossbar's
/// programmed block burned with burn_reference; every forward runs one
/// scalar MVM per input column.
class Fabric {
 public:
  Fabric(const nn::Model& model,
         const std::vector<mapping::CrossbarShape>& shapes,
         reram::DatapathMode mode, const reram::FaultConfig& faults = {});

  /// One sample through the model's graph: the output plus every mappable
  /// layer's pre-activation output, as SimulatedModel::forward_batch
  /// traces it.
  reram::SimulatedModel::ForwardTrace forward(
      const tensor::Tensor& input) const;

  /// Burn counts summed over every crossbar.
  const reram::FaultMapStats& fault_stats() const noexcept { return stats_; }

 private:
  struct Crossbar {
    std::int64_t rows_used = 0;
    std::int64_t cols_used = 0;
    std::vector<std::int8_t> cells;  ///< shape.rows × shape.cols
  };
  struct Layer {
    mapping::CrossbarShape shape;
    float weight_scale = 1.0f;
    std::int64_t weight_cols = 0;  ///< output channels
    std::int64_t col_blocks = 0;
    /// Weight-row range [start, end) of each row block.
    std::vector<std::pair<std::int64_t, std::int64_t>> row_ranges;
    std::vector<Crossbar> crossbars;  ///< [rb · col_blocks + cb]
  };

  std::vector<std::int32_t> mvm(const Layer& layer,
                                std::span<const std::uint8_t> column) const;
  tensor::Tensor run(const Layer& layer, const nn::LayerSpec& spec,
                     const tensor::Tensor& input) const;

  const nn::Model* model_;
  reram::DatapathMode mode_;
  std::vector<Layer> layers_;
  reram::FaultMapStats stats_;
};

/// Serial, fixed-budget Monte-Carlo robustness: every trial's fabric built
/// from scratch under faults.for_trial(t), every sample forwarded alone on
/// the integer datapath, and the report reduced in (trial, sample, layer)
/// order with the CI from a SequentialStopper fed one trial at a time —
/// the report reram::monte_carlo_robustness must reproduce byte for byte.
/// Only options.trials, samples, input_seed and budget are read; the
/// budget must be fixed.
reram::RobustnessReport monte_carlo_robustness(
    const nn::Model& model, const std::vector<mapping::CrossbarShape>& shapes,
    const reram::FaultConfig& faults, const reram::RobustnessOptions& options);

// ------------------------------------------------------------------- MLP --

/// The per-sample passes of an rl::Mlp built with `sizes` and
/// `activations`, one neuron at a time, on that network's parameters (per
/// affine layer l: weights sizes[l+1] × sizes[l] row-major, then biases).
/// The batched, dispatched Mlp passes must match them bit for bit.
struct MlpReference {
  std::vector<int> sizes;
  std::vector<rl::Activation> activations;

  /// One sample forward: post[0] is `input`, post[l] the activated output
  /// of affine layer l-1, so post.back() is the network output.
  std::vector<std::vector<double>> forward(
      const rl::Mlp& net, std::span<const double> input) const;

  /// One sample backward through a forward's `post`: accumulates the
  /// parameter gradients into net.grads() and returns dL/d(input).
  std::vector<double> backward(rl::Mlp& net,
                               const std::vector<std::vector<double>>& post,
                               std::span<const double> grad_output) const;
};

}  // namespace autohet::oracle
