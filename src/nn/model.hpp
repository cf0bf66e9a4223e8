// Functional model: a computation graph plus concrete weights, with float
// forward inference. Used as the numerical reference the simulated crossbar
// datapath is validated against, and by the end-to-end inference examples.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "nn/graph.hpp"
#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace autohet::nn {

class Model {
 public:
  /// Builds the model with He-style random weights drawn from `rng`
  /// (deterministic for a given seed). Weight tensors are only materialized
  /// for mappable layers. A sequentially runnable spec also gets its chain
  /// graph (graph_from_network), which forward() executes.
  Model(NetworkSpec spec, common::Rng& rng);

  /// Builds the model over a DAG: the weights are exactly those
  /// Model(graph.skeleton(), rng) draws, and forward() executes `graph`.
  Model(Graph graph, common::Rng& rng);

  /// The conv/FC/pool layers in execution order (the graph's skeleton).
  const NetworkSpec& spec() const noexcept { return spec_; }
  /// The graph forward() executes; empty when the model was built from a
  /// spec that is not sequentially runnable. Its j-th kLayer node is
  /// spec().layers[j].
  const Graph& graph() const noexcept { return graph_; }

  /// Weight tensor of the `i`-th *mappable* layer
  /// ([Cout,Cin,k,k] for CONV, [out,in] for FC).
  const tensor::Tensor& weight(std::size_t mappable_index) const;
  tensor::Tensor& weight(std::size_t mappable_index);
  std::size_t mappable_count() const noexcept { return weights_.size(); }

  /// Float forward pass over graph() (CHW input). Residual adds, concats,
  /// standalone activations and global average pools run in plain float;
  /// this is the numerical reference for SimulatedModel::forward. Throws
  /// when the model has no graph.
  tensor::Tensor forward(const tensor::Tensor& input) const;

  /// Float forward pass of a single layer (by position in spec().layers),
  /// without the trailing ReLU. Pools are executed directly; CONV/FC use the
  /// stored weights.
  tensor::Tensor forward_layer(std::size_t layer_index,
                               const tensor::Tensor& input) const;

 private:
  NetworkSpec spec_;
  Graph graph_;
  std::vector<tensor::Tensor> weights_;       // one per mappable layer
  std::vector<std::int64_t> weight_of_layer_; // layer idx -> mappable idx or -1
};

/// Deterministic synthetic input image (CHW, values in [0, 1)); substitutes
/// for the MNIST/CIFAR/ImageNet samples the paper uses (see DESIGN.md §1).
tensor::Tensor synthetic_image(common::Rng& rng, std::int64_t channels,
                               std::int64_t height, std::int64_t width);

}  // namespace autohet::nn
