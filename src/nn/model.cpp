#include "nn/model.hpp"

#include <atomic>
#include <cmath>

#include "common/error.hpp"
#include "tensor/ops.hpp"

namespace autohet::nn {

Model::Model(NetworkSpec spec, common::Rng& rng) : spec_(std::move(spec)) {
  if (spec_.sequential_runnable) graph_ = graph_from_network(spec_);
  weight_of_layer_.assign(spec_.layers.size(), -1);
  for (std::size_t i = 0; i < spec_.layers.size(); ++i) {
    const LayerSpec& layer = spec_.layers[i];
    if (!is_mappable(layer.type)) continue;
    weight_of_layer_[i] = static_cast<std::int64_t>(weights_.size());
    tensor::Tensor w =
        (layer.type == LayerType::kConv)
            ? tensor::Tensor({layer.out_channels, layer.in_channels,
                              layer.kernel, layer.kernel})
            : tensor::Tensor({layer.out_channels, layer.in_channels});
    // He initialization keeps activations in a sane range through ReLU
    // stacks so 8-bit quantization retains signal.
    const float fan_in = static_cast<float>(layer.weight_rows());
    w.fill_normal(rng, 0.0f, std::sqrt(2.0f / fan_in));
    weights_.push_back(std::move(w));
  }
}

Model::Model(Graph graph, common::Rng& rng) : Model(graph.skeleton(), rng) {
  graph_ = std::move(graph);
}

const tensor::Tensor& Model::weight(std::size_t mappable_index) const {
  AUTOHET_CHECK(mappable_index < weights_.size(), "weight index out of range");
  return weights_[mappable_index];
}

tensor::Tensor& Model::weight(std::size_t mappable_index) {
  AUTOHET_CHECK(mappable_index < weights_.size(), "weight index out of range");
  identity_.value = Identity::next();
  return weights_[mappable_index];
}

std::uint64_t Model::Identity::next() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

tensor::Tensor Model::forward_layer(std::size_t layer_index,
                                    const tensor::Tensor& input) const {
  AUTOHET_CHECK(layer_index < spec_.layers.size(), "layer index out of range");
  const LayerSpec& layer = spec_.layers[layer_index];
  switch (layer.type) {
    case LayerType::kConv: {
      const auto& w = weights_[static_cast<std::size_t>(
          weight_of_layer_[layer_index])];
      return tensor::conv2d(input, w, layer.stride, layer.pad);
    }
    case LayerType::kFullyConnected: {
      const auto& w = weights_[static_cast<std::size_t>(
          weight_of_layer_[layer_index])];
      return tensor::fully_connected(input, w);
    }
    case LayerType::kMaxPool:
      return tensor::maxpool2d(input, layer.kernel, layer.stride);
    case LayerType::kAvgPool:
      return tensor::avgpool2d(input, layer.kernel, layer.stride);
  }
  AUTOHET_CHECK(false, "unhandled layer type");
  return {};  // unreachable
}

tensor::Tensor Model::forward(const tensor::Tensor& input) const {
  AUTOHET_CHECK(graph_.node_count() > 0,
                "network is not sequentially runnable (" + spec_.name + ")");
  return execute<tensor::Tensor>(
      graph_,
      [&](const GraphNode& node, std::size_t layer,
          std::span<const tensor::Tensor* const> x) -> tensor::Tensor {
        tensor::Tensor v;
        switch (node.kind) {
          case OpKind::kInput:
            AUTOHET_CHECK(input.numel() == node.shape.numel(),
                          "input tensor does not match graph input shape " +
                              node.shape.to_string());
            return input;
          case OpKind::kLayer:
            v = forward_layer(layer, *x[0]);
            if (node.layer.relu_after) tensor::relu_inplace(v);
            break;
          case OpKind::kResidualAdd:
            v = *x[0];
            for (std::int64_t j = 0; j < v.numel(); ++j) v[j] += (*x[1])[j];
            break;
          case OpKind::kActivation:
            v = *x[0];
            tensor::relu_inplace(v);
            break;
          case OpKind::kGlobalAvgPool:
            return tensor::global_avg_pool(*x[0]);
          case OpKind::kConcat:
            return tensor::concat_channels(x);
        }
        return v;
      });
}

tensor::Tensor synthetic_image(common::Rng& rng, std::int64_t channels,
                               std::int64_t height, std::int64_t width) {
  tensor::Tensor img({channels, height, width});
  img.fill_uniform(rng, 0.0f, 1.0f);
  return img;
}

}  // namespace autohet::nn
