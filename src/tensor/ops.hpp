// Dense tensor operations for forward inference.
//
// Layout conventions:
//   * activations: CHW  (channels, height, width), rank-3
//   * conv weights: [Cout, Cin, kh, kw], rank-4
//   * fc weights:   [out, in], rank-2
//
// conv2d is implemented as im2col followed by GEMM, which mirrors exactly how
// a ReRAM crossbar consumes a convolution: each im2col column is the input
// vector applied to the wordlines for one output position, and each unfolded
// kernel is one bitline column (paper Fig. 2 / Fig. 7).
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace autohet::tensor {

/// C = A(BxK) * B(KxN); shapes are validated.
Tensor matmul(const Tensor& a, const Tensor& b);

/// im2col for CHW input: output is [Cin*kh*kw, out_h*out_w] where each
/// column holds the receptive field for one output position.
Tensor im2col(const Tensor& input, std::int64_t kh, std::int64_t kw,
              std::int64_t stride, std::int64_t pad);

/// 2-D convolution (CHW input, [Cout,Cin,kh,kw] weight) via im2col + GEMM.
Tensor conv2d(const Tensor& input, const Tensor& weight, std::int64_t stride,
              std::int64_t pad);

/// 2-D max pooling over a CHW input.
Tensor maxpool2d(const Tensor& input, std::int64_t window, std::int64_t stride);

/// 2-D average pooling over a CHW input.
Tensor avgpool2d(const Tensor& input, std::int64_t window, std::int64_t stride);

/// Fully connected: weight [out, in] times flattened input.
Tensor fully_connected(const Tensor& input, const Tensor& weight);

/// Spatial mean of every channel: a CHW input gives a Cx1x1 output.
Tensor global_avg_pool(const Tensor& input);

/// Channel-axis concatenation. Every part holds whole planes of the first
/// part's plane size (numel / dim(0)); the result has the first part's shape
/// with dim 0 widened to the total channel count.
Tensor concat_channels(std::span<const Tensor* const> parts);

/// Elementwise max(0, x), in place.
void relu_inplace(Tensor& t);

/// a += b (same shape).
void add_inplace(Tensor& a, const Tensor& b);

/// Index of the largest element.
std::int64_t argmax(const Tensor& t);

/// Largest absolute elementwise difference between two same-shaped tensors.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace autohet::tensor
