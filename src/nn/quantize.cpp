#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace autohet::nn {

QuantizedWeights quantize_weights(const tensor::Tensor& t, int bits) {
  AUTOHET_CHECK(bits >= 2 && bits <= 8, "weight bits must be in [2, 8]");
  QuantizedWeights q;
  q.shape = t.shape();
  q.bits = bits;
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  const float abs_max = t.abs_max();
  q.scale = (abs_max > 0.0f) ? abs_max / qmax : 1.0f;
  q.values.resize(static_cast<std::size_t>(t.numel()));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float scaled = t[i] / q.scale;
    const float clamped = std::clamp(std::round(scaled), -qmax, qmax);
    q.values[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(clamped);
  }
  return q;
}

QuantizedActivations quantize_activations(const tensor::Tensor& t, int bits) {
  AUTOHET_CHECK(bits >= 2 && bits <= 8, "activation bits must be in [2, 8]");
  QuantizedActivations q;
  q.shape = t.shape();
  q.bits = bits;
  const float qmax = static_cast<float>((1 << bits) - 1);
  const float* x = t.data();
  const std::int64_t n = t.numel();
  // Both loops are written to vectorize. The range check and the maximum
  // run over independent lanes: the check rejects negatives and NaN before
  // any value is used, and the maximum of non-NaN values does not depend on
  // the order (a ±0 maximum only ever selects scale 1).
  constexpr std::int64_t kLanes = 16;
  float lane_max[kLanes] = {};
  int lane_bad[kLanes] = {};
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::int64_t l = 0; l < kLanes; ++l) {
      const float v = x[i + l];
      lane_bad[l] |= !(v >= 0.0f);
      lane_max[l] = lane_max[l] < v ? v : lane_max[l];
    }
  }
  for (std::int64_t l = 0; i < n; ++i, ++l) {
    lane_bad[l] |= !(x[i] >= 0.0f);
    lane_max[l] = lane_max[l] < x[i] ? x[i] : lane_max[l];
  }
  float vmax = 0.0f;
  for (std::int64_t l = 0; l < kLanes; ++l) {
    AUTOHET_CHECK(!lane_bad[l], "activation quantization expects x >= 0");
    vmax = std::max(vmax, lane_max[l]);
  }
  q.scale = (vmax > 0.0f) ? vmax / qmax : 1.0f;
  q.values.resize(static_cast<std::size_t>(n));
  // clamp(std::round(x / scale), 0, qmax) without the libcall: y >= 0, so
  // clamping y to qmax first changes no result, and for y in [0, qmax]
  // round-half-away-from-zero is the truncation plus one when the exact
  // fraction y − trunc(y) reaches 0.5.
  const float scale = q.scale;
  std::uint8_t* out = q.values.data();
  for (std::int64_t j = 0; j < n; ++j) {
    float y = x[j] / scale;
    y = y < qmax ? y : qmax;
    const auto r = static_cast<std::int32_t>(y);
    out[j] = static_cast<std::uint8_t>(
        r + (y - static_cast<float>(r) >= 0.5f ? 1 : 0));
  }
  return q;
}

tensor::Tensor dequantize(const QuantizedWeights& q) {
  tensor::Tensor t(q.shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(q.values[static_cast<std::size_t>(i)]) * q.scale;
  }
  return t;
}

tensor::Tensor dequantize(const QuantizedActivations& q) {
  tensor::Tensor t(q.shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(q.values[static_cast<std::size_t>(i)]) * q.scale;
  }
  return t;
}

std::vector<std::uint8_t> activation_bit_plane(const QuantizedActivations& q,
                                               int bit) {
  AUTOHET_CHECK(bit >= 0 && bit < q.bits, "bit plane out of range");
  std::vector<std::uint8_t> plane(q.values.size());
  for (std::size_t i = 0; i < q.values.size(); ++i) {
    plane[i] = static_cast<std::uint8_t>((q.values[i] >> bit) & 1u);
  }
  return plane;
}

}  // namespace autohet::nn
