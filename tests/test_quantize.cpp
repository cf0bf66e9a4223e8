#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "nn/quantize.hpp"
#include "oracle.hpp"
#include "tensor/ops.hpp"

namespace autohet {
namespace {

using tensor::Tensor;

TEST(QuantizeWeights, RoundTripErrorBounded) {
  common::Rng rng(1);
  Tensor t({64, 27});
  t.fill_normal(rng, 0.0f, 1.0f);
  const auto q = nn::quantize_weights(t, 8);
  const Tensor back = nn::dequantize(q);
  // Max error is half a quantization step.
  const float step = q.scale;
  EXPECT_LT(tensor::max_abs_diff(t, back), step * 0.5f + 1e-6f);
}

TEST(QuantizeWeights, SymmetricRange) {
  Tensor t({3});
  t[0] = -2.0f;
  t[1] = 0.0f;
  t[2] = 2.0f;
  const auto q = nn::quantize_weights(t, 8);
  EXPECT_EQ(q.values[0], -127);
  EXPECT_EQ(q.values[1], 0);
  EXPECT_EQ(q.values[2], 127);
  EXPECT_FLOAT_EQ(q.scale, 2.0f / 127.0f);
}

TEST(QuantizeWeights, AllZerosUsesUnitScale) {
  Tensor t({5});
  const auto q = nn::quantize_weights(t, 8);
  EXPECT_FLOAT_EQ(q.scale, 1.0f);
  for (auto v : q.values) EXPECT_EQ(v, 0);
}

TEST(QuantizeWeights, LowerBitWidths) {
  common::Rng rng(2);
  Tensor t({100});
  t.fill_uniform(rng, -1.0f, 1.0f);
  for (int bits : {2, 4, 6, 8}) {
    const auto q = nn::quantize_weights(t, bits);
    const int qmax = (1 << (bits - 1)) - 1;
    for (auto v : q.values) {
      EXPECT_GE(v, -qmax);
      EXPECT_LE(v, qmax);
    }
  }
  EXPECT_THROW(nn::quantize_weights(t, 1), std::invalid_argument);
  EXPECT_THROW(nn::quantize_weights(t, 9), std::invalid_argument);
}

TEST(QuantizeActivations, UnsignedRangeAndRoundTrip) {
  common::Rng rng(3);
  Tensor t({200});
  t.fill_uniform(rng, 0.0f, 5.0f);
  const auto q = nn::quantize_activations(t, 8);
  const Tensor back = nn::dequantize(q);
  EXPECT_LT(tensor::max_abs_diff(t, back), q.scale * 0.5f + 1e-6f);
  for (auto v : q.values) EXPECT_LE(v, 255);
}

TEST(QuantizeActivations, RejectsNegatives) {
  Tensor t({2});
  t[0] = -0.1f;
  EXPECT_THROW(nn::quantize_activations(t, 8), std::invalid_argument);
}

TEST(QuantizeActivations, MaxValueHitsFullScale) {
  Tensor t({2});
  t[0] = 0.0f;
  t[1] = 10.0f;
  const auto q = nn::quantize_activations(t, 8);
  EXPECT_EQ(q.values[0], 0);
  EXPECT_EQ(q.values[1], 255);
}

/// Expects nn::quantize_activations(t, bits) to equal the oracle's
/// per-element std::round loop: the same scale bits and the same codes.
void expect_quantized_as_oracle(const Tensor& t, int bits) {
  const auto got = nn::quantize_activations(t, bits);
  const auto want = oracle::quantize_activations(t, bits);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(got.scale),
            std::bit_cast<std::uint32_t>(want.scale));
  EXPECT_EQ(got.shape, want.shape);
  EXPECT_EQ(got.bits, want.bits);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    EXPECT_EQ(got.values[i], want.values[i])
        << "x=" << t[static_cast<std::int64_t>(i)] << " bits=" << bits;
  }
}

TEST(QuantizeActivations, MatchesRoundLoopOnRandomInputs) {
  // Lengths around the vector widths, zeros, ±0 and every bit width.
  common::Rng rng(11);
  for (const std::int64_t n : {1, 7, 15, 16, 17, 33, 100, 784, 1001}) {
    for (int bits = 2; bits <= 8; ++bits) {
      Tensor t({n});
      for (std::int64_t i = 0; i < n; ++i) {
        const double u = rng.uniform();
        t[i] = u < 0.2   ? 0.0f
               : u < 0.3 ? -0.0f
                         : static_cast<float>(rng.uniform() * 7.0);
      }
      expect_quantized_as_oracle(t, bits);
    }
  }
  Tensor zeros({5});
  zeros[2] = -0.0f;
  expect_quantized_as_oracle(zeros, 8);  // an all-±0 tensor: scale 1
}

TEST(QuantizeActivations, MatchesRoundLoopOnTiesAndJustBelow) {
  // With a maximum of 255 the scale is exactly 1, so x / scale is x: every
  // k + 0.5 is an exact tie (rounds away from zero, up) and the float just
  // below it rounds down. The same codes at another scale: the maximum
  // 25.5 makes the scale 0.1f and the quotients inexact.
  for (const float top : {255.0f, 25.5f}) {
    std::vector<float> xs = {top};
    for (int k = 0; k < 255; ++k) {
      const float tie = (static_cast<float>(k) + 0.5f) * (top / 255.0f);
      xs.push_back(tie);
      xs.push_back(std::nextafter(tie, 0.0f));
      xs.push_back(std::nextafter(tie, top));
    }
    Tensor t({static_cast<std::int64_t>(xs.size())});
    for (std::size_t i = 0; i < xs.size(); ++i) {
      t[static_cast<std::int64_t>(i)] = xs[i];
    }
    expect_quantized_as_oracle(t, 8);
  }
  Tensor t({3});
  t[0] = 255.0f;
  t[1] = 2.5f;
  t[2] = std::nextafter(2.5f, 0.0f);
  const auto q = nn::quantize_activations(t, 8);
  EXPECT_EQ(q.values[1], 3);  // half away from zero
  EXPECT_EQ(q.values[2], 2);
}

TEST(QuantizeActivations, RejectsNanAndNegativesAnywhere) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(), -1.0f,
                          -std::numeric_limits<float>::denorm_min()}) {
    for (const std::int64_t at : {0, 5, 16, 39}) {
      Tensor t({40});
      t.fill(1.0f);
      t[at] = bad;
      EXPECT_THROW(nn::quantize_activations(t, 8), std::invalid_argument)
          << "x=" << bad << " at " << at;
      EXPECT_THROW(oracle::quantize_activations(t, 8), std::invalid_argument);
    }
  }
}

TEST(ActivationBitPlane, ReconstructsValues) {
  common::Rng rng(4);
  Tensor t({64});
  t.fill_uniform(rng, 0.0f, 1.0f);
  const auto q = nn::quantize_activations(t, 8);
  for (std::size_t i = 0; i < q.values.size(); ++i) {
    unsigned reconstructed = 0;
    for (int b = 0; b < 8; ++b) {
      const auto plane = nn::activation_bit_plane(q, b);
      reconstructed |= static_cast<unsigned>(plane[i]) << b;
    }
    EXPECT_EQ(reconstructed, q.values[i]);
  }
}

TEST(ActivationBitPlane, RejectsOutOfRangeBit) {
  Tensor t({1});
  t[0] = 1.0f;
  const auto q = nn::quantize_activations(t, 8);
  EXPECT_THROW(nn::activation_bit_plane(q, 8), std::invalid_argument);
  EXPECT_THROW(nn::activation_bit_plane(q, -1), std::invalid_argument);
}

TEST(QuantizeWeights, PreservesShapeMetadata) {
  Tensor t({4, 3, 2, 2});
  t.fill(0.5f);
  const auto q = nn::quantize_weights(t, 8);
  EXPECT_EQ(q.shape, t.shape());
  EXPECT_EQ(q.numel(), t.numel());
  const Tensor back = nn::dequantize(q);
  EXPECT_EQ(back.shape(), t.shape());
}

}  // namespace
}  // namespace autohet
