#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "oracle.hpp"
#include "tensor/ops.hpp"

namespace autohet {
namespace {

using tensor::Tensor;

// Direct (non-im2col) convolution reference used to validate conv2d.
Tensor conv2d_direct(const Tensor& input, const Tensor& weight,
                     std::int64_t stride, std::int64_t pad) {
  const std::int64_t cin = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t cout = weight.dim(0), kh = weight.dim(2),
                     kw = weight.dim(3);
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  Tensor out({cout, oh, ow});
  for (std::int64_t co = 0; co < cout; ++co) {
    for (std::int64_t oi = 0; oi < oh; ++oi) {
      for (std::int64_t oj = 0; oj < ow; ++oj) {
        float acc = 0.0f;
        for (std::int64_t ci = 0; ci < cin; ++ci) {
          for (std::int64_t ki = 0; ki < kh; ++ki) {
            for (std::int64_t kj = 0; kj < kw; ++kj) {
              const std::int64_t ii = oi * stride + ki - pad;
              const std::int64_t jj = oj * stride + kj - pad;
              if (ii < 0 || ii >= h || jj < 0 || jj >= w) continue;
              acc += input.at(ci, ii, jj) * weight.at(co, ci, ki, kj);
            }
          }
        }
        out.at(co, oi, oj) = acc;
      }
    }
  }
  return out;
}

TEST(Matmul, SmallKnownProduct) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  for (int i = 0; i < 6; ++i) {
    a[i] = av[i];
    b[i] = bv[i];
  }
  const Tensor c = tensor::matmul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matmul, IdentityIsNeutral) {
  common::Rng rng(1);
  Tensor a({5, 5});
  a.fill_uniform(rng, -1.0f, 1.0f);
  Tensor eye({5, 5});
  for (int i = 0; i < 5; ++i) eye.at(i, i) = 1.0f;
  const Tensor c = tensor::matmul(a, eye);
  EXPECT_EQ(tensor::max_abs_diff(a, c), 0.0f);
}

TEST(Matmul, RejectsMismatchedShapes) {
  EXPECT_THROW(tensor::matmul(Tensor({2, 3}), Tensor({2, 3})),
               std::invalid_argument);
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1x1 kernel, stride 1, no pad: im2col is just a reshape.
  common::Rng rng(2);
  Tensor input({3, 4, 5});
  input.fill_uniform(rng, -1.0f, 1.0f);
  const Tensor cols = tensor::im2col(input, 1, 1, 1, 0);
  EXPECT_EQ(cols.dim(0), 3);
  EXPECT_EQ(cols.dim(1), 20);
  for (std::int64_t c = 0; c < 3; ++c) {
    for (std::int64_t p = 0; p < 20; ++p) {
      EXPECT_EQ(cols.at(c, p), input[c * 20 + p]);
    }
  }
}

TEST(Im2col, ZeroPaddingContributesZeros) {
  Tensor input({1, 2, 2});
  input.fill(1.0f);
  const Tensor cols = tensor::im2col(input, 3, 3, 1, 1);
  // Output 2x2 positions; corner position (0,0) has 4 in-bounds entries.
  EXPECT_EQ(cols.dim(0), 9);
  EXPECT_EQ(cols.dim(1), 4);
  float col0_sum = 0.0f;
  for (std::int64_t r = 0; r < 9; ++r) col0_sum += cols.at(r, 0);
  EXPECT_EQ(col0_sum, 4.0f);
}

class Conv2dAgainstDirect
    : public ::testing::TestWithParam<
          std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t,
                     std::int64_t>> {};

TEST_P(Conv2dAgainstDirect, Matches) {
  const auto [cin, cout, k, stride, pad] = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(cin * 100 + cout + k));
  Tensor input({cin, 9, 9});
  input.fill_uniform(rng, -1.0f, 1.0f);
  Tensor weight({cout, cin, k, k});
  weight.fill_uniform(rng, -1.0f, 1.0f);
  const Tensor got = tensor::conv2d(input, weight, stride, pad);
  const Tensor want = conv2d_direct(input, weight, stride, pad);
  EXPECT_LT(tensor::max_abs_diff(got, want), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conv2dAgainstDirect,
    ::testing::Values(std::make_tuple(1, 1, 1, 1, 0),
                      std::make_tuple(3, 8, 3, 1, 1),
                      std::make_tuple(4, 4, 3, 2, 1),
                      std::make_tuple(2, 5, 5, 1, 2),
                      std::make_tuple(6, 2, 3, 3, 0),
                      std::make_tuple(1, 7, 7, 1, 3)));

TEST(Conv2d, LinearityInInput) {
  common::Rng rng(5);
  Tensor x({2, 6, 6}), y({2, 6, 6});
  x.fill_uniform(rng, -1.0f, 1.0f);
  y.fill_uniform(rng, -1.0f, 1.0f);
  Tensor w({3, 2, 3, 3});
  w.fill_uniform(rng, -1.0f, 1.0f);

  Tensor xy({2, 6, 6});
  for (std::int64_t i = 0; i < xy.numel(); ++i) xy[i] = x[i] + y[i];
  Tensor sum = tensor::conv2d(x, w, 1, 1);
  tensor::add_inplace(sum, tensor::conv2d(y, w, 1, 1));
  const Tensor direct = tensor::conv2d(xy, w, 1, 1);
  EXPECT_LT(tensor::max_abs_diff(sum, direct), 1e-4f);
}

TEST(MaxPool, KnownValues) {
  Tensor input({1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  const Tensor out = tensor::maxpool2d(input, 2, 2);
  EXPECT_EQ(out.dim(1), 2);
  EXPECT_EQ(out.at(0, 0, 0), 5.0f);
  EXPECT_EQ(out.at(0, 0, 1), 7.0f);
  EXPECT_EQ(out.at(0, 1, 0), 13.0f);
  EXPECT_EQ(out.at(0, 1, 1), 15.0f);
}

TEST(AvgPool, KnownValues) {
  Tensor input({1, 2, 2});
  input[0] = 1.0f;
  input[1] = 2.0f;
  input[2] = 3.0f;
  input[3] = 4.0f;
  const Tensor out = tensor::avgpool2d(input, 2, 2);
  EXPECT_EQ(out.numel(), 1);
  EXPECT_EQ(out[0], 2.5f);
}

TEST(Pool, MultiChannelOverlappingWindowsMatchNaive) {
  // Three channels, a non-square plane, overlapping windows (stride <
  // window) and a ragged edge the windows do not reach.
  common::Rng rng(8);
  Tensor input({3, 7, 9});
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  const std::int64_t window = 3, stride = 2;
  const Tensor mx = tensor::maxpool2d(input, window, stride);
  const Tensor avg = tensor::avgpool2d(input, window, stride);
  ASSERT_EQ(mx.dim(1), 3);
  ASSERT_EQ(mx.dim(2), 4);
  for (std::int64_t ch = 0; ch < 3; ++ch) {
    for (std::int64_t oi = 0; oi < 3; ++oi) {
      for (std::int64_t oj = 0; oj < 4; ++oj) {
        float m = -std::numeric_limits<float>::infinity();
        float sum = 0.0f;
        for (std::int64_t ki = 0; ki < window; ++ki) {
          for (std::int64_t kj = 0; kj < window; ++kj) {
            const float v =
                input.at(ch, oi * stride + ki, oj * stride + kj);
            m = std::max(m, v);
            sum += v;
          }
        }
        EXPECT_EQ(mx.at(ch, oi, oj), m);
        EXPECT_EQ(avg.at(ch, oi, oj), sum / 9.0f);
      }
    }
  }
}

/// Expects two tensors to hold the same float bit patterns (so +0 and −0
/// differ).
void expect_same_bits(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(Pool, MatchesPerWindowLoopBitForBit) {
  // Window and stride combinations, overlapping and gapped, on planes whose
  // width is not a multiple of any vector width. Inputs mix ±0 with signed
  // values: std::max keeps its first argument on ±0 ties, so a reordered
  // max reduction flips the sign of a zero result, and a reordered sum
  // rounds differently.
  common::Rng rng(12);
  const std::pair<std::int64_t, std::int64_t> geometries[] = {
      {2, 2}, {2, 1}, {3, 2}, {3, 3}, {2, 3}, {7, 7}, {1, 1}};
  for (const auto& [window, stride] : geometries) {
    for (const double zeros : {0.0, 0.5, 1.0}) {
      Tensor input({3, 15, 19});
      for (std::int64_t i = 0; i < input.numel(); ++i) {
        const double u = rng.uniform();
        input[i] = u < zeros / 2   ? 0.0f
                   : u < zeros     ? -0.0f
                                   : static_cast<float>(rng.normal(0.0, 1.0));
      }
      SCOPED_TRACE(::testing::Message() << "window " << window << " stride "
                                        << stride << " zeros " << zeros);
      expect_same_bits(tensor::maxpool2d(input, window, stride),
                       oracle::maxpool2d(input, window, stride));
      expect_same_bits(tensor::avgpool2d(input, window, stride),
                       oracle::avgpool2d(input, window, stride));
    }
  }
}

TEST(Pool, MaxKeepsTheFirstSignedZeroOfAWindow) {
  // One 2x2 window per case, reduced in row-major order from −inf.
  Tensor plus_first({1, 2, 2});
  plus_first[1] = -0.0f;
  plus_first[2] = -0.0f;
  plus_first[3] = -0.0f;
  EXPECT_FALSE(std::signbit(tensor::maxpool2d(plus_first, 2, 2)[0]));
  Tensor minus_first({1, 2, 2});
  minus_first[0] = -0.0f;
  EXPECT_TRUE(std::signbit(tensor::maxpool2d(minus_first, 2, 2)[0]));
}

TEST(Pool, RejectsWindowLargerThanPlane) {
  // (2 − 3) / 2 + 1 truncates to one output row: the window check, not the
  // output size, must reject it.
  const Tensor input({1, 2, 6});
  EXPECT_THROW((void)tensor::maxpool2d(input, 3, 2), std::exception);
  EXPECT_THROW((void)tensor::avgpool2d(input, 3, 2), std::exception);
}

TEST(FullyConnected, MatchesManualDot) {
  Tensor w({2, 3});
  Tensor x({3});
  for (int i = 0; i < 6; ++i) w[i] = static_cast<float>(i + 1);
  for (int i = 0; i < 3; ++i) x[i] = static_cast<float>(i + 1);
  const Tensor y = tensor::fully_connected(x, w);
  EXPECT_EQ(y[0], 14.0f);  // 1+4+9
  EXPECT_EQ(y[1], 32.0f);  // 4+10+18
}

TEST(FullyConnected, AcceptsAnyInputShapeWithMatchingCount) {
  Tensor w({2, 12});
  w.fill(1.0f);
  Tensor x({3, 2, 2});
  x.fill(1.0f);
  const Tensor y = tensor::fully_connected(x, w);
  EXPECT_EQ(y[0], 12.0f);
}

TEST(Relu, ClampsNegatives) {
  Tensor t({4});
  t[0] = -1.0f;
  t[1] = 0.0f;
  t[2] = 2.0f;
  t[3] = -0.5f;
  tensor::relu_inplace(t);
  EXPECT_EQ(t[0], 0.0f);
  EXPECT_EQ(t[1], 0.0f);
  EXPECT_EQ(t[2], 2.0f);
  EXPECT_EQ(t[3], 0.0f);
}

TEST(Argmax, FindsLargest) {
  Tensor t({5});
  t[3] = 4.0f;
  EXPECT_EQ(tensor::argmax(t), 3);
}

TEST(MaxAbsDiff, ZeroForIdentical) {
  Tensor a({3});
  a.fill(1.5f);
  EXPECT_EQ(tensor::max_abs_diff(a, a), 0.0f);
}

TEST(GlobalAvgPool, AveragesEachChannelPlane) {
  Tensor x({2, 2, 2});
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  const Tensor y = tensor::global_avg_pool(x);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 1, 1}));
  EXPECT_EQ(y[0], 1.5f);  // (0 + 1 + 2 + 3) / 4
  EXPECT_EQ(y[1], 5.5f);  // (4 + 5 + 6 + 7) / 4
}

TEST(ConcatChannels, StacksPartsAlongChannels) {
  Tensor a({1, 2, 2});
  Tensor b({2, 2, 2});
  a.fill(1.0f);
  for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = static_cast<float>(i);
  const std::vector<const Tensor*> parts = {&a, &b};
  const Tensor y = tensor::concat_channels(parts);
  EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{3, 2, 2}));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(y[i], 1.0f);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(y[4 + i], b[i]);

  const Tensor odd({3});  // 3 values are not whole 2x2 planes
  const std::vector<const Tensor*> bad = {&a, &odd};
  EXPECT_THROW(tensor::concat_channels(bad), std::invalid_argument);
}

}  // namespace
}  // namespace autohet
