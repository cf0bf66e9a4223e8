#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace autohet::tensor {

Tensor matmul(const Tensor& a, const Tensor& b) {
  AUTOHET_CHECK(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  AUTOHET_CHECK(b.dim(0) == k, "matmul inner dims must match");
  Tensor c({m, n});
  // i-k-j loop order keeps the innermost accesses contiguous for both b and c.
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Tensor im2col(const Tensor& input, std::int64_t kh, std::int64_t kw,
              std::int64_t stride, std::int64_t pad) {
  AUTOHET_CHECK(input.rank() == 3, "im2col expects CHW input");
  AUTOHET_CHECK(kh > 0 && kw > 0 && stride > 0 && pad >= 0,
                "invalid conv geometry");
  const std::int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t out_h = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t out_w = (w + 2 * pad - kw) / stride + 1;
  AUTOHET_CHECK(out_h > 0 && out_w > 0, "conv output collapses to zero");
  Tensor cols({c * kh * kw, out_h * out_w});
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const std::int64_t row = (ch * kh + ki) * kw + kj;
        for (std::int64_t oi = 0; oi < out_h; ++oi) {
          const std::int64_t ii = oi * stride + ki - pad;
          for (std::int64_t oj = 0; oj < out_w; ++oj) {
            const std::int64_t jj = oj * stride + kj - pad;
            float v = 0.0f;
            if (ii >= 0 && ii < h && jj >= 0 && jj < w) v = input.at(ch, ii, jj);
            cols.at(row, oi * out_w + oj) = v;
          }
        }
      }
    }
  }
  return cols;
}

Tensor conv2d(const Tensor& input, const Tensor& weight, std::int64_t stride,
              std::int64_t pad) {
  AUTOHET_CHECK(input.rank() == 3, "conv2d expects CHW input");
  AUTOHET_CHECK(weight.rank() == 4, "conv2d expects [Cout,Cin,kh,kw] weight");
  const std::int64_t cin = input.dim(0);
  AUTOHET_CHECK(weight.dim(1) == cin, "conv2d channel mismatch");
  const std::int64_t cout = weight.dim(0);
  const std::int64_t kh = weight.dim(2), kw = weight.dim(3);
  const std::int64_t h = input.dim(1), w = input.dim(2);
  const std::int64_t out_h = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t out_w = (w + 2 * pad - kw) / stride + 1;

  const Tensor cols = im2col(input, kh, kw, stride, pad);
  const Tensor wmat = weight.reshaped({cout, cin * kh * kw});
  Tensor out2d = matmul(wmat, cols);
  return out2d.reshaped({cout, out_h, out_w});
}

namespace {
template <typename Reduce>
Tensor pool2d(const Tensor& input, std::int64_t window, std::int64_t stride,
              float init, Reduce reduce, bool average) {
  AUTOHET_CHECK(input.rank() == 3, "pool expects CHW input");
  AUTOHET_CHECK(window > 0 && stride > 0, "invalid pool geometry");
  const std::int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t out_h = (h - window) / stride + 1;
  const std::int64_t out_w = (w - window) / stride + 1;
  AUTOHET_CHECK(window <= h && window <= w && out_h > 0 && out_w > 0,
                "pool output collapses to zero");
  Tensor out({c, out_h, out_w});
  // The geometry checks above keep every window inside its plane, so the
  // loops index the flat planes directly. A whole output row reduces at
  // once, window cell by window cell, so the innermost loop runs over the
  // row's outputs and vectorizes; each output still sees its window in
  // row-major (ki, kj) order — std::max is order-sensitive on ±0.
  const float cells = static_cast<float>(window * window);
  float* dst = out.data();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float* plane = input.data() + ch * h * w;
    for (std::int64_t oi = 0; oi < out_h; ++oi, dst += out_w) {
      std::fill(dst, dst + out_w, init);
      for (std::int64_t ki = 0; ki < window; ++ki) {
        for (std::int64_t kj = 0; kj < window; ++kj) {
          const float* src = plane + (oi * stride + ki) * w + kj;
          for (std::int64_t oj = 0; oj < out_w; ++oj) {
            dst[oj] = reduce(dst[oj], src[oj * stride]);
          }
        }
      }
      if (average) {
        for (std::int64_t oj = 0; oj < out_w; ++oj) dst[oj] /= cells;
      }
    }
  }
  return out;
}
}  // namespace

Tensor maxpool2d(const Tensor& input, std::int64_t window,
                 std::int64_t stride) {
  return pool2d(
      input, window, stride, -std::numeric_limits<float>::infinity(),
      [](float a, float b) { return std::max(a, b); }, /*average=*/false);
}

Tensor avgpool2d(const Tensor& input, std::int64_t window,
                 std::int64_t stride) {
  return pool2d(
      input, window, stride, 0.0f, [](float a, float b) { return a + b; },
      /*average=*/true);
}

Tensor fully_connected(const Tensor& input, const Tensor& weight) {
  AUTOHET_CHECK(weight.rank() == 2, "fc expects rank-2 weight");
  const std::int64_t in = weight.dim(1);
  AUTOHET_CHECK(input.numel() == in, "fc input size mismatch");
  const Tensor x = input.reshaped({in, 1});
  Tensor y = matmul(weight, x);
  return y.reshaped({weight.dim(0)});
}

Tensor global_avg_pool(const Tensor& input) {
  const std::int64_t channels = input.dim(0);
  const std::int64_t plane = input.numel() / channels;
  Tensor out({channels, 1, 1});
  for (std::int64_t c = 0; c < channels; ++c) {
    float sum = 0.0f;
    for (std::int64_t p = 0; p < plane; ++p) sum += input[c * plane + p];
    out[c] = sum / static_cast<float>(plane);
  }
  return out;
}

Tensor concat_channels(std::span<const Tensor* const> parts) {
  AUTOHET_CHECK(!parts.empty(), "concat needs at least one part");
  const std::int64_t plane = parts[0]->numel() / parts[0]->dim(0);
  std::int64_t channels = 0;
  for (const Tensor* part : parts) {
    AUTOHET_CHECK(part->numel() % plane == 0,
                  "concat parts must share the plane size");
    channels += part->numel() / plane;
  }
  std::vector<std::int64_t> shape = parts[0]->shape();
  shape[0] = channels;
  Tensor out(std::move(shape));
  float* dst = out.data();
  for (const Tensor* part : parts) {
    dst = std::copy(part->data(), part->data() + part->numel(), dst);
  }
  return out;
}

void relu_inplace(Tensor& t) {
  for (auto& v : t.storage()) v = std::max(v, 0.0f);
}

void add_inplace(Tensor& a, const Tensor& b) {
  AUTOHET_CHECK(a.shape() == b.shape(), "add shape mismatch");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) pa[i] += pb[i];
}

std::int64_t argmax(const Tensor& t) {
  AUTOHET_CHECK(t.numel() > 0, "argmax of empty tensor");
  const auto& s = t.storage();
  return static_cast<std::int64_t>(
      std::max_element(s.begin(), s.end()) - s.begin());
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  AUTOHET_CHECK(a.shape() == b.shape(), "diff shape mismatch");
  float m = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

}  // namespace autohet::tensor
