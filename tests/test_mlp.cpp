#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rl/adam.hpp"
#include "rl/kernels/dense.hpp"
#include "rl/mlp.hpp"

namespace autohet {
namespace {

using rl::Activation;
using rl::Mlp;

TEST(Activations, ValuesAndGrads) {
  EXPECT_EQ(rl::apply_activation(Activation::kLinear, -2.0), -2.0);
  EXPECT_EQ(rl::apply_activation(Activation::kRelu, -2.0), 0.0);
  EXPECT_EQ(rl::apply_activation(Activation::kRelu, 3.0), 3.0);
  EXPECT_NEAR(rl::apply_activation(Activation::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(rl::apply_activation(Activation::kTanh, 0.0), 0.0, 1e-12);

  EXPECT_EQ(rl::activation_grad_from_output(Activation::kLinear, 5.0), 1.0);
  EXPECT_EQ(rl::activation_grad_from_output(Activation::kRelu, 0.0), 0.0);
  EXPECT_EQ(rl::activation_grad_from_output(Activation::kRelu, 2.0), 1.0);
  EXPECT_NEAR(rl::activation_grad_from_output(Activation::kSigmoid, 0.5),
              0.25, 1e-12);
  EXPECT_NEAR(rl::activation_grad_from_output(Activation::kTanh, 0.0), 1.0,
              1e-12);
}

TEST(Mlp, ForwardShape) {
  common::Rng rng(1);
  Mlp net({3, 8, 2}, {Activation::kRelu, Activation::kLinear}, rng);
  const std::vector<double> x = {0.1, -0.2, 0.3};
  const auto y = net.forward(x);
  EXPECT_EQ(y.size(), 2u);
  EXPECT_EQ(net.input_size(), 3);
  EXPECT_EQ(net.output_size(), 2);
  EXPECT_EQ(net.param_count(), 3u * 8 + 8 + 8 * 2 + 2);
}

TEST(Mlp, ValidatesConstruction) {
  common::Rng rng(1);
  EXPECT_THROW(Mlp({3}, {}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({3, 2}, {}, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({3, 0}, {Activation::kLinear}, rng),
               std::invalid_argument);
}

TEST(Mlp, ForwardRejectsWrongInputSize) {
  common::Rng rng(1);
  Mlp net({3, 2}, {Activation::kLinear}, rng);
  const std::vector<double> wrong = {1.0, 2.0};
  EXPECT_THROW(net.forward(wrong), std::invalid_argument);
}

// Finite-difference gradient check: the cornerstone of the manual backprop.
class MlpGradCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(MlpGradCheck, ParameterGradientsMatchFiniteDifferences) {
  const Activation hidden_act = GetParam();
  common::Rng rng(42);
  Mlp net({4, 6, 5, 2}, {hidden_act, hidden_act, Activation::kLinear}, rng);
  std::vector<double> x(4);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  // Loss L = sum of squared outputs; dL/dy = 2y.
  const auto loss_of = [&net, &x]() {
    const auto y = net.forward(x);
    double l = 0.0;
    for (double v : y) l += v * v;
    return l;
  };

  Mlp::Cache cache;
  const auto y = net.forward(x, cache);
  std::vector<double> dy(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) dy[i] = 2.0 * y[i];
  net.zero_grads();
  net.backward(cache, dy);

  const double eps = 1e-6;
  // Check a deterministic sample of parameters across the whole vector.
  for (std::size_t p = 0; p < net.param_count(); p += 7) {
    const double original = net.params()[p];
    net.params()[p] = original + eps;
    const double l_plus = loss_of();
    net.params()[p] = original - eps;
    const double l_minus = loss_of();
    net.params()[p] = original;
    const double fd = (l_plus - l_minus) / (2.0 * eps);
    EXPECT_NEAR(net.grads()[p], fd, 1e-4 * std::max(1.0, std::fabs(fd)))
        << "param " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, MlpGradCheck,
                         ::testing::Values(Activation::kTanh,
                                           Activation::kSigmoid,
                                           Activation::kRelu));

TEST(Mlp, InputGradientMatchesFiniteDifferences) {
  common::Rng rng(43);
  Mlp net({3, 5, 1}, {Activation::kTanh, Activation::kLinear}, rng);
  std::vector<double> x = {0.2, -0.4, 0.6};

  Mlp::Cache cache;
  net.forward(x, cache);
  const double one = 1.0;
  net.zero_grads();
  const auto dx = net.backward(cache, std::span<const double>(&one, 1));

  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = x[i];
    x[i] = orig + eps;
    const double y_plus = net.forward(x)[0];
    x[i] = orig - eps;
    const double y_minus = net.forward(x)[0];
    x[i] = orig;
    EXPECT_NEAR(dx[i], (y_plus - y_minus) / (2 * eps), 1e-5) << i;
  }
}

TEST(Mlp, BackwardAccumulatesAcrossCalls) {
  common::Rng rng(44);
  Mlp net({2, 3, 1}, {Activation::kTanh, Activation::kLinear}, rng);
  const std::vector<double> x = {0.5, -0.5};
  const double one = 1.0;

  Mlp::Cache cache;
  net.forward(x, cache);
  net.zero_grads();
  net.backward(cache, std::span<const double>(&one, 1));
  const std::vector<double> single = net.grads();

  net.zero_grads();
  net.backward(cache, std::span<const double>(&one, 1));
  net.backward(cache, std::span<const double>(&one, 1));
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_NEAR(net.grads()[i], 2.0 * single[i], 1e-12);
  }
}

TEST(Mlp, SoftUpdateMovesTowardSource) {
  common::Rng rng(45);
  Mlp a({2, 3, 1}, {Activation::kTanh, Activation::kLinear}, rng);
  Mlp b({2, 3, 1}, {Activation::kTanh, Activation::kLinear}, rng);
  const std::vector<double> before = b.params();
  b.soft_update_from(a, 0.25);
  for (std::size_t i = 0; i < b.param_count(); ++i) {
    EXPECT_NEAR(b.params()[i], 0.25 * a.params()[i] + 0.75 * before[i],
                1e-12);
  }
  b.soft_update_from(a, 1.0);
  for (std::size_t i = 0; i < b.param_count(); ++i) {
    EXPECT_EQ(b.params()[i], a.params()[i]);
  }
}

TEST(Mlp, CopyParamsExactly) {
  common::Rng rng(46);
  Mlp a({2, 4, 1}, {Activation::kRelu, Activation::kSigmoid}, rng);
  Mlp b({2, 4, 1}, {Activation::kRelu, Activation::kSigmoid}, rng);
  b.copy_params_from(a);
  const std::vector<double> x = {0.3, 0.7};
  EXPECT_EQ(a.forward(x)[0], b.forward(x)[0]);
}

TEST(Mlp, SigmoidOutputStaysInUnitInterval) {
  common::Rng rng(47);
  Mlp net({10, 32, 1}, {Activation::kRelu, Activation::kSigmoid}, rng);
  for (int t = 0; t < 100; ++t) {
    std::vector<double> x(10);
    for (auto& v : x) v = rng.uniform(-10.0, 10.0);
    const double y = net.forward(x)[0];
    EXPECT_GT(y, 0.0);
    EXPECT_LT(y, 1.0);
  }
}

// ---------------------------------------------------------------------------
// RL kernel variants: the batched passes, Adam and the soft update run
// through the ISA-dispatched dense kernels, and every variant must give the
// bits of the per-sample scalar path (EXPECT_EQ on doubles, not NEAR).
// Variants the host cannot run are skipped, not silently passed.

namespace rk = rl::kernels;

class RlVariantTest : public ::testing::TestWithParam<rk::Variant> {
 protected:
  void SetUp() override {
    if (!rk::supported(GetParam())) {
      GTEST_SKIP() << "RL variant " << rk::variant_name(GetParam())
                   << " not compiled in or not supported by this CPU";
    }
    previous_ = rk::active_variant();
    rk::set_variant(GetParam());
  }
  void TearDown() override {
    if (!IsSkipped()) rk::set_variant(previous_);
  }

 private:
  rk::Variant previous_ = rk::Variant::kPortable;
};

std::vector<double> uniform_vector(std::size_t n, common::Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// Ragged batch (M), width (N) and odd input (K) shapes exercise every tile
// tail: rows not a multiple of the register tile, columns below one vector,
// between vectors and at full tiles.
TEST_P(RlVariantTest, BatchedPassesMatchPerSampleBitForBit) {
  for (const std::size_t batch : {1u, 3u, 64u, 65u}) {
    for (const int width : {1, 10, 11, 64}) {
      for (const int in : {3, 11}) {
        SCOPED_TRACE("batch " + std::to_string(batch) + " width " +
                     std::to_string(width) + " in " + std::to_string(in));
        common::Rng rng(100 + batch + static_cast<std::size_t>(width * in));
        Mlp per_sample({in, width, width},
                       {Activation::kRelu, Activation::kTanh}, rng);
        Mlp batched({in, width, width}, {Activation::kRelu, Activation::kTanh},
                    rng);
        batched.copy_params_from(per_sample);
        const auto uin = static_cast<std::size_t>(in);
        const auto uw = static_cast<std::size_t>(width);
        const std::vector<double> x = uniform_vector(batch * uin, rng);
        const std::vector<double> dy = uniform_vector(batch * uw, rng);

        per_sample.zero_grads();
        std::vector<double> y_ref, dx_ref;
        for (std::size_t s = 0; s < batch; ++s) {
          Mlp::Cache cache;
          const auto y = per_sample.forward(
              std::span<const double>(x.data() + s * uin, uin), cache);
          y_ref.insert(y_ref.end(), y.begin(), y.end());
          const auto dx = per_sample.backward(
              cache, std::span<const double>(dy.data() + s * uw, uw));
          dx_ref.insert(dx_ref.end(), dx.begin(), dx.end());
        }

        batched.zero_grads();
        Mlp::BatchCache cache;
        const std::vector<double> y = batched.forward_batch(x.data(), batch,
                                                            cache);
        std::vector<double> dx;
        batched.backward_batch(cache, dy, &dx);

        ASSERT_EQ(y.size(), y_ref.size());
        for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], y_ref[i]);
        ASSERT_EQ(dx.size(), dx_ref.size());
        for (std::size_t i = 0; i < dx.size(); ++i) {
          EXPECT_EQ(dx[i], dx_ref[i]);
        }
        for (std::size_t i = 0; i < batched.param_count(); ++i) {
          EXPECT_EQ(batched.grads()[i], per_sample.grads()[i]) << "param " << i;
        }
      }
    }
  }
}

// Adam::step and soft_update_from against their scalar formulas, evaluated
// here term for term, over lengths that leave every vector tail ragged.
TEST_P(RlVariantTest, AdamAndSoftUpdateMatchScalarFormulas) {
  for (const std::size_t n : {1u, 7u, 64u, 4929u}) {
    SCOPED_TRACE("n " + std::to_string(n));
    common::Rng rng(7 + n);
    std::vector<double> params = uniform_vector(n, rng);
    std::vector<double> ref = params;
    std::vector<double> m(n, 0.0), v(n, 0.0);
    const double lr = 1e-3, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    rl::Adam opt(n, lr, beta1, beta2, eps);
    for (int t = 1; t <= 5; ++t) {
      const std::vector<double> grads = uniform_vector(n, rng);
      opt.step(params, grads);
      const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
      const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
      for (std::size_t i = 0; i < n; ++i) {
        const double g = grads[i];
        m[i] = beta1 * m[i] + (1.0 - beta1) * g;
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
        const double m_hat = m[i] / bc1;
        const double v_hat = v[i] / bc2;
        ref[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(params[i], ref[i]) << "step " << t << " param " << i;
      }
    }
  }

  common::Rng rng(11);
  Mlp src({11, 64, 1}, {Activation::kRelu, Activation::kLinear}, rng);
  Mlp dst({11, 64, 1}, {Activation::kRelu, Activation::kLinear}, rng);
  std::vector<double> ref = dst.params();
  const double tau = 0.01;
  dst.soft_update_from(src, tau);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = tau * src.params()[i] + (1.0 - tau) * ref[i];
    EXPECT_EQ(dst.params()[i], ref[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, RlVariantTest,
                         ::testing::Values(rk::Variant::kPortable,
                                           rk::Variant::kAvx2,
                                           rk::Variant::kAvx512),
                         [](const auto& param_info) {
                           return std::string(
                               rk::variant_name(param_info.param));
                         });

TEST(RlKernelDispatch, SupportedVariantsListsPortableFirst) {
  const auto variants = rk::supported_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front(), rk::Variant::kPortable);
  for (const rk::Variant v : variants) EXPECT_TRUE(rk::supported(v));
  EXPECT_TRUE(rk::supported(rk::active_variant()));
}

TEST(RlKernelDispatch, ArgvOverrideRejectsUnknownNames) {
  const char* argv[] = {"prog", "--kernel", "neon"};
  EXPECT_THROW(rk::apply_argv_override(3, argv), std::invalid_argument);
  const char* none[] = {"prog", "300"};
  const rk::Variant before = rk::active_variant();
  rk::apply_argv_override(2, none);
  EXPECT_EQ(rk::active_variant(), before);
}

}  // namespace
}  // namespace autohet
