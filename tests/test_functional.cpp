// End-to-end functional simulation: the DNN executed on the simulated
// crossbar fabric must match the float reference up to quantization error,
// and the bit-serial and integer datapaths must agree exactly.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "nn/model_zoo.hpp"
#include "reram/functional.hpp"
#include "reram/kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::DatapathMode;
using reram::MappedLayer;
using reram::SimulatedModel;

/// One noise-free MVM of `x` through `layer` (a batch of one), returned by
/// value. The bit-serial batch kernel reads packed planes, so it runs on a
/// packed copy of the layer.
std::vector<std::int32_t> mvm(const MappedLayer& layer,
                              std::span<const std::uint8_t> x,
                              DatapathMode mode) {
  MappedLayer packed = layer;
  if (mode == DatapathMode::kBitSerial) packed.prepare_packed();
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(layer.spec().weight_cols()));
  reram::kernels::KernelScratch scratch;
  packed.mvm_batch_into(x.data(), 1, mode, out, scratch);
  return out;
}

nn::NetworkSpec tiny_net() {
  nn::NetworkSpec net;
  net.name = "tiny";
  net.layers.push_back(nn::make_conv(2, 4, 3, 1, 1, 6, 6));
  net.layers.push_back(nn::make_maxpool(4, 2, 2, 6, 6));
  net.layers.push_back(nn::make_fc(4 * 3 * 3, 10, /*relu=*/false));
  return net;
}

TEST(MappedLayer, FcMatchesQuantizedReference) {
  common::Rng rng(1);
  const auto spec = nn::make_fc(40, 12);
  tensor::Tensor w({12, 40});
  w.fill_normal(rng, 0.0f, 0.5f);
  // The 32x32 shape forces a 2x1 crossbar grid.
  const MappedLayer mapped(spec, w, CrossbarShape{32, 32});

  const auto qw = nn::quantize_weights(w, 8);
  std::vector<std::uint8_t> x(40);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));

  const auto got = mvm(mapped, x, DatapathMode::kInteger);
  ASSERT_EQ(got.size(), 12u);
  for (std::int64_t o = 0; o < 12; ++o) {
    std::int32_t want = 0;
    for (std::int64_t i = 0; i < 40; ++i) {
      want += static_cast<std::int32_t>(x[static_cast<std::size_t>(i)]) *
              qw.values[static_cast<std::size_t>(o * 40 + i)];
    }
    EXPECT_EQ(got[static_cast<std::size_t>(o)], want) << o;
  }
}

TEST(MappedLayer, ConvKernelAlignedMatchesQuantizedReference) {
  common::Rng rng(2);
  const auto spec = nn::make_conv(5, 7, 3, 1, 1, 6, 6);
  tensor::Tensor w({7, 5, 3, 3});
  w.fill_normal(rng, 0.0f, 0.5f);
  // 32 rows, floor(32/9)=3 kernels per block -> 2 row blocks; 7 cols fit.
  const MappedLayer mapped(spec, w, CrossbarShape{32, 32});
  EXPECT_FALSE(mapped.mapping().split_kernel);
  EXPECT_EQ(mapped.mapping().row_blocks, 2);

  const auto qw = nn::quantize_weights(w.reshaped({7, 45}), 8);
  std::vector<std::uint8_t> x(45);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
  const auto got = mvm(mapped, x, DatapathMode::kInteger);
  for (std::int64_t o = 0; o < 7; ++o) {
    std::int32_t want = 0;
    for (std::int64_t i = 0; i < 45; ++i) {
      want += static_cast<std::int32_t>(x[static_cast<std::size_t>(i)]) *
              qw.values[static_cast<std::size_t>(o * 45 + i)];
    }
    EXPECT_EQ(got[static_cast<std::size_t>(o)], want) << o;
  }
}

TEST(MappedLayer, SplitKernelFallbackMatchesReference) {
  common::Rng rng(3);
  const auto spec = nn::make_conv(2, 5, 7, 1, 3, 8, 8);  // 49 > 32 rows
  tensor::Tensor w({5, 2, 7, 7});
  w.fill_normal(rng, 0.0f, 0.5f);
  const MappedLayer mapped(spec, w, CrossbarShape{32, 32});
  EXPECT_TRUE(mapped.mapping().split_kernel);

  const auto qw = nn::quantize_weights(w.reshaped({5, 98}), 8);
  std::vector<std::uint8_t> x(98);
  for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
  const auto got = mvm(mapped, x, DatapathMode::kInteger);
  for (std::int64_t o = 0; o < 5; ++o) {
    std::int32_t want = 0;
    for (std::int64_t i = 0; i < 98; ++i) {
      want += static_cast<std::int32_t>(x[static_cast<std::size_t>(i)]) *
              qw.values[static_cast<std::size_t>(o * 98 + i)];
    }
    EXPECT_EQ(got[static_cast<std::size_t>(o)], want) << o;
  }
}

TEST(MappedLayer, BitSerialAndIntegerDatapathsAgree) {
  common::Rng rng(4);
  const auto spec = nn::make_conv(4, 6, 3, 1, 1, 5, 5);
  tensor::Tensor w({6, 4, 3, 3});
  w.fill_normal(rng, 0.0f, 0.5f);
  for (const CrossbarShape shape :
       {CrossbarShape{32, 32}, CrossbarShape{36, 32}, CrossbarShape{72, 64}}) {
    const MappedLayer mapped(spec, w, shape);
    std::vector<std::uint8_t> x(36);
    for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
    EXPECT_EQ(mvm(mapped, x, DatapathMode::kBitSerial),
              mvm(mapped, x, DatapathMode::kInteger))
        << shape.name();
  }
}

TEST(SimulatedModel, TinyNetTracksFloatReference) {
  common::Rng rng(5);
  const nn::Model model(tiny_net(), rng);
  const std::vector<CrossbarShape> shapes(2, CrossbarShape{32, 32});
  const SimulatedModel sim(model, shapes);

  common::Rng img_rng(6);
  const auto input = nn::synthetic_image(img_rng, 2, 6, 6);
  const auto reference = model.forward(input);
  const auto simulated = sim.forward(input);
  ASSERT_EQ(simulated.numel(), reference.numel());
  // 8-bit weights and activations: expect small relative error.
  const float scale = std::max(1.0f, reference.abs_max());
  EXPECT_LT(tensor::max_abs_diff(reference, simulated) / scale, 0.05f);
}

TEST(SimulatedModel, LeNetOnHeterogeneousShapes) {
  common::Rng rng(7);
  const nn::Model model(nn::lenet5(), rng);
  // Mixed shapes across the layers, exercising rectangles.
  const std::vector<CrossbarShape> shapes = {
      {32, 32}, {36, 32}, {288, 256}, {72, 64}, {128, 128}};
  const SimulatedModel sim(model, shapes);
  common::Rng img_rng(8);
  const auto input = nn::synthetic_image(img_rng, 1, 32, 32);
  const auto reference = model.forward(input);
  const auto simulated = sim.forward(input);
  const float scale = std::max(1.0f, reference.abs_max());
  EXPECT_LT(tensor::max_abs_diff(reference, simulated) / scale, 0.08f);
}

TEST(SimulatedModel, ClassificationAgreesWithReference) {
  // The quantized fabric should almost always pick the same argmax.
  common::Rng rng(9);
  const nn::Model model(nn::lenet5(), rng);
  const std::vector<CrossbarShape> shapes(5, CrossbarShape{64, 64});
  const SimulatedModel sim(model, shapes);
  common::Rng img_rng(10);
  int agree = 0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    const auto input = nn::synthetic_image(img_rng, 1, 32, 32);
    if (tensor::argmax(model.forward(input)) ==
        tensor::argmax(sim.forward(input))) {
      ++agree;
    }
  }
  EXPECT_GE(agree, kTrials - 1);
}

TEST(SimulatedModel, BitSerialWholeNetwork) {
  // Full bit-serial datapath on the tiny network matches the integer mode.
  common::Rng rng(11);
  const nn::Model model(tiny_net(), rng);
  const std::vector<CrossbarShape> shapes(2, CrossbarShape{32, 32});
  const SimulatedModel bitwise(model, shapes, DatapathMode::kBitSerial);
  const SimulatedModel integer(model, shapes, DatapathMode::kInteger);
  common::Rng img_rng(12);
  const auto input = nn::synthetic_image(img_rng, 2, 6, 6);
  EXPECT_EQ(tensor::max_abs_diff(bitwise.forward(input),
                                 integer.forward(input)),
            0.0f);
}

TEST(SimulatedModel, ValidatesShapeCount) {
  common::Rng rng(13);
  const nn::Model model(nn::lenet5(), rng);
  const std::vector<CrossbarShape> wrong(2, CrossbarShape{32, 32});
  EXPECT_THROW(SimulatedModel(model, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace autohet
