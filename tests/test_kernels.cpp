// Equivalence suite for the fast functional-simulation engine against the
// scalar oracles (oracle.hpp): packed bit-plane kernels vs the per-cell
// datapaths, the batched integer GEMM kernel vs per-column MVMs, the keyed
// fault burn vs the oracle's per-cell keyed loop, the network forward vs
// the oracle forward, and byte-identity of the Monte-Carlo robustness
// reports against the oracle Monte-Carlo and across thread counts and the
// TrialFabricCache. Everything here is an exactness
// claim — EXPECT_EQ, never near.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "oracle.hpp"
#include "reram/crossbar.hpp"
#include "reram/faults.hpp"
#include "reram/functional.hpp"
#include "reram/kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace autohet {
namespace {

using mapping::CrossbarShape;
using reram::FaultConfig;
using reram::FaultMapStats;
using reram::FaultModel;
using reram::LogicalCrossbar;
using reram::RobustnessOptions;
using reram::RobustnessReport;
using reram::SimulatedModel;

std::vector<std::int8_t> random_weights(common::Rng& rng, std::int64_t n) {
  std::vector<std::int8_t> w(static_cast<std::size_t>(n));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return w;
}

std::vector<std::uint8_t> random_input(common::Rng& rng, std::int64_t n,
                                       double zero_fraction = 0.25) {
  std::vector<std::uint8_t> x(static_cast<std::size_t>(n));
  for (auto& v : x) {
    v = rng.uniform() < zero_fraction
            ? std::uint8_t{0}
            : static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return x;
}

void expect_stats_eq(const FaultMapStats& a, const FaultMapStats& b) {
  EXPECT_EQ(a.physical_cells, b.physical_cells);
  EXPECT_EQ(a.stuck_at_zero, b.stuck_at_zero);
  EXPECT_EQ(a.stuck_at_one, b.stuck_at_one);
  EXPECT_EQ(a.weights_changed, b.weights_changed);
}

bool reports_equal(const RobustnessReport& a, const RobustnessReport& b) {
  return a.trials == b.trials && a.trials_requested == b.trials_requested &&
         a.early_stopped == b.early_stopped &&
         a.accuracy_ci_lower == b.accuracy_ci_lower &&
         a.accuracy_ci_upper == b.accuracy_ci_upper &&
         a.samples == b.samples &&
         a.mean_accuracy == b.mean_accuracy &&
         a.stddev_accuracy == b.stddev_accuracy &&
         a.min_accuracy == b.min_accuracy && a.max_accuracy == b.max_accuracy &&
         a.mean_logit_error == b.mean_logit_error &&
         a.layer_error == b.layer_error &&
         a.fault_stats.physical_cells == b.fault_stats.physical_cells &&
         a.fault_stats.stuck_at_zero == b.fault_stats.stuck_at_zero &&
         a.fault_stats.stuck_at_one == b.fault_stats.stuck_at_one &&
         a.fault_stats.weights_changed == b.fault_stats.weights_changed;
}

// ---------------------------------------------------------------------------
// Packed kernels vs the scalar oracle datapaths.

struct KernelCase {
  CrossbarShape shape;
  std::int64_t rows, cols;  ///< programmed (used) region, possibly ragged
};

TEST(PackedKernels, MatchScalarOnRaggedShapes) {
  common::Rng rng(123);
  const KernelCase cases[] = {{{64, 64}, 64, 64},   {{72, 64}, 25, 6},
                              {{128, 96}, 100, 96}, {{65, 33}, 65, 33},
                              {{300, 40}, 123, 17}, {{64, 64}, 1, 1}};
  for (const auto& c : cases) {
    LogicalCrossbar xb(c.shape);
    xb.program(random_weights(rng, c.rows * c.cols), c.rows, c.cols);
    xb.ensure_packed();
    const auto x = random_input(rng, c.rows);
    EXPECT_EQ(xb.mvm_bit_serial(x), oracle::mvm_bit_serial_scalar(xb, x));
    EXPECT_EQ(xb.mvm_reference(x), oracle::mvm_reference_scalar(xb, x));
    EXPECT_EQ(xb.mvm_bit_serial(x), oracle::mvm_reference_scalar(xb, x));
  }
}

TEST(PackedKernels, MatchScalarAfterFaultBurn) {
  common::Rng rng(7);
  LogicalCrossbar xb({96, 80});
  xb.program(random_weights(rng, 90 * 70), 90, 70);
  xb.ensure_packed();  // the burn below repacks the moved cells
  FaultConfig fc;
  fc.stuck_at_zero_rate = 0.01;
  fc.stuck_at_one_rate = 0.01;
  fc.program_sigma = 0.05;
  fc.cell_bits = 2;
  const FaultMapStats stats =
      xb.burn(FaultModel(fc), reram::BurnKey{fc.seed, /*layer=*/3, 0, 0});
  EXPECT_EQ(stats.physical_cells, 90 * 70 * 4);
  EXPECT_GT(stats.weights_changed, 0);
  const auto x = random_input(rng, 90);
  EXPECT_EQ(xb.mvm_bit_serial(x), oracle::mvm_bit_serial_scalar(xb, x));
  EXPECT_EQ(xb.mvm_reference(x), oracle::mvm_reference_scalar(xb, x));
}

TEST(PackedKernels, BatchedReferenceMatchesPerColumn) {
  common::Rng rng(42);
  const KernelCase cases[] = {
      {{72, 64}, 25, 6}, {{64, 64}, 64, 64}, {{130, 48}, 130, 31}};
  for (const auto& c : cases) {
    LogicalCrossbar xb(c.shape);
    xb.program(random_weights(rng, c.rows * c.cols), c.rows, c.cols);
    const std::int64_t batch = 13;
    // Transposed input matrix: row i of the batch at cols_t[i*batch ..].
    std::vector<std::uint8_t> cols_t(
        static_cast<std::size_t>(c.rows * batch));
    for (auto& v : cols_t) {
      v = rng.uniform() < 0.3
              ? std::uint8_t{0}
              : static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    std::vector<std::int32_t> acc_t(static_cast<std::size_t>(c.cols * batch),
                                    0);
    xb.mvm_reference_batch_accum(cols_t.data(), batch, acc_t.data());
    for (std::int64_t p = 0; p < batch; ++p) {
      std::vector<std::uint8_t> column(static_cast<std::size_t>(c.rows));
      for (std::int64_t i = 0; i < c.rows; ++i) {
        column[static_cast<std::size_t>(i)] =
            cols_t[static_cast<std::size_t>(i * batch + p)];
      }
      const auto expected = oracle::mvm_reference_scalar(xb, column);
      for (std::int64_t j = 0; j < c.cols; ++j) {
        EXPECT_EQ(acc_t[static_cast<std::size_t>(j * batch + p)],
                  expected[static_cast<std::size_t>(j)])
            << "col " << j << " batch " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch variants: every compiled-and-supported ISA variant must agree
// with the scalar oracle on randomized ragged shapes (tails that are not a
// multiple of 64 rows exercise the masked/partial word paths). Variants the
// host cannot run are skipped, not silently passed.

namespace rk = reram::kernels;

class KernelVariantTest : public ::testing::TestWithParam<rk::Variant> {
 protected:
  void SetUp() override {
    if (!rk::supported(GetParam())) {
      GTEST_SKIP() << "variant " << rk::variant_name(GetParam())
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

TEST_P(KernelVariantTest, RandomRaggedShapesMatchScalar) {
  common::Rng rng(0xbeef ^ static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 12; ++trial) {
    // Rows straddle the 64-bit word boundaries: 1..320 hits every tail
    // length; cols stay small enough to keep the scalar oracle cheap.
    const auto rows = static_cast<std::int64_t>(rng.uniform_int(1, 320));
    const auto cols = static_cast<std::int64_t>(rng.uniform_int(1, 96));
    const CrossbarShape shape{
        rows + static_cast<std::int64_t>(rng.uniform_int(0, 40)),
        cols + static_cast<std::int64_t>(rng.uniform_int(0, 24))};
    LogicalCrossbar xb(shape);
    xb.program(random_weights(rng, rows * cols), rows, cols);
    xb.ensure_packed();
    const auto x = random_input(rng, rows);
    EXPECT_EQ(xb.mvm_bit_serial(x), oracle::mvm_bit_serial_scalar(xb, x))
        << "rows=" << rows << " cols=" << cols;
    EXPECT_EQ(xb.mvm_reference(x), oracle::mvm_reference_scalar(xb, x))
        << "rows=" << rows << " cols=" << cols;
  }
}

TEST_P(KernelVariantTest, BatchedPackedMatchesPerColumn) {
  common::Rng rng(0xcafe ^ static_cast<std::uint64_t>(GetParam()));
  const KernelCase cases[] = {
      {{72, 64}, 25, 6}, {{64, 64}, 64, 64}, {{130, 48}, 130, 31},
      {{300, 40}, 257, 17}};
  rk::KernelScratch scratch;  // reused across cases: growth-only contract
  for (const auto& c : cases) {
    LogicalCrossbar xb(c.shape);
    xb.program(random_weights(rng, c.rows * c.cols), c.rows, c.cols);
    xb.ensure_packed();
    const std::int64_t batch = 7;
    std::vector<std::uint8_t> cols_t(static_cast<std::size_t>(c.rows * batch));
    for (auto& v : cols_t) {
      v = rng.uniform() < 0.3
              ? std::uint8_t{0}
              : static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    std::vector<std::int32_t> bs_t(static_cast<std::size_t>(c.cols * batch),
                                   0);
    xb.mvm_bit_serial_batch_accum(cols_t.data(), batch, bs_t.data(), scratch);
    for (std::int64_t p = 0; p < batch; ++p) {
      std::vector<std::uint8_t> column(static_cast<std::size_t>(c.rows));
      for (std::int64_t i = 0; i < c.rows; ++i) {
        column[static_cast<std::size_t>(i)] =
            cols_t[static_cast<std::size_t>(i * batch + p)];
      }
      const auto expected_bs = oracle::mvm_bit_serial_scalar(xb, column);
      for (std::int64_t j = 0; j < c.cols; ++j) {
        EXPECT_EQ(bs_t[static_cast<std::size_t>(j * batch + p)],
                  expected_bs[static_cast<std::size_t>(j)])
            << "bit-serial col " << j << " batch " << p;
      }
    }
  }
}

TEST_P(KernelVariantTest, ForwardMatchesScalarReference) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  common::Rng ir(4);
  const nn::LayerSpec& first = net.layers.front();
  const tensor::Tensor image = nn::synthetic_image(
      ir, first.in_channels, first.in_height, first.in_width);
  for (const auto mode :
       {reram::DatapathMode::kInteger, reram::DatapathMode::kBitSerial}) {
    const SimulatedModel fast(model, shapes, mode);
    const oracle::Fabric scalar(model, shapes, mode);
    EXPECT_EQ(tensor::max_abs_diff(fast.forward(image),
                                   scalar.forward(image).output),
              0.0f)
        << "mode " << static_cast<int>(mode);
  }
}

// acc_t[j*count+s] += Σ_i cells[i*cols+j] · inputs_t[i*count+s], one
// column and sample at a time.
void reference_batch_scalar(const std::vector<std::int8_t>& cells,
                            std::int64_t rows, std::int64_t cols,
                            const std::vector<std::uint8_t>& inputs_t,
                            std::int64_t count,
                            std::vector<std::int32_t>& acc_t) {
  const auto at = [](const auto& v, std::int64_t i) {
    return static_cast<std::int32_t>(v[static_cast<std::size_t>(i)]);
  };
  for (std::int64_t j = 0; j < cols; ++j) {
    for (std::int64_t s = 0; s < count; ++s) {
      std::int32_t dot = 0;
      for (std::int64_t i = 0; i < rows; ++i) {
        dot += at(cells, i * cols + j) * at(inputs_t, i * count + s);
      }
      acc_t[static_cast<std::size_t>(j * count + s)] += dot;
    }
  }
}

TEST_P(KernelVariantTest, ReferenceBatchMatchesPerColumnScalar) {
  // The table's reference_batch against a per-column scalar dot product,
  // across the batch widths on both sides of every core's vector width and
  // of its register tile's sample block (the samples past the last whole
  // vector take the row-oriented loop), column counts around the register
  // tile's column block and the vector and stack-block edges, all-zero and
  // partly zero weights and activations. acc_t starts nonzero: the kernel
  // accumulates.
  common::Rng rng(0xfeed ^ static_cast<std::uint64_t>(GetParam()));
  const auto& ops = rk::ops();
  const std::int64_t rows = 37;
  std::vector<std::int64_t> counts;
  for (std::int64_t count = 1; count <= 17; ++count) counts.push_back(count);
  for (const std::int64_t count : {31, 32, 33, 63, 64, 65, 95, 96, 97, 200}) {
    counts.push_back(count);
  }
  for (const std::int64_t cols : {1, 2, 3, 6, 15, 17, 120, 513}) {
    for (const bool zero_weights : {false, true}) {
      auto cells = random_weights(rng, rows * cols);
      for (std::int64_t i = 0; i < rows * cols; ++i) {
        // Every third cell, and all of row 5, is zero.
        if (zero_weights || i % 3 == 0 || i / cols == 5) {
          cells[static_cast<std::size_t>(i)] = 0;
        }
      }
      for (const std::int64_t count : counts) {
        for (const bool zero_inputs : {false, true}) {
          // 40% zero activations, and all of row 7.
          auto inputs_t = random_input(rng, rows * count, 0.4);
          for (std::int64_t i = 0; i < rows * count; ++i) {
            if (zero_inputs || i / count == 7) {
              inputs_t[static_cast<std::size_t>(i)] = 0;
            }
          }
          std::vector<std::int32_t> acc_t(
              static_cast<std::size_t>(cols * count));
          for (auto& v : acc_t) {
            v = static_cast<std::int32_t>(rng.uniform_int(-1000, 1000));
          }
          auto expected = acc_t;
          reference_batch_scalar(cells, rows, cols, inputs_t, count,
                                 expected);
          ops.reference_batch(cells.data(), rows, cols, inputs_t.data(),
                              count, acc_t.data());
          EXPECT_EQ(acc_t, expected)
              << "cols=" << cols << " count=" << count
              << " zero_weights=" << zero_weights
              << " zero_inputs=" << zero_inputs;
        }
      }
    }
  }
  // The largest sum a 576-row crossbar can form: every cell −128 and every
  // input 255 give 576 · −128 · 255 = −18,800,640 per output, inside int32
  // whatever order the kernel adds the products in.
  const std::int64_t tall = 576;
  for (const std::int64_t cols : {1, 5, 64}) {
    const std::vector<std::int8_t> cells(static_cast<std::size_t>(tall * cols),
                                         std::int8_t{-128});
    for (const std::int64_t count : {1, 4, 16, 33, 96, 200}) {
      const std::vector<std::uint8_t> inputs_t(
          static_cast<std::size_t>(tall * count), std::uint8_t{255});
      std::vector<std::int32_t> acc_t(static_cast<std::size_t>(cols * count),
                                      0);
      ops.reference_batch(cells.data(), tall, cols, inputs_t.data(), count,
                          acc_t.data());
      for (const std::int32_t v : acc_t) {
        ASSERT_EQ(v, -18800640) << "cols=" << cols << " count=" << count;
      }
    }
  }
}

TEST_P(KernelVariantTest, ConvGeometryMatchesOracle) {
  // One conv layer per geometry (every kernel size, stride and padding
  // below, on H != W planes whose position counts are not multiples of the
  // 96-position conv tile) forwarded as a batch of three, so tiles straddle
  // samples, on both datapaths, ideal and faulty, against the oracle
  // fabric's one-column MVMs. Crossbar shapes cover split kernels (16 rows
  // < 25) and several row and column blocks.
  common::Rng rng(0xc0de ^ static_cast<std::uint64_t>(GetParam()));
  FaultConfig faulty;
  faulty.stuck_at_zero_rate = 2e-3;
  faulty.stuck_at_one_rate = 2e-3;
  faulty.program_sigma = 0.05;
  faulty.cell_bits = 2;
  faulty.seed = 0x9e0;
  const CrossbarShape shapes[] = {{16, 8}, {32, 16}, {72, 64}};
  for (const std::int64_t k : {1, 2, 3, 5}) {
    for (const std::int64_t stride : {1, 2, 3}) {
      for (const std::int64_t pad : {0, 1, 2}) {
        const auto in_c = static_cast<std::int64_t>(rng.uniform_int(1, 2));
        const auto out_c = static_cast<std::int64_t>(rng.uniform_int(1, 20));
        const auto h = static_cast<std::int64_t>(
            rng.uniform_int(std::max<std::int64_t>(1, k - 2 * pad), k + 9));
        std::int64_t w = h + static_cast<std::int64_t>(rng.uniform_int(1, 4));
        const auto positions = [&] {
          return ((h + 2 * pad - k) / stride + 1) *
                 ((w + 2 * pad - k) / stride + 1);
        };
        while (positions() % 96 == 0 || 3 * positions() % 96 == 0) ++w;
        nn::NetworkSpec net;
        net.name = "conv";
        net.layers.push_back(nn::make_conv(in_c, out_c, k, stride, pad, h, w));
        const nn::Model model(net, rng);
        const std::vector<CrossbarShape> shape = {
            shapes[rng.uniform_int(0, 2)]};
        std::vector<tensor::Tensor> images;
        for (int s = 0; s < 3; ++s) {
          images.push_back(nn::synthetic_image(rng, in_c, h, w));
        }
        for (const auto mode :
             {reram::DatapathMode::kInteger, reram::DatapathMode::kBitSerial}) {
          for (const FaultConfig& fc : {FaultConfig{}, faulty}) {
            SCOPED_TRACE(::testing::Message()
                         << "k=" << k << " stride=" << stride << " pad=" << pad
                         << " " << in_c << "x" << h << "x" << w << " -> "
                         << out_c << " on " << shape[0].rows << "x"
                         << shape[0].cols << " mode " << static_cast<int>(mode)
                         << (fc.ideal() ? " ideal" : " faulty"));
            const SimulatedModel fast(model, shape, mode, fc);
            const oracle::Fabric scalar(model, shape, mode, fc);
            expect_stats_eq(fast.fault_stats(), scalar.fault_stats());
            const auto traces = fast.forward_batch(images);
            for (std::size_t s = 0; s < images.size(); ++s) {
              const auto want = scalar.forward(images[s]);
              ASSERT_EQ(traces[s].mappable_outputs.size(), 1u);
              EXPECT_EQ(traces[s].mappable_outputs[0].shape(),
                        want.mappable_outputs[0].shape());
              EXPECT_EQ(tensor::max_abs_diff(traces[s].mappable_outputs[0],
                                             want.mappable_outputs[0]),
                        0.0f)
                  << "sample " << s;
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelVariantTest, MonteCarloMatchesOracle) {
  // Under each kernel variant the production Monte-Carlo (keyed burns,
  // batched forwards through the variant's MVM kernels), serial and
  // pooled, reproduces the oracle's from-scratch scalar run byte for byte.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  FaultConfig fc;
  fc.stuck_at_zero_rate = 2e-3;
  fc.stuck_at_one_rate = 1e-3;
  fc.program_sigma = 0.03;
  fc.cell_bits = 2;
  RobustnessOptions mc;
  mc.trials = 9;  // crosses the pooled run's 8-trial block
  mc.samples = 3;
  const auto want = oracle::monte_carlo_robustness(model, shapes, fc, mc);
  for (const int threads : {1, 3}) {
    mc.threads = threads;
    EXPECT_TRUE(reports_equal(
        reram::monte_carlo_robustness(model, shapes, fc, mc), want))
        << threads << " threads";
  }
}

TEST_P(KernelVariantTest, BatchedBurnRepacksPackedClones) {
  // Packed clones burned under several trial seeds read back through the
  // packed bit-serial kernel exactly as an unpacked clone burned alike
  // reads through the scalar datapaths.
  common::Rng rng(77);
  const std::int64_t rows = 70, cols = 33;
  LogicalCrossbar clean({72, 40});
  clean.program(random_weights(rng, rows * cols), rows, cols);
  clean.ensure_packed();
  FaultConfig fc;
  fc.stuck_at_zero_rate = 0.01;
  fc.stuck_at_one_rate = 0.01;
  fc.program_sigma = 0.1;
  fc.cell_bits = 2;
  const FaultModel model(fc);
  const auto x = random_input(rng, rows);
  for (std::uint64_t t = 0; t < 6; ++t) {
    const reram::BurnKey key{fc.for_trial(t).seed, 11, 0, 0};
    LogicalCrossbar packed = clean;
    const FaultMapStats stats = packed.burn(model, key);
    std::vector<std::int8_t> cells(clean.cells().begin(), clean.cells().end());
    const FaultMapStats want =
        oracle::burn_reference(fc, cells, rows, cols, cols, key);
    expect_stats_eq(stats, want);
    ASSERT_TRUE(packed.is_packed());
    EXPECT_EQ(std::vector<std::int8_t>(packed.cells().begin(),
                                       packed.cells().end()),
              cells)
        << "trial " << t;
    EXPECT_EQ(packed.mvm_bit_serial(x),
              oracle::mvm_reference_scalar(packed, x))
        << "trial " << t;
  }
}

TEST_P(KernelVariantTest, MonteCarloRateRowMatchesPortable) {
  // One LeNet-5 rate row, serial and pooled through a reference cache,
  // against the portable kernels' uncached serial reports. 9 trials cross
  // the pooled run's 8-trial block.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  RobustnessOptions mc;
  mc.trials = 9;
  mc.samples = 2;
  const auto rate_fc = [](double rate) {
    FaultConfig fc;
    fc.stuck_at_zero_rate = rate / 2;
    fc.stuck_at_one_rate = rate / 2;
    fc.program_sigma = 0.05;
    fc.cell_bits = 2;
    return fc;
  };
  const double rates[] = {0.0, 1e-3, 5e-3};
  std::vector<RobustnessReport> portable;
  rk::set_variant(rk::Variant::kPortable);
  for (const double rate : rates) {
    portable.push_back(
        reram::monte_carlo_robustness(model, shapes, rate_fc(rate), mc));
  }
  rk::set_variant(GetParam());
  common::ThreadPool pool(3);
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                &pool}) {
    reram::TrialFabricCache cache;
    RobustnessOptions run = mc;
    run.cache = &cache;
    run.pool = p;
    run.threads = p != nullptr ? 3 : 1;
    for (std::size_t i = 0; i < std::size(rates); ++i) {
      EXPECT_TRUE(reports_equal(
          reram::monte_carlo_robustness(model, shapes, rate_fc(rates[i]),
                                        run),
          portable[i]))
          << "rate " << rates[i] << " pooled " << (p != nullptr);
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.ideal_builds, 1u);
    EXPECT_EQ(stats.ideal_hits, std::size(rates) - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, KernelVariantTest,
                         ::testing::Values(rk::Variant::kPortable,
                                           rk::Variant::kAvx2,
                                           rk::Variant::kAvx512),
                         [](const auto& param_info) {
                           return std::string(
                               rk::variant_name(param_info.param));
                         });

TEST(KernelDispatch, SupportedVariantsListsPortableFirst) {
  const auto variants = rk::supported_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front(), rk::Variant::kPortable);
  for (const rk::Variant v : variants) EXPECT_TRUE(rk::supported(v));
}

TEST(KernelDispatch, VariantNamesRoundTrip) {
  for (int i = 0; i < common::kKernelVariantCount; ++i) {
    const auto v = static_cast<common::KernelVariant>(i);
    EXPECT_EQ(common::kernel_variant_from_name(common::kernel_variant_name(v)),
              v);
  }
  EXPECT_FALSE(common::kernel_variant_from_name("neon"));
  EXPECT_FALSE(common::kernel_variant_from_name(""));
}

TEST(KernelScratch, BuffersGrowMonotonicallyAndAreReusable) {
  rk::KernelScratch scratch;
  std::uint64_t* p64 = scratch.input_planes(64);
  std::memset(p64, 0, 64 * sizeof(std::uint64_t));
  // A smaller request must not shrink or move the buffer.
  EXPECT_EQ(scratch.input_planes(16), p64);
  std::uint8_t* c = scratch.columns_t(100);
  EXPECT_EQ(scratch.columns_t(50), c);
  std::int32_t* a = scratch.accs_t(32);
  EXPECT_EQ(scratch.accs_t(32), a);
  // Distinct buffer families never alias.
  EXPECT_NE(static_cast<void*>(scratch.input_planes(8)),
            static_cast<void*>(scratch.columns_t(8)));
}

// ---------------------------------------------------------------------------
// The keyed burn vs the oracle's per-cell keyed loop.

TEST(FaultBurnIn, FastApplyMatchesReference) {
  const std::int64_t rows = 60, cols = 52;
  FaultConfig configs[3];
  configs[0].stuck_at_zero_rate = 0.01;  // stuck-only
  configs[0].stuck_at_one_rate = 0.005;
  configs[1].program_sigma = 0.3;  // heavy variation-only
  configs[2].stuck_at_zero_rate = 0.002;  // both, multi-level
  configs[2].stuck_at_one_rate = 0.002;
  configs[2].program_sigma = 0.01;
  for (FaultConfig fc : configs) {
    for (const int bits : {1, 2, 4, 8}) {
      fc.cell_bits = bits;
      fc.seed = 0x1234 + static_cast<std::uint64_t>(bits);
      const FaultModel model(fc);
      common::Rng wrng(99);
      const auto original = random_weights(wrng, rows * cols);
      auto fast = original;
      auto ref = original;
      const FaultMapStats fast_stats =
          model.apply(fast, rows, cols, /*layer=*/17);
      const FaultMapStats ref_stats = oracle::burn_reference(
          fc, ref, rows, cols, cols, {fc.seed, 17, 0, 0});
      EXPECT_EQ(fast, ref) << "bits=" << bits;
      expect_stats_eq(fast_stats, ref_stats);
    }
  }
}

TEST(FaultBurnIn, BlockBurnsMatchOracle) {
  // A programmed block at a weight offset burns under several trial seeds
  // exactly as the oracle's keyed loop burns it: cells, stats and the two
  // burn counters.
  const std::int64_t rows = 30, cols = 25;
  common::Rng wrng(31);
  const std::vector<std::int8_t> array = random_weights(wrng, rows * cols);
  for (const int bits : {1, 2, 4, 8}) {
    for (int kind = 0; kind < 3; ++kind) {  // variation, stuck, both
      FaultConfig fc;
      fc.cell_bits = bits;
      fc.seed = 0xb0a7 + static_cast<std::uint64_t>(bits);
      if (kind != 1) fc.program_sigma = 0.2;
      if (kind != 0) {
        fc.stuck_at_zero_rate = 4e-3;
        fc.stuck_at_one_rate = 3e-3;
      }
      const FaultModel model(fc);
      for (std::uint64_t t = 0; t < 3; ++t) {
        SCOPED_TRACE(testing::Message()
                     << "bits " << bits << " kind " << kind << " trial " << t);
        const reram::BurnKey key{fc.for_trial(t).seed, 5, 40, 24};
        auto want = array;
        const FaultMapStats want_stats =
            oracle::burn_reference(fc, want, rows, cols, cols, key);
#if !defined(AUTOHET_OBS_DISABLED)
        auto& registry = obs::Registry::global();
        const std::uint64_t cells0 =
            registry.counter("autohet_fault_cells_total").value();
        const std::uint64_t stuck0 =
            registry.counter("autohet_fault_stuck_cells_total").value();
#endif
        auto got = array;
        const FaultMapStats got_stats =
            model.burn(got, rows, cols, key);
#if !defined(AUTOHET_OBS_DISABLED)
        EXPECT_EQ(registry.counter("autohet_fault_cells_total").value() -
                      cells0,
                  static_cast<std::uint64_t>(want_stats.physical_cells));
        EXPECT_EQ(registry.counter("autohet_fault_stuck_cells_total").value() -
                      stuck0,
                  static_cast<std::uint64_t>(want_stats.stuck_at_zero +
                                             want_stats.stuck_at_one));
#endif
        EXPECT_EQ(got, want);
        expect_stats_eq(got_stats, want_stats);
        EXPECT_EQ(want_stats.physical_cells, rows * cols * (8 / bits));
        // One-bit levels only move when σZ < ln ½ (p ≈ 3·10⁻⁴ at σ = 0.2).
        if (bits > 1 || kind != 0) {
          EXPECT_GT(want_stats.weights_changed, 0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-fabric equivalence: the production forward vs the oracle forward.

TEST(SimulatedModelKernels, FastForwardMatchesScalarReference) {
  // LeNet-5 (a chain) and the CIFAR ResNet (residual adds, a strided 1x1
  // projection, global average pooling), on both datapaths, ideal and
  // burned with stuck-at faults plus programming variation: the output and
  // every mappable layer's pre-activation output equal the oracle's.
  FaultConfig stuck;
  stuck.stuck_at_zero_rate = 5e-4;
  stuck.stuck_at_one_rate = 5e-4;
  stuck.program_sigma = 0.01;
  stuck.cell_bits = 2;
  common::Rng lenet_rng(21);
  common::Rng resnet_rng(3);
  const nn::Model models[] = {nn::Model(nn::lenet5(), lenet_rng),
                              nn::Model(nn::cifar_resnet_graph(), resnet_rng)};
  for (const nn::Model& model : models) {
    const std::vector<CrossbarShape> shapes(
        model.spec().mappable_layers().size(), {72, 64});
    common::Rng ir(4);
    const nn::LayerSpec& first = model.spec().layers.front();
    const tensor::Tensor image = nn::synthetic_image(
        ir, first.in_channels, first.in_height, first.in_width);
    for (const auto mode :
         {reram::DatapathMode::kInteger, reram::DatapathMode::kBitSerial}) {
      for (const FaultConfig& fc : {FaultConfig{}, stuck}) {
        SCOPED_TRACE(testing::Message()
                     << model.spec().name << " mode "
                     << static_cast<int>(mode) << " ideal " << fc.ideal());
        const SimulatedModel fast(model, shapes, mode, fc);
        const oracle::Fabric scalar(model, shapes, mode, fc);
        const auto got = fast.forward_batch(std::span(&image, 1)).front();
        const auto want = scalar.forward(image);
        expect_stats_eq(fast.fault_stats(), scalar.fault_stats());
        EXPECT_EQ(tensor::max_abs_diff(got.output, want.output), 0.0f);
        ASSERT_EQ(got.mappable_outputs.size(), want.mappable_outputs.size());
        for (std::size_t l = 0; l < got.mappable_outputs.size(); ++l) {
          EXPECT_EQ(tensor::max_abs_diff(got.mappable_outputs[l],
                                         want.mappable_outputs[l]),
                    0.0f)
              << "layer " << l;
        }
      }
    }
  }
}

TEST(SimulatedModelKernels, FaultyCopiesOfAPackedFabricMatchScalarReference) {
  // A clean bit-serial fabric carries packed planes. Its faulty copy
  // (with_faults) must read back through its own packed planes exactly as
  // the oracle fabric built with the faults does.
  FaultConfig fc;
  fc.stuck_at_zero_rate = 5e-4;
  fc.stuck_at_one_rate = 5e-4;
  fc.program_sigma = 0.01;
  fc.cell_bits = 2;
  common::Rng wr(21);
  const nn::Model model(nn::lenet5(), wr);
  const std::vector<CrossbarShape> shapes(
      model.spec().mappable_layers().size(), {72, 64});
  common::Rng ir(4);
  const nn::LayerSpec& first = model.spec().layers.front();
  const tensor::Tensor image = nn::synthetic_image(
      ir, first.in_channels, first.in_height, first.in_width);
  const SimulatedModel clean(model, shapes, reram::DatapathMode::kBitSerial);
  const SimulatedModel burned = clean.with_faults(fc);
  const oracle::Fabric scalar(model, shapes, reram::DatapathMode::kBitSerial,
                              fc);
  const auto want = scalar.forward(image);
  const auto got = burned.forward_batch(std::span(&image, 1)).front();
  expect_stats_eq(burned.fault_stats(), scalar.fault_stats());
  EXPECT_EQ(tensor::max_abs_diff(got.output, want.output), 0.0f);
  ASSERT_EQ(got.mappable_outputs.size(), want.mappable_outputs.size());
  for (std::size_t l = 0; l < got.mappable_outputs.size(); ++l) {
    EXPECT_EQ(tensor::max_abs_diff(got.mappable_outputs[l],
                                   want.mappable_outputs[l]),
              0.0f)
        << "layer " << l;
  }
}

// ---------------------------------------------------------------------------
// Monte-Carlo byte-identity: thread counts, kernel policy, fabric cache.

RobustnessOptions small_mc() {
  RobustnessOptions mc;
  mc.trials = 3;
  mc.samples = 4;
  return mc;
}

TEST(MonteCarloIdentity, ThreadCountInvariance) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  FaultConfig fc;
  fc.stuck_at_zero_rate = 1e-3;
  fc.stuck_at_one_rate = 1e-3;
  fc.program_sigma = 0.01;
  RobustnessOptions mc = small_mc();
  mc.threads = 1;
  const auto serial = reram::monte_carlo_robustness(model, shapes, fc, mc);
  for (const int threads : {2, 8}) {
    mc.threads = threads;
    const auto parallel =
        reram::monte_carlo_robustness(model, shapes, fc, mc);
    EXPECT_TRUE(reports_equal(serial, parallel)) << threads << " threads";
  }
}

TEST(MonteCarloIdentity, ScalarReferencePolicyInvariance) {
  // The production Monte-Carlo (keyed burns, batched forwards, serial and
  // pooled) reproduces the oracle's from-scratch serial run byte for
  // byte, the CI included.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  FaultConfig fc;
  fc.stuck_at_zero_rate = 2e-3;
  fc.stuck_at_one_rate = 0.0;
  fc.program_sigma = 0.02;
  fc.cell_bits = 4;
  RobustnessOptions mc = small_mc();
  const auto want = oracle::monte_carlo_robustness(model, shapes, fc, mc);
  EXPECT_TRUE(reports_equal(
      reram::monte_carlo_robustness(model, shapes, fc, mc), want));
  mc.threads = 3;
  EXPECT_TRUE(reports_equal(
      reram::monte_carlo_robustness(model, shapes, fc, mc), want));
}

TEST(MonteCarloIdentity, TrialFabricCacheInvariance) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  reram::TrialFabricCache cache;
  for (const int bits : {1, 4}) {
    for (const double rate : {0.0, 1e-4, 5e-3}) {
      FaultConfig fc;
      fc.stuck_at_zero_rate = rate / 2;
      fc.stuck_at_one_rate = rate / 2;
      fc.program_sigma = 0.01;
      fc.cell_bits = bits;
      RobustnessOptions mc = small_mc();
      mc.cache = &cache;
      const auto cached = reram::monte_carlo_robustness(model, shapes, fc, mc);
      mc.cache = nullptr;
      const auto uncached =
          reram::monte_carlo_robustness(model, shapes, fc, mc);
      EXPECT_TRUE(reports_equal(cached, uncached))
          << "bits=" << bits << " rate=" << rate;
    }
  }
  // One reference build serves the whole grid; trial fabrics are never
  // cached.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.ideal_builds, 1u);
  EXPECT_EQ(stats.ideal_hits, 5u);
  EXPECT_EQ(stats.trial_records, 0u);
  EXPECT_EQ(stats.trial_replays, 0u);
}

TEST(SimulatedModelKernels, BatchedTracedForwardMatchesPerSample) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  common::Rng ir(4);
  const nn::LayerSpec& first = net.layers.front();
  std::vector<tensor::Tensor> images;
  for (int s = 0; s < 5; ++s) {
    images.push_back(nn::synthetic_image(ir, first.in_channels,
                                         first.in_height, first.in_width));
  }
  FaultConfig stuck;
  stuck.stuck_at_zero_rate = 1e-3;
  stuck.stuck_at_one_rate = 1e-3;
  stuck.program_sigma = 0.01;
  struct Case {
    reram::DatapathMode mode;
    FaultConfig faults;
  };
  const Case cases[] = {{reram::DatapathMode::kInteger, {}},
                        {reram::DatapathMode::kBitSerial, {}},
                        {reram::DatapathMode::kInteger, stuck},
                        {reram::DatapathMode::kBitSerial, stuck}};
  for (const auto& c : cases) {
    const SimulatedModel fabric(model, shapes, c.mode, c.faults);
    const auto batched = fabric.forward_batch(images);
    ASSERT_EQ(batched.size(), images.size());
    for (std::size_t s = 0; s < images.size(); ++s) {
      const auto single =
          fabric.forward_batch(std::span(&images[s], 1)).front();
      ASSERT_EQ(batched[s].output.numel(), single.output.numel());
      for (std::int64_t i = 0; i < single.output.numel(); ++i) {
        EXPECT_EQ(batched[s].output[i], single.output[i])
            << "mode " << static_cast<int>(c.mode) << " sample " << s;
      }
      ASSERT_EQ(batched[s].mappable_outputs.size(),
                single.mappable_outputs.size());
      for (std::size_t l = 0; l < single.mappable_outputs.size(); ++l) {
        EXPECT_EQ(tensor::max_abs_diff(batched[s].mappable_outputs[l],
                                       single.mappable_outputs[l]),
                  0.0f)
            << "mode " << static_cast<int>(c.mode) << " sample " << s
            << " layer " << l;
      }
    }
  }
}

TEST(MonteCarloIdentity, SingleTrialThreadInvariance) {
  // One trial, many threads: the (trial, sample-chunk) fan-out must still
  // reproduce the serial report exactly.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  FaultConfig fc;
  fc.stuck_at_zero_rate = 1e-3;
  fc.stuck_at_one_rate = 1e-3;
  fc.program_sigma = 0.01;
  RobustnessOptions mc;
  mc.trials = 1;
  mc.samples = 6;
  mc.threads = 1;
  const auto serial = reram::monte_carlo_robustness(model, shapes, fc, mc);
  mc.threads = 4;
  const auto parallel = reram::monte_carlo_robustness(model, shapes, fc, mc);
  EXPECT_TRUE(reports_equal(serial, parallel));
  // A single sample is a single item: the pool has nothing to split.
  mc.samples = 1;
  mc.threads = 1;
  const auto serial1 = reram::monte_carlo_robustness(model, shapes, fc, mc);
  mc.threads = 4;
  const auto parallel1 = reram::monte_carlo_robustness(model, shapes, fc, mc);
  EXPECT_TRUE(reports_equal(serial1, parallel1));
}

TEST(MonteCarloIdentity, ExternalPoolInvariance) {
  // A caller-owned pool (the EvaluationEngine path) must not change the
  // report relative to the internally created pool or the serial run.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  FaultConfig fc;
  fc.stuck_at_zero_rate = 1e-3;
  fc.stuck_at_one_rate = 0.0;
  fc.program_sigma = 0.02;
  RobustnessOptions mc = small_mc();
  mc.threads = 1;
  const auto serial = reram::monte_carlo_robustness(model, shapes, fc, mc);
  common::ThreadPool pool(3);
  mc.threads = 2;  // gates the parallel path; the pool's size wins
  mc.pool = &pool;
  const auto pooled = reram::monte_carlo_robustness(model, shapes, fc, mc);
  EXPECT_TRUE(reports_equal(serial, pooled));
}

TEST(SimulatedModelKernels, ConcurrentForwardsAreDeterministic) {
  // Shared const fabric, concurrent forwards of distinct inputs — the race
  // TSan hunts for. On clean and faulty fabrics of both datapaths the
  // results must equal the serial run exactly, and every forward counts one
  // functional MVM per output position of each mappable layer, however its
  // positions are batched.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  constexpr int kForwards = 4;
  common::Rng ir(4);
  const nn::LayerSpec& first = net.layers.front();
  std::vector<tensor::Tensor> images;
  for (int s = 0; s < kForwards; ++s) {
    images.push_back(nn::synthetic_image(ir, first.in_channels,
                                         first.in_height, first.in_width));
  }
  FaultConfig faulty;
  faulty.stuck_at_zero_rate = 1e-3;
  faulty.stuck_at_one_rate = 1e-3;
  faulty.program_sigma = 0.01;
  struct Case {
    reram::DatapathMode mode;
    FaultConfig faults;
  };
  const Case cases[] = {{reram::DatapathMode::kInteger, {}},
                        {reram::DatapathMode::kBitSerial, {}},
                        {reram::DatapathMode::kInteger, faulty},
                        {reram::DatapathMode::kBitSerial, faulty}};
#if !defined(AUTOHET_OBS_DISABLED)
  const obs::Counter& mvms =
      obs::Registry::global().counter("autohet_functional_mvm_total");
  std::uint64_t mvms_per_forward = 0;
  for (const nn::LayerSpec& layer : net.mappable_layers()) {
    mvms_per_forward += static_cast<std::uint64_t>(layer.mvm_count());
  }
#endif
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(c.mode)
                                    << " ideal " << c.faults.ideal());
    const SimulatedModel fabric(model, shapes, c.mode, c.faults);
    std::vector<tensor::Tensor> serial;
    for (const tensor::Tensor& image : images) {
#if !defined(AUTOHET_OBS_DISABLED)
      const std::uint64_t before = mvms.value();
#endif
      serial.push_back(fabric.forward(image));
#if !defined(AUTOHET_OBS_DISABLED)
      EXPECT_EQ(mvms.value() - before, mvms_per_forward)
          << "sample " << serial.size() - 1;
#endif
    }
    std::vector<tensor::Tensor> concurrent(kForwards);
#if !defined(AUTOHET_OBS_DISABLED)
    const std::uint64_t before_concurrent = mvms.value();
#endif
    {
      std::vector<std::thread> workers;
      for (int s = 0; s < kForwards; ++s) {
        workers.emplace_back([&, s] {
          const auto i = static_cast<std::size_t>(s);
          concurrent[i] = fabric.forward(images[i]);
        });
      }
      for (auto& t : workers) t.join();
    }
#if !defined(AUTOHET_OBS_DISABLED)
    EXPECT_EQ(mvms.value() - before_concurrent, kForwards * mvms_per_forward);
#endif
    for (int s = 0; s < kForwards; ++s) {
      const auto& a = serial[static_cast<std::size_t>(s)];
      const auto& b = concurrent[static_cast<std::size_t>(s)];
      ASSERT_EQ(a.numel(), b.numel());
      for (std::int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "sample " << s << " i " << i;
      }
    }
  }
}

}  // namespace
}  // namespace autohet
