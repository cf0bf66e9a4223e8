// Equivalence suite for the fast functional-simulation engine: packed
// bit-plane kernels vs the retained scalar datapaths, the batched integer
// GEMM kernel vs per-column MVMs, the fast fault burn-in vs the per-cell
// reference, the record/replay trial-fabric path, and byte-identity of the
// Monte-Carlo robustness reports across thread counts, kernel policies, and
// the TrialFabricCache. Everything here is an exactness claim — EXPECT_EQ,
// never near.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
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
using reram::KernelPolicy;
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
  return a.trials == b.trials && a.samples == b.samples &&
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
// Packed kernels vs retained scalar datapaths.

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
    ASSERT_TRUE(xb.is_packed());
    const auto x = random_input(rng, c.rows);
    EXPECT_EQ(xb.mvm_bit_serial(x), xb.mvm_bit_serial_scalar(x));
    EXPECT_EQ(xb.mvm_reference(x), xb.mvm_reference_scalar(x));
    EXPECT_EQ(xb.mvm_bit_serial(x), xb.mvm_reference_scalar(x));
  }
}

TEST(PackedKernels, MatchScalarAfterFaultBurn) {
  common::Rng rng(7);
  LogicalCrossbar xb({96, 80});
  xb.program(random_weights(rng, 90 * 70), 90, 70);
  FaultConfig fc;
  fc.stuck_at_zero_rate = 0.01;
  fc.stuck_at_one_rate = 0.01;
  fc.program_sigma = 0.05;
  fc.cell_bits = 2;
  xb.apply_faults(FaultModel(fc), /*crossbar_id=*/3);
  const auto x = random_input(rng, 90);
  EXPECT_EQ(xb.mvm_bit_serial(x), xb.mvm_bit_serial_scalar(x));
  EXPECT_EQ(xb.mvm_reference(x), xb.mvm_reference_scalar(x));
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
      const auto expected = xb.mvm_reference_scalar(column);
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
    ASSERT_TRUE(xb.is_packed());
    const auto x = random_input(rng, rows);
    EXPECT_EQ(xb.mvm_bit_serial(x), xb.mvm_bit_serial_scalar(x))
        << "rows=" << rows << " cols=" << cols;
    EXPECT_EQ(xb.mvm_reference(x), xb.mvm_reference_scalar(x))
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
    ASSERT_TRUE(xb.is_packed());
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
      const auto expected_bs = xb.mvm_bit_serial_scalar(column);
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
    const SimulatedModel scalar(model, shapes, mode, {},
                                KernelPolicy::kScalarReference);
    const tensor::Tensor a = fast.forward(image);
    const tensor::Tensor b = scalar.forward(image);
    ASSERT_EQ(a.numel(), b.numel());
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "mode " << static_cast<int>(mode);
    }
  }
}

// acc_t[j*count+s] += Σ_i cells[i*stride+j] · inputs_t[i*count+s], one
// column and sample at a time.
void reference_batch_scalar(const std::vector<std::int8_t>& cells,
                            std::int64_t stride, std::int64_t rows,
                            std::int64_t cols,
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
        dot += at(cells, i * stride + j) * at(inputs_t, i * count + s);
      }
      acc_t[static_cast<std::size_t>(j * count + s)] += dot;
    }
  }
}

TEST_P(KernelVariantTest, ReferenceBatchMatchesPerColumnScalar) {
  // The table's reference_batch against a per-column scalar dot product,
  // across the batch widths on both sides of every core's vector width
  // (narrow batches take the row-oriented loop), column counts around the
  // vector and stack-block edges, all-zero and partly zero weights and
  // activations, and a row stride wider than the used columns. acc_t starts
  // nonzero: the kernel accumulates.
  common::Rng rng(0xfeed ^ static_cast<std::uint64_t>(GetParam()));
  const auto& ops = rk::ops();
  const std::int64_t rows = 37;
  for (const std::int64_t cols : {1, 15, 17, 120, 513}) {
    for (const std::int64_t stride : {cols, cols + 9}) {
      for (const bool zero_weights : {false, true}) {
        auto cells = random_weights(rng, rows * stride);
        for (std::int64_t i = 0; i < rows * stride; ++i) {
          // Every third cell, and all of row 5, is zero.
          if (zero_weights || i % 3 == 0 || i / stride == 5) {
            cells[static_cast<std::size_t>(i)] = 0;
          }
        }
        for (std::int64_t count = 1; count <= 17; ++count) {
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
            reference_batch_scalar(cells, stride, rows, cols, inputs_t, count,
                                   expected);
            ops.reference_batch(cells.data(), stride, rows, cols,
                                inputs_t.data(), count, acc_t.data());
            EXPECT_EQ(acc_t, expected)
                << "cols=" << cols << " stride=" << stride
                << " count=" << count << " zero_weights=" << zero_weights
                << " zero_inputs=" << zero_inputs;
          }
        }
      }
    }
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
  std::uint8_t* c = scratch.column(100);
  EXPECT_EQ(scratch.column(50), c);
  std::int32_t* a = scratch.accs_t(32);
  EXPECT_EQ(scratch.accs_t(32), a);
  // Distinct buffer families never alias.
  EXPECT_NE(static_cast<void*>(scratch.column(8)),
            static_cast<void*>(scratch.columns_t(8)));
}

// ---------------------------------------------------------------------------
// Fast fault burn-in vs the per-cell reference implementation.

TEST(FaultBurnIn, FastApplyMatchesReference) {
  const std::int64_t rows = 60, cols = 52;
  FaultConfig configs[4];
  configs[0].stuck_at_zero_rate = 0.01;  // stuck-only
  configs[0].stuck_at_one_rate = 0.005;
  configs[1].program_sigma = 0.3;  // heavy variation-only
  configs[2].stuck_at_zero_rate = 0.002;  // both, multi-level
  configs[2].stuck_at_one_rate = 0.002;
  configs[2].program_sigma = 0.01;
  configs[3].stuck_at_zero_rate = 0.004;  // drift forces reference dispatch
  configs[3].program_sigma = 0.02;
  configs[3].drift_time_s = 1e5;
  configs[3].drift_nu = 0.05;
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
          model.apply(fast, rows, cols, cols, /*crossbar_id=*/17);
      const FaultMapStats ref_stats =
          model.apply_reference(ref, rows, cols, cols, /*crossbar_id=*/17);
      EXPECT_EQ(fast, ref) << "bits=" << bits;
      expect_stats_eq(fast_stats, ref_stats);
    }
  }
}

// Records one burn at `rec_fc`, then replays every rate pair and checks the
// replayed cells and stats against a direct apply() at that pair.
void expect_replay_matches_direct(const FaultConfig& rec_fc,
                                  std::span<const std::array<double, 2>>
                                      rate_pairs) {
  const std::int64_t rows = 48, cols = 40;
  const FaultModel rec_model(rec_fc);
  ASSERT_TRUE(rec_model.record_eligible());
  common::Rng wrng(5);
  const auto original = random_weights(wrng, rows * cols);
  auto post_var = original;
  std::vector<reram::StuckCandidate> hits;
  reram::StuckBucketEnds ends{};
  const FaultMapStats var_stats = rec_model.apply_recording(
      post_var, rows, cols, cols, /*crossbar_id=*/9, hits, ends);
  ASSERT_EQ(ends.back(), hits.size());
  if (rec_fc.cell_bits == 1) {
    // Some cell must carry hits in more than one bucket, or the per-hit
    // weights_changed correction goes unexercised.
    std::unordered_map<std::uint32_t, std::size_t> first_bucket;
    bool split = false;
    std::size_t begin = 0;
    for (std::size_t b = 0; b < ends.size(); ++b) {
      for (std::size_t i = begin; i < ends[b]; ++i) {
        const auto [it, fresh] = first_bucket.try_emplace(hits[i].plane / 8, b);
        split |= !fresh && it->second != b;
      }
      begin = ends[b];
    }
    EXPECT_TRUE(split);
  }
  for (const auto& rates : rate_pairs) {
    FaultConfig fc = rec_fc;
    fc.stuck_at_zero_rate = rates[0];
    fc.stuck_at_one_rate = rates[1];
    const FaultModel model(fc);
    auto direct = original;
    const FaultMapStats direct_stats =
        model.apply(direct, rows, cols, cols, /*crossbar_id=*/9);
    auto replayed = post_var;
    const FaultMapStats delta =
        model.replay_stuck(replayed, cols, cols, hits, ends);
    const auto msg = ::testing::Message()
                     << "bits " << fc.cell_bits << " rates " << rates[0]
                     << "/" << rates[1];
    if (rates[0] == 0.0 && rates[1] == 0.0) {
      // A zero-rate direct burn skips the stuck draws (a different stream),
      // so only the replay side is defined: it visits nothing.
      EXPECT_EQ(replayed, post_var) << msg;
      expect_stats_eq(delta, FaultMapStats{});
      continue;
    }
    EXPECT_EQ(replayed, direct) << msg;
    EXPECT_EQ(var_stats.physical_cells + delta.physical_cells,
              direct_stats.physical_cells) << msg;
    EXPECT_EQ(var_stats.stuck_at_zero + delta.stuck_at_zero,
              direct_stats.stuck_at_zero) << msg;
    EXPECT_EQ(var_stats.stuck_at_one + delta.stuck_at_one,
              direct_stats.stuck_at_one) << msg;
    EXPECT_EQ(var_stats.weights_changed + delta.weights_changed,
              direct_stats.weights_changed) << msg;
  }
}

TEST(FaultBurnIn, RecordReplayMatchesDirectBurnAcrossRates) {
  FaultConfig rec_fc;
  rec_fc.stuck_at_zero_rate = 5e-3;
  rec_fc.stuck_at_one_rate = 5e-3;
  rec_fc.program_sigma = 0.01;
  rec_fc.seed = 77;
  // The recorded stream replays exactly for every rate pair within the cap:
  // the thresholds move, the draw stream does not. A replay reads only the
  // draw buckets (width 2⁻⁸) below its summed rate, so the pairs straddle a
  // bucket edge (sum exactly 2⁻⁸, one ulp either side, 0.1% above), reach
  // the cap (1/16) and include zero rates (nothing visited, zero delta).
  const double edge = 0x1.0p-8;
  const double below = std::nextafter(edge, 0.0);
  const double above = std::nextafter(edge, 1.0);
  const double cap = 0x1.0p-4;
  const std::array<double, 2> rate_pairs[] = {
      {1e-4, 1e-4},    {5e-3, 5e-3}, {1e-2, 0.0},         {0.0, 1e-2},
      {2e-2, 3e-2},    {edge, 0.0},  {0.0, edge},         {edge / 2, edge / 2},
      {below, 0.0},    {above, 0.0}, {edge * 1.001, 0.0}, {cap, 0.0},
      {cap / 4, cap * 3 / 4}, {0.0, 0.0}};
  for (const int bits : {1, 2, 8}) {
    // cell_bits = 1 stores each weight in 8 one-bit planes, so a single
    // cell carries hits from several buckets at the cap rates.
    rec_fc.cell_bits = bits;
    expect_replay_matches_direct(rec_fc, rate_pairs);
  }
}

// ---------------------------------------------------------------------------
// Whole-fabric equivalence: fast kernels vs the scalar-reference policy.

TEST(SimulatedModelKernels, FastForwardMatchesScalarReference) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const auto mappable = net.mappable_layers();
  const std::vector<CrossbarShape> shapes(mappable.size(), {72, 64});
  FaultConfig fc;
  fc.stuck_at_zero_rate = 5e-4;
  fc.stuck_at_one_rate = 5e-4;
  fc.program_sigma = 0.01;
  fc.cell_bits = 2;
  common::Rng ir(4);
  const nn::LayerSpec& first = net.layers.front();
  const tensor::Tensor image =
      nn::synthetic_image(ir, first.in_channels, first.in_height,
                          first.in_width);
  for (const auto mode :
       {reram::DatapathMode::kInteger, reram::DatapathMode::kBitSerial}) {
    const SimulatedModel fast(model, shapes, mode, fc);
    const SimulatedModel scalar(model, shapes, mode, fc,
                                KernelPolicy::kScalarReference);
    const tensor::Tensor a = fast.forward(image);
    const tensor::Tensor b = scalar.forward(image);
    ASSERT_EQ(a.numel(), b.numel());
    for (std::int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "mode " << static_cast<int>(mode);
    }
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
  const auto fast = reram::monte_carlo_robustness(model, shapes, fc, mc);
  mc.kernels = KernelPolicy::kScalarReference;
  const auto scalar = reram::monte_carlo_robustness(model, shapes, fc, mc);
  EXPECT_TRUE(reports_equal(fast, scalar));
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
  // The sweep shape guarantees the cache actually recorded and replayed:
  // per cell_bits, 3 trials record at the first nonzero rate and replay at
  // the second; the rate-0 points bypass (their draw stream differs).
  const auto stats = cache.stats();
  EXPECT_EQ(stats.trial_records, 6u);
  EXPECT_EQ(stats.trial_replays, 6u);
  EXPECT_GT(stats.ideal_hits, 0u);
}

TEST(MonteCarloIdentity, ReadNoiseThreadInvariance) {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  FaultConfig fc;
  fc.read_sigma = 0.05;
  fc.program_sigma = 0.01;
  RobustnessOptions mc = small_mc();
  mc.threads = 1;
  const auto serial = reram::monte_carlo_robustness(model, shapes, fc, mc);
  mc.threads = 4;
  const auto parallel = reram::monte_carlo_robustness(model, shapes, fc, mc);
  EXPECT_TRUE(reports_equal(serial, parallel));
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
  FaultConfig noisy;
  noisy.read_sigma = 0.05;
  FaultConfig stuck;
  stuck.stuck_at_zero_rate = 1e-3;
  stuck.stuck_at_one_rate = 1e-3;
  stuck.program_sigma = 0.01;
  struct Case {
    reram::DatapathMode mode;
    FaultConfig faults;
  };
  // Noise-free cases take the batched-FC fast path; the read-noisy case
  // exercises the per-sample fallback with per-sample noise streams.
  const Case cases[] = {{reram::DatapathMode::kInteger, {}},
                        {reram::DatapathMode::kBitSerial, {}},
                        {reram::DatapathMode::kInteger, stuck},
                        {reram::DatapathMode::kInteger, noisy}};
  for (const auto& c : cases) {
    const SimulatedModel fabric(model, shapes, c.mode, c.faults);
    const std::uint64_t stream0 = 11;
    const auto batched = fabric.forward_batch(images, stream0);
    ASSERT_EQ(batched.size(), images.size());
    for (std::size_t s = 0; s < images.size(); ++s) {
      const auto single =
          fabric
              .forward_batch(std::span(&images[s], 1),
                             stream0 + static_cast<std::uint64_t>(s))
              .front();
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

TEST(SimulatedModelKernels, ReadNoiseStreamsRepeatAndDiffer) {
  // A read-noisy forward is a pure function of its stream: the same stream
  // repeats the pass, another stream draws other noise. A noise-free fabric
  // ignores the stream.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  common::Rng ir(4);
  const nn::LayerSpec& first = net.layers.front();
  const tensor::Tensor image =
      nn::synthetic_image(ir, first.in_channels, first.in_height,
                          first.in_width);
  FaultConfig noisy;
  noisy.read_sigma = 0.05;
  const SimulatedModel noisy_fabric(model, shapes,
                                    reram::DatapathMode::kInteger, noisy);
  const tensor::Tensor a = noisy_fabric.forward(image, 7);
  EXPECT_EQ(tensor::max_abs_diff(a, noisy_fabric.forward(image, 7)), 0.0f);
  EXPECT_GT(tensor::max_abs_diff(a, noisy_fabric.forward(image, 8)), 0.0f);

  const SimulatedModel clean_fabric(model, shapes,
                                    reram::DatapathMode::kInteger, {});
  EXPECT_EQ(tensor::max_abs_diff(clean_fabric.forward(image, 7),
                                 clean_fabric.forward(image, 8)),
            0.0f);
}

TEST(SimulatedModelKernels, ConcurrentForwardsAreDeterministic) {
  // Shared const fabric, concurrent forwards with per-call noise streams —
  // the race TSan hunts for. On the integer, bit-serial and read-noisy
  // datapaths the results must equal the serial run exactly, and every
  // forward counts one functional MVM per output position of each mappable
  // layer, however its positions are batched.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  common::Rng ir(4);
  const nn::LayerSpec& first = net.layers.front();
  const tensor::Tensor image =
      nn::synthetic_image(ir, first.in_channels, first.in_height,
                          first.in_width);
  FaultConfig noisy;
  noisy.read_sigma = 0.05;
  noisy.program_sigma = 0.01;
  struct Case {
    reram::DatapathMode mode;
    FaultConfig faults;
  };
  const Case cases[] = {{reram::DatapathMode::kInteger, {}},
                        {reram::DatapathMode::kBitSerial, {}},
                        {reram::DatapathMode::kInteger, noisy}};
#if !defined(AUTOHET_OBS_DISABLED)
  const obs::Counter& mvms =
      obs::Registry::global().counter("autohet_functional_mvm_total");
  std::uint64_t mvms_per_forward = 0;
  for (const nn::LayerSpec& layer : net.mappable_layers()) {
    mvms_per_forward += static_cast<std::uint64_t>(layer.mvm_count());
  }
#endif
  constexpr int kStreams = 4;
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "mode " << static_cast<int>(c.mode) << " read_sigma "
                 << c.faults.read_sigma);
    const SimulatedModel fabric(model, shapes, c.mode, c.faults);
    std::vector<tensor::Tensor> serial;
    for (int s = 0; s < kStreams; ++s) {
#if !defined(AUTOHET_OBS_DISABLED)
      const std::uint64_t before = mvms.value();
#endif
      serial.push_back(fabric.forward(image, static_cast<std::uint64_t>(s)));
#if !defined(AUTOHET_OBS_DISABLED)
      EXPECT_EQ(mvms.value() - before, mvms_per_forward) << "stream " << s;
#endif
    }
    std::vector<tensor::Tensor> concurrent(kStreams);
#if !defined(AUTOHET_OBS_DISABLED)
    const std::uint64_t before_concurrent = mvms.value();
#endif
    {
      std::vector<std::thread> workers;
      for (int s = 0; s < kStreams; ++s) {
        workers.emplace_back([&, s] {
          concurrent[static_cast<std::size_t>(s)] =
              fabric.forward(image, static_cast<std::uint64_t>(s));
        });
      }
      for (auto& t : workers) t.join();
    }
#if !defined(AUTOHET_OBS_DISABLED)
    EXPECT_EQ(mvms.value() - before_concurrent, kStreams * mvms_per_forward);
#endif
    for (int s = 0; s < kStreams; ++s) {
      const auto& a = serial[static_cast<std::size_t>(s)];
      const auto& b = concurrent[static_cast<std::size_t>(s)];
      ASSERT_EQ(a.numel(), b.numel());
      for (std::int64_t i = 0; i < a.numel(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "stream " << s << " i " << i;
      }
    }
  }
}

}  // namespace
}  // namespace autohet
