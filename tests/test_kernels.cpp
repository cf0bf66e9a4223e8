// Equivalence suite for the fast functional-simulation engine against the
// scalar oracles (oracle.hpp): packed bit-plane kernels vs the per-cell
// datapaths, the batched integer GEMM kernel vs per-column MVMs, the burn
// kernel vs the per-cell burn, the record/replay trial-fabric path, the
// network forward vs the oracle forward, and byte-identity of the
// Monte-Carlo robustness reports against the oracle Monte-Carlo and across
// thread counts and the TrialFabricCache. Everything here is an exactness
// claim — EXPECT_EQ, never near.
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
    ASSERT_TRUE(xb.is_packed());
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
  FaultConfig fc;
  fc.stuck_at_zero_rate = 0.01;
  fc.stuck_at_one_rate = 0.01;
  fc.program_sigma = 0.05;
  fc.cell_bits = 2;
  LogicalCrossbar* clone = &xb;
  reram::BurnTarget burn;
  burn.seed = fc.seed;
  LogicalCrossbar::burn_clones(FaultModel(fc), /*crossbar_id=*/3,
                               std::span(&clone, 1), std::span(&burn, 1));
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
    ASSERT_TRUE(xb.is_packed());
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
  // across the batch widths on both sides of every core's vector width and
  // of its register tile's sample block (the samples past the last whole
  // vector take the row-oriented loop), column counts around the register
  // tile's column block and the vector and stack-block edges, all-zero and
  // partly zero weights and activations, and a row stride wider than the
  // used columns. acc_t starts nonzero: the kernel accumulates.
  common::Rng rng(0xfeed ^ static_cast<std::uint64_t>(GetParam()));
  const auto& ops = rk::ops();
  const std::int64_t rows = 37;
  std::vector<std::int64_t> counts;
  for (std::int64_t count = 1; count <= 17; ++count) counts.push_back(count);
  for (const std::int64_t count : {31, 32, 33, 63, 64, 65, 95, 96, 97, 200}) {
    counts.push_back(count);
  }
  for (const std::int64_t cols : {1, 2, 3, 6, 15, 17, 120, 513}) {
    for (const std::int64_t stride : {cols, cols + 9}) {
      for (const bool zero_weights : {false, true}) {
        auto cells = random_weights(rng, rows * stride);
        for (std::int64_t i = 0; i < rows * stride; ++i) {
          // Every third cell, and all of row 5, is zero.
          if (zero_weights || i % 3 == 0 || i / stride == 5) {
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
      ops.reference_batch(cells.data(), cols, tall, cols, inputs_t.data(),
                          count, acc_t.data());
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

// The fault configs of the batched-burn matrix.
enum class BurnKind { kVariationOnly, kStuckOnly, kBoth };

FaultConfig burn_config(BurnKind kind, int bits) {
  FaultConfig fc;
  fc.cell_bits = bits;
  fc.seed = 0xb0a7 + static_cast<std::uint64_t>(bits);
  if (kind != BurnKind::kStuckOnly) fc.program_sigma = 0.2;
  if (kind != BurnKind::kVariationOnly) {
    fc.stuck_at_zero_rate = 4e-3;
    fc.stuck_at_one_rate = 3e-3;
  }
  return fc;
}

// A sparse array (a small random block in a mostly zero crossbar, as the
// large candidate shapes hold most layers) or a dense one (random weights
// in every cell).
struct BurnArray {
  std::int64_t rows, cols;
  std::vector<std::int8_t> cells;
};

BurnArray burn_array(bool sparse) {
  common::Rng rng(sparse ? 31 : 32);
  BurnArray a{sparse ? 120 : 72, sparse ? 80 : 64, {}};
  a.cells.assign(static_cast<std::size_t>(a.rows * a.cols), 0);
  const std::int64_t used_rows = sparse ? 30 : a.rows;
  const std::int64_t used_cols = sparse ? 25 : a.cols;
  for (std::int64_t r = 0; r < used_rows; ++r) {
    for (std::int64_t c = 0; c < used_cols; ++c) {
      a.cells[static_cast<std::size_t>(r * a.cols + c)] =
          static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
  }
  return a;
}

#if !defined(AUTOHET_OBS_DISABLED)
// The two burn counters, read together.
std::array<std::uint64_t, 2> burn_counters() {
  auto& registry = obs::Registry::global();
  return {registry.counter("autohet_fault_cells_total").value(),
          registry.counter("autohet_fault_stuck_cells_total").value()};
}
#endif

TEST_P(KernelVariantTest, BatchedBurnMatchesSingleSeedBurns) {
  // FaultModel::burn over N trial seeds (crossing the 8-lane group at 9)
  // against N one-seed burns: plain burns against the per-cell oracle,
  // recording burns against apply_recording. Cells, stats, recorded hits
  // and bucket ends must all agree, and the burn counters must grow by the
  // plain burns' counts (a recording's counts wait for its replays).
  constexpr std::size_t kCellId = 5;
  for (const bool sparse : {true, false}) {
    const BurnArray array = burn_array(sparse);
    for (const int bits : {1, 2, 4, 8}) {
      for (const BurnKind kind : {BurnKind::kVariationOnly,
                                  BurnKind::kStuckOnly, BurnKind::kBoth}) {
        const FaultConfig fc = burn_config(kind, bits);
        const FaultModel model(fc);
        for (const bool record : {false, true}) {
          if (record && !model.record_eligible()) continue;
          for (const std::size_t n : {1, 2, 5, 8, 9}) {
            SCOPED_TRACE(testing::Message()
                         << "sparse " << sparse << " bits " << bits
                         << " kind " << static_cast<int>(kind) << " record "
                         << record << " n " << n);
            std::vector<std::vector<std::int8_t>> want(n, array.cells);
            std::vector<FaultMapStats> want_stats(n);
            std::vector<std::vector<reram::StuckCandidate>> want_hits(n);
            std::vector<reram::StuckBucketEnds> want_ends(n);
            std::array<std::uint64_t, 2> want_counts{};
            for (std::size_t t = 0; t < n; ++t) {
              const FaultConfig single = fc.for_trial(t);
              want_stats[t] =
                  record ? FaultModel(single).apply_recording(
                               want[t], array.rows, array.cols, array.cols,
                               kCellId, want_hits[t], want_ends[t])
                         : oracle::apply_reference(single, want[t],
                                                   array.rows, array.cols,
                                                   array.cols, kCellId);
              if (!record) {
                want_counts[0] += static_cast<std::uint64_t>(
                    want_stats[t].physical_cells);
                want_counts[1] += static_cast<std::uint64_t>(
                    want_stats[t].stuck_at_zero + want_stats[t].stuck_at_one);
              }
            }
#if !defined(AUTOHET_OBS_DISABLED)
            const auto before_batch = burn_counters();
#endif
            std::vector<std::vector<std::int8_t>> got(n, array.cells);
            std::vector<std::vector<reram::StuckCandidate>> got_hits(n);
            std::vector<reram::StuckBucketEnds> got_ends(n);
            std::vector<reram::BurnTarget> targets(n);
            for (std::size_t t = 0; t < n; ++t) {
              targets[t].seed = fc.for_trial(t).seed;
              targets[t].cells = got[t];
              if (record) {
                targets[t].hits = &got_hits[t];
                targets[t].bucket_ends = &got_ends[t];
              }
            }
            model.burn(targets, array.rows, array.cols, array.cols, kCellId);
#if !defined(AUTOHET_OBS_DISABLED)
            const auto after_batch = burn_counters();
            EXPECT_EQ(after_batch[0] - before_batch[0], want_counts[0]);
            EXPECT_EQ(after_batch[1] - before_batch[1], want_counts[1]);
#endif
            for (std::size_t t = 0; t < n; ++t) {
              EXPECT_EQ(got[t], want[t]) << "trial " << t;
              expect_stats_eq(targets[t].stats, want_stats[t]);
              if (!record) continue;
              EXPECT_EQ(got_ends[t], want_ends[t]) << "trial " << t;
              ASSERT_EQ(got_hits[t].size(), want_hits[t].size());
              for (std::size_t i = 0; i < got_hits[t].size(); ++i) {
                EXPECT_EQ(got_hits[t][i].k, want_hits[t][i].k);
                EXPECT_EQ(got_hits[t][i].plane, want_hits[t][i].plane);
                EXPECT_EQ(got_hits[t][i].original, want_hits[t][i].original);
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelVariantTest, MonteCarloMatchesOracle) {
  // Under each kernel variant the production Monte-Carlo (lockstep burns
  // through the variant's burn op, batched forwards through its MVM
  // kernels), serial and pooled, reproduces the oracle's from-scratch
  // scalar run byte for byte.
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
  mc.trials = 9;  // crosses the burn op's 8-lane trial group
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
  // Packed clones burned together read back through the packed bit-serial
  // kernel exactly as a one-seed burn of each reads through either path.
  common::Rng rng(77);
  const std::int64_t rows = 70, cols = 33;
  LogicalCrossbar clean({72, 40});
  clean.program(random_weights(rng, rows * cols), rows, cols);
  ASSERT_TRUE(clean.is_packed());
  FaultConfig fc;
  fc.stuck_at_zero_rate = 0.01;
  fc.stuck_at_one_rate = 0.01;
  fc.program_sigma = 0.1;
  fc.cell_bits = 2;
  constexpr std::size_t n = 6;
  std::vector<LogicalCrossbar> clones(n, clean);
  std::vector<LogicalCrossbar*> lanes;
  std::vector<reram::BurnTarget> burns(n);
  for (std::size_t t = 0; t < n; ++t) {
    lanes.push_back(&clones[t]);
    burns[t].seed = fc.for_trial(t).seed;
  }
  LogicalCrossbar::burn_clones(FaultModel(fc), 11, lanes, burns);
  const auto x = random_input(rng, rows);
  for (std::size_t t = 0; t < n; ++t) {
    LogicalCrossbar single = clean;
    LogicalCrossbar* lane = &single;
    reram::BurnTarget burn;
    burn.seed = fc.for_trial(t).seed;
    LogicalCrossbar::burn_clones(FaultModel(fc.for_trial(t)), 11,
                                 std::span(&lane, 1), std::span(&burn, 1));
    expect_stats_eq(burns[t].stats, burn.stats);
    ASSERT_TRUE(clones[t].is_packed());
    EXPECT_EQ(clones[t].mvm_bit_serial(x),
              oracle::mvm_bit_serial_scalar(single, x))
        << "trial " << t;
    EXPECT_EQ(clones[t].mvm_bit_serial(x),
              oracle::mvm_reference_scalar(clones[t], x))
        << "trial " << t;
  }
}

TEST_P(KernelVariantTest, MonteCarloRateRowMatchesPortable) {
  // One LeNet-5 rate row — rate 0 (plain lockstep burns), the first nonzero
  // rate (the trials record together) and a second (replays) — serial and
  // pooled through a fabric cache, against the portable kernels' uncached
  // serial reports. 9 trials cross the 8-lane group.
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
    EXPECT_EQ(stats.trial_records, 9u);
    EXPECT_EQ(stats.trial_replays, 9u);
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
// The burn kernel vs the per-cell oracle burn.

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
          model.apply(fast, rows, cols, cols, /*crossbar_id=*/17);
      const FaultMapStats ref_stats = oracle::apply_reference(
          fc, ref, rows, cols, cols, /*crossbar_id=*/17);
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
  // the cap and include zero rates (nothing visited, zero delta).
  const double edge = 0x1.0p-8;
  const double below = std::nextafter(edge, 0.0);
  const double above = std::nextafter(edge, 1.0);
  const double cap =
      static_cast<double>(FaultModel::kRecordCap53) * 0x1.0p-53;
  const std::array<double, 2> rate_pairs[] = {
      {1e-4, 1e-4},    {5e-3, 5e-3}, {1e-2, 0.0},         {0.0, 1e-2},
      {edge, 0.0},     {0.0, edge},  {edge / 2, edge / 2}, {below, 0.0},
      {above, 0.0},    {edge * 1.001, 0.0}, {cap, 0.0},
      {cap / 4, cap * 3 / 4}, {0.0, 0.0}};
  for (const int bits : {1, 2, 8}) {
    // cell_bits = 1 stores each weight in 8 one-bit planes, so a single
    // cell carries hits from several buckets at the cap rates.
    rec_fc.cell_bits = bits;
    expect_replay_matches_direct(rec_fc, rate_pairs);
    // Above the cap (one ulp past it, and a 5% pair) the draws in
    // [cap, threshold) were never recorded: the replay refuses instead of
    // returning wrong cells.
    for (const auto& rates : {std::array<double, 2>{std::nextafter(cap, 1.0),
                                                    0.0},
                              std::array<double, 2>{2e-2, 3e-2}}) {
      FaultConfig fc = rec_fc;
      fc.stuck_at_zero_rate = rates[0];
      fc.stuck_at_one_rate = rates[1];
      std::vector<std::int8_t> cells(16, 0);
      const reram::StuckBucketEnds ends{};
      EXPECT_THROW(FaultModel(fc).replay_stuck(cells, 4, 4, {}, ends),
                   std::invalid_argument)
          << "bits " << bits << " rates " << rates[0] << "/" << rates[1];
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
  // A clean bit-serial fabric carries packed planes. Its faulty copies —
  // burned (with_faults), or recorded and replayed (with_faults_recorded +
  // replay_faults) — must read back through their own packed planes
  // exactly as the oracle fabric built with the faults does.
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
  std::vector<reram::TrialBurnRecord> records(1);
  const SimulatedModel replayed =
      clean.with_faults_recorded(std::span(&fc, 1), records)
          .front()
          .replay_faults(fc, records.front());
  const oracle::Fabric scalar(model, shapes, reram::DatapathMode::kBitSerial,
                              fc);
  const auto want = scalar.forward(image);
  for (const SimulatedModel* fabric : {&burned, &replayed}) {
    SCOPED_TRACE(fabric == &burned ? "burned" : "replayed");
    const auto got = fabric->forward_batch(std::span(&image, 1)).front();
    expect_stats_eq(fabric->fault_stats(), scalar.fault_stats());
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
  // The production Monte-Carlo (lockstep burns, batched forwards, serial
  // and pooled) reproduces the oracle's from-scratch serial run byte for
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
  // The sweep shape guarantees the cache actually recorded and replayed:
  // per cell_bits, 3 trials record at the first nonzero rate and replay at
  // the second; the rate-0 points bypass (their draw stream differs).
  const auto stats = cache.stats();
  EXPECT_EQ(stats.trial_records, 6u);
  EXPECT_EQ(stats.trial_replays, 6u);
  EXPECT_GT(stats.ideal_hits, 0u);
}

TEST(MonteCarloIdentity, CachedPointAboveRecordingCapIsUncached) {
  // A summed stuck rate of 0.03 is above the recording cap: the point takes
  // the direct burn, equals the uncached report and records nothing. A
  // recorded fabric refuses to replay it.
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng wr(21);
  const nn::Model model(net, wr);
  const std::vector<CrossbarShape> shapes(net.mappable_layers().size(),
                                          {72, 64});
  FaultConfig fc;
  fc.stuck_at_zero_rate = 0.015;
  fc.stuck_at_one_rate = 0.015;
  fc.program_sigma = 0.01;
  ASSERT_FALSE(FaultModel(fc).record_eligible());
  reram::TrialFabricCache cache;
  RobustnessOptions mc = small_mc();
  mc.cache = &cache;
  const auto cached = reram::monte_carlo_robustness(model, shapes, fc, mc);
  mc.cache = nullptr;
  const auto uncached = reram::monte_carlo_robustness(model, shapes, fc, mc);
  EXPECT_TRUE(reports_equal(cached, uncached));
  EXPECT_EQ(cache.stats().trial_records, 0u);
  EXPECT_EQ(cache.stats().trial_replays, 0u);

  FaultConfig in_cap = fc;
  in_cap.stuck_at_zero_rate = 1e-3;
  in_cap.stuck_at_one_rate = 1e-3;
  const SimulatedModel ideal(model, shapes);
  std::vector<reram::TrialBurnRecord> records(1);
  const std::vector<SimulatedModel> recorded =
      ideal.with_faults_recorded(std::span(&in_cap, 1), records);
  EXPECT_THROW((void)recorded.front().replay_faults(fc, records.front()),
               std::invalid_argument);
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
