#include "reram/functional.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/model_zoo.hpp"
#include "obs/obs.hpp"
#include "tensor/ops.hpp"

namespace autohet::reram {

namespace {
/// Crossbar-id stride between layers: fault maps stay stable per crossbar
/// as long as no layer spans more than 2^20 logical crossbars.
constexpr std::uint64_t kFaultIdStride = std::uint64_t{1} << 20;

/// Read-noise stream key for one MVM call: the per-pass noise stream in the
/// high bits, the output-position ordinal in the low 20 (no conv in the zoo
/// comes near 2^20 output positions).
constexpr std::uint64_t make_call_key(std::uint64_t noise_stream,
                                      std::uint64_t position) noexcept {
  return (noise_stream << 20) | position;
}

/// Programs `model`'s mappable layers onto the given crossbar shapes,
/// burning `faults` in as the weights are written. With a `cache`, each
/// layer is a copy of the cache's shared build for its key.
std::vector<MappedLayer> program_layers(
    const nn::Model& model, const std::vector<mapping::CrossbarShape>& shapes,
    const FaultConfig& faults, KernelPolicy policy,
    LayerFabricCache* cache = nullptr) {
  const auto mappable = model.spec().mappable_layers();
  AUTOHET_CHECK(shapes.size() == mappable.size(),
                "one crossbar shape per mappable layer required");
  const FaultModel fm(faults);
  std::vector<MappedLayer> layers;
  layers.reserve(mappable.size());
  for (std::size_t i = 0; i < mappable.size(); ++i) {
    const auto build = [&] {
      return MappedLayer(mappable[i], model.weight(i), shapes[i],
                         fm.ideal() ? nullptr : &fm,
                         static_cast<std::uint64_t>(i), policy);
    };
    layers.push_back(cache == nullptr
                         ? build()
                         : *cache->layer(model, i, shapes[i], faults, build));
  }
  return layers;
}

/// The plan's crossbar shapes, once the plan is validated against `model`
/// (its frozen geometry is then exactly map_layer of these shapes) — a graph
/// (v2) plan must carry exactly the model's graph.
std::vector<mapping::CrossbarShape> plan_shapes(
    const nn::Model& model, const plan::DeploymentPlan& plan) {
  plan.validate_against(model.spec());
  AUTOHET_CHECK(!plan.has_graph() || plan.graph == model.graph(),
                "plan graph '" + plan.graph.name() +
                    "' is not the graph the model was built from");
  return plan.shapes();
}

/// Vector-unit residual add: both operands quantized to a shared symmetric
/// 8-bit grid, summed in int32 (exact), dequantized once. Deterministic and
/// order-free — the accelerator's SIMD unit computes the same sums.
tensor::Tensor residual_add_exact(const tensor::Tensor& a,
                                  const tensor::Tensor& b) {
  AUTOHET_CHECK(a.numel() == b.numel(),
                "residual add operands must have equal element counts");
  tensor::Tensor out(a.shape());
  const float absmax = std::max(a.abs_max(), b.abs_max());
  if (absmax == 0.0f) return out;  // both zero
  const float scale = absmax / 127.0f;
  const float inv = 127.0f / absmax;
  for (std::int64_t j = 0; j < out.numel(); ++j) {
    const auto qa = static_cast<std::int32_t>(std::lroundf(a[j] * inv));
    const auto qb = static_cast<std::int32_t>(std::lroundf(b[j] * inv));
    out[j] = static_cast<float>(qa + qb) * scale;
  }
  return out;
}
}  // namespace

MappedLayer::MappedLayer(const nn::LayerSpec& spec,
                         const tensor::Tensor& weight,
                         const mapping::CrossbarShape& shape,
                         const FaultModel* faults, std::uint64_t layer_id,
                         KernelPolicy policy)
    : spec_(spec), mapping_(mapping::map_layer(spec, shape)) {
  const std::int64_t k2 = spec.kernel * spec.kernel;
  const std::int64_t wrows = spec.weight_rows();
  const std::int64_t wcols = spec.weight_cols();
  AUTOHET_CHECK(weight.numel() == wrows * wcols, "weight shape mismatch");

  // Quantize the whole layer once (per-tensor symmetric 8-bit); the unfolded
  // row order (channel-major, then kernel position) matches tensor::im2col.
  const nn::QuantizedWeights qw = nn::quantize_weights(
      weight.reshaped({wcols, wrows}), /*bits=*/8);
  weight_scale_ = qw.scale;
  const auto wq = [&](std::int64_t row, std::int64_t col) {
    // qw is laid out [Cout, Cin*k*k]; we address it transposed.
    return qw.values[static_cast<std::size_t>(col * wrows + row)];
  };

  const std::int64_t rb_count = mapping_.row_blocks;
  const std::int64_t cb_count = mapping_.col_blocks;
  crossbars_.reserve(static_cast<std::size_t>(rb_count * cb_count));
  row_ranges_.reserve(static_cast<std::size_t>(rb_count));

  // The two mapping paths differ only in how a row block's weight-row range
  // is derived: whole kernels per block (kernel-aligned, Fig. 7) vs a plain
  // row partition (split-kernel fallback).
  if (!mapping_.split_kernel) {
    const std::int64_t kpb = mapping_.kernels_per_row_block;
    for (std::int64_t rb = 0; rb < rb_count; ++rb) {
      const std::int64_t ch0 = rb * kpb;
      const std::int64_t ch1 = std::min(spec.in_channels, ch0 + kpb);
      row_ranges_.emplace_back(ch0 * k2, ch1 * k2);
    }
  } else {
    for (std::int64_t rb = 0; rb < rb_count; ++rb) {
      const std::int64_t r0 = rb * shape.rows;
      const std::int64_t r1 = std::min(wrows, r0 + shape.rows);
      row_ranges_.emplace_back(r0, r1);
    }
  }
  for (std::int64_t rb = 0; rb < rb_count; ++rb) {
    const auto [r0, r1] = row_ranges_[static_cast<std::size_t>(rb)];
    for (std::int64_t cb = 0; cb < cb_count; ++cb) {
      const std::int64_t c0 = cb * shape.cols;
      const std::int64_t c1 = std::min(wcols, c0 + shape.cols);
      LogicalCrossbar xb(shape);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) {
          xb.program_cell(r - r0, c - c0, wq(r, c));
        }
      }
      OBS_PROFILE_RECORD(obs::ProfileKind::kProgramWrite, layer_id,
                         rb * cb_count + cb, (r1 - r0) * (c1 - c0));
      crossbars_.push_back(std::move(xb));
    }
  }

  // Device non-ideality enters at this programming step: the seeded fault
  // maps and programming variation are burned into the arrays the moment
  // the weights are written (reram/faults.hpp).
  if (faults != nullptr && !faults->ideal()) {
    burn_faults(*faults, layer_id, policy == KernelPolicy::kScalarReference);
  }
}

void MappedLayer::burn_faults(const FaultModel& faults, std::uint64_t layer_id,
                              bool reference_path) {
  fault_stats_ = {};
  read_sigma_weights_ = 0.0;
  if (faults.ideal()) return;
  const std::uint64_t base_id = layer_id * kFaultIdStride;
  for (std::size_t i = 0; i < crossbars_.size(); ++i) {
    fault_stats_ += crossbars_[i].apply_faults(
        faults, base_id + static_cast<std::uint64_t>(i), reference_path);
  }
  arm_read_noise(faults, layer_id);
}

void MappedLayer::burn_faults_recording(const FaultModel& faults,
                                        std::uint64_t layer_id,
                                        std::vector<CrossbarBurnRecord>& out) {
  fault_stats_ = {};
  out.clear();
  out.resize(crossbars_.size());
  const std::uint64_t base_id = layer_id * kFaultIdStride;
  for (std::size_t i = 0; i < crossbars_.size(); ++i) {
    out[i].variation = crossbars_[i].apply_faults_recording(
        faults, base_id + static_cast<std::uint64_t>(i), out[i].hits,
        out[i].bucket_ends);
    fault_stats_ += out[i].variation;
  }
  arm_read_noise(faults, layer_id);
}

void MappedLayer::replay_faults(
    const FaultModel& faults, std::uint64_t layer_id,
    const std::vector<CrossbarBurnRecord>& recorded) {
  AUTOHET_CHECK(recorded.size() == crossbars_.size(),
                "recorded burn does not match this layer's crossbar grid");
  fault_stats_ = {};
  for (std::size_t i = 0; i < crossbars_.size(); ++i) {
    fault_stats_ += recorded[i].variation;
    fault_stats_ += crossbars_[i].replay_stuck_faults(
        faults, recorded[i].hits, recorded[i].bucket_ends);
  }
  arm_read_noise(faults, layer_id);
}

void MappedLayer::arm_read_noise(const FaultModel& faults,
                                 std::uint64_t layer_id) {
  read_sigma_weights_ = faults.read_noise_weight_sigma();
  read_base_ = common::Rng(faults.config().seed ^ 0x5eadbeefcafeULL)
                   .child(layer_id);
}

void MappedLayer::prepare_packed() {
  for (auto& xb : crossbars_) xb.ensure_packed();
}

void MappedLayer::mvm_read_noisy_into(
    std::span<const std::uint8_t> input_column, std::span<std::int32_t> out,
    std::uint64_t call_key) const {
  AUTOHET_CHECK(
      static_cast<std::int64_t>(input_column.size()) == spec_.weight_rows(),
      "input column length mismatch");
  AUTOHET_CHECK(
      static_cast<std::int64_t>(out.size()) == spec_.weight_cols(),
      "output span length mismatch");
  OBS_COUNTER_ADD("autohet_functional_mvm_total", 1);
  std::fill(out.begin(), out.end(), 0);
  // One child derivation per call keeps concurrent forwards deterministic
  // without mutating shared state; each crossbar then draws from its own
  // child of the call stream.
  const common::Rng call_base = read_base_.child(call_key);
  const std::int64_t cb_count = mapping_.col_blocks;
  for (std::int64_t rb = 0; rb < mapping_.row_blocks; ++rb) {
    const auto [r0, r1] = row_ranges_[static_cast<std::size_t>(rb)];
    const std::span<const std::uint8_t> slice =
        input_column.subspan(static_cast<std::size_t>(r0),
                             static_cast<std::size_t>(r1 - r0));
    for (std::int64_t cb = 0; cb < cb_count; ++cb) {
      const std::size_t idx = static_cast<std::size_t>(rb * cb_count + cb);
      common::Rng rng = call_base.child(static_cast<std::uint64_t>(idx));
      // Adder tree: row-block partials accumulate straight into the output
      // slice for this column block.
      crossbars_[idx].mvm_read_noisy_accum(
          slice, rng, read_sigma_weights_,
          out.data() + cb * mapping_.shape.cols);
    }
  }
}

void MappedLayer::mvm_batch_into(const std::uint8_t* columns_t,
                                 std::int64_t count, DatapathMode mode,
                                 std::span<std::int32_t> accs_t,
                                 kernels::KernelScratch& scratch) const {
  const std::int64_t cols = spec_.weight_cols();
  AUTOHET_CHECK(static_cast<std::int64_t>(accs_t.size()) == count * cols,
                "accumulator span must be weight_cols x count");
  AUTOHET_CHECK(read_sigma_weights_ == 0.0,
                "batched MVMs require a noise-free fabric");
  OBS_COUNTER_ADD("autohet_functional_mvm_total",
                  static_cast<std::uint64_t>(count));
  std::fill(accs_t.begin(), accs_t.end(), 0);
  const std::int64_t cb_count = mapping_.col_blocks;
  for (std::int64_t rb = 0; rb < mapping_.row_blocks; ++rb) {
    const auto [r0, r1] = row_ranges_[static_cast<std::size_t>(rb)];
    (void)r1;
    for (std::int64_t cb = 0; cb < cb_count; ++cb) {
      const std::size_t idx = static_cast<std::size_t>(rb * cb_count + cb);
      std::int32_t* acc = accs_t.data() + cb * mapping_.shape.cols * count;
      if (mode == DatapathMode::kBitSerial) {
        crossbars_[idx].mvm_bit_serial_batch_accum(columns_t + r0 * count,
                                                   count, acc, scratch);
      } else {
        crossbars_[idx].mvm_reference_batch_accum(columns_t + r0 * count,
                                                  count, acc);
      }
    }
  }
}

std::vector<std::int32_t> MappedLayer::mvm_scalar(
    std::span<const std::uint8_t> input_column, DatapathMode mode,
    std::uint64_t call_key) const {
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(spec_.weight_cols()), 0);
  // The read-noise datapath is already per cell and per column.
  if (mode == DatapathMode::kInteger && read_noisy()) {
    mvm_read_noisy_into(input_column, out, call_key);
    return out;
  }
  AUTOHET_CHECK(
      static_cast<std::int64_t>(input_column.size()) == spec_.weight_rows(),
      "input column length mismatch");
  OBS_COUNTER_ADD("autohet_functional_mvm_total", 1);
  const std::int64_t cb_count = mapping_.col_blocks;
  for (std::int64_t rb = 0; rb < mapping_.row_blocks; ++rb) {
    const auto [r0, r1] = row_ranges_[static_cast<std::size_t>(rb)];
    const std::span<const std::uint8_t> slice =
        input_column.subspan(static_cast<std::size_t>(r0),
                             static_cast<std::size_t>(r1 - r0));
    for (std::int64_t cb = 0; cb < cb_count; ++cb) {
      const auto& xb = crossbars_[static_cast<std::size_t>(rb * cb_count + cb)];
      const std::vector<std::int32_t> partial =
          mode == DatapathMode::kBitSerial ? xb.mvm_bit_serial_scalar(slice)
                                           : xb.mvm_reference_scalar(slice);
      const std::int64_t c0 = cb * mapping_.shape.cols;
      for (std::size_t j = 0; j < partial.size(); ++j) {
        out[static_cast<std::size_t>(c0) + j] += partial[j];
      }
    }
  }
  return out;
}

FaultMapStats SimulatedModel::fault_stats() const noexcept {
  FaultMapStats total;
  for (const auto& layer : layers_) total += layer.fault_stats();
  return total;
}

SimulatedModel::SimulatedModel(
    const nn::Model& model,
    const std::vector<mapping::CrossbarShape>& shapes, DatapathMode mode,
    const FaultConfig& faults, KernelPolicy policy)
    : SimulatedModel(model, mode, faults, policy,
                     program_layers(model, shapes, faults, policy)) {}

SimulatedModel::SimulatedModel(const nn::Model& model,
                               const plan::DeploymentPlan& plan,
                               DatapathMode mode, KernelPolicy policy)
    : SimulatedModel(model, mode, plan.accel.faults, policy,
                     program_layers(model, plan_shapes(model, plan),
                                    plan.accel.faults, policy)) {}

SimulatedModel::SimulatedModel(const nn::Model& model, DatapathMode mode,
                               const FaultConfig& faults, KernelPolicy policy,
                               std::vector<MappedLayer> layers)
    : model_(&model),
      mode_(mode),
      fault_model_(faults),
      policy_(policy),
      layers_(std::move(layers)) {
  AUTOHET_CHECK(layers_.size() == model.spec().mappable_layers().size(),
                "one prebuilt layer per mappable layer required");
  AUTOHET_CHECK(faults.read_sigma == 0.0 || mode == DatapathMode::kInteger,
                "read noise requires the integer datapath");
  // The integer datapath never reads the packed planes; pack only when the
  // bit-serial fast kernels will actually run (packing costs a pass per
  // crossbar, wasted on every Monte-Carlo trial fabric otherwise). Packing
  // is idempotent, so layers prebuilt packed pass through untouched.
  if (mode_ == DatapathMode::kBitSerial && policy_ == KernelPolicy::kFast) {
    for (auto& layer : layers_) layer.prepare_packed();
  }
}

SimulatedModel SimulatedModel::with_faults(const FaultConfig& faults) const {
  AUTOHET_CHECK(fault_model_.ideal(),
                "with_faults requires a clean (ideal) fabric to clone");
  return clone_burned(faults, [](MappedLayer& layer, const FaultModel& fm,
                                 std::uint64_t id) {
    layer.burn_faults(fm, id);
  });
}

SimulatedModel SimulatedModel::with_faults_recorded(
    const FaultConfig& faults, TrialBurnRecord& record) const {
  AUTOHET_CHECK(fault_model_.ideal(),
                "recording requires a clean (ideal) fabric to clone");
  AUTOHET_CHECK(FaultModel(faults).record_eligible(),
                "fault config is not record-eligible");
  record.layers.assign(layers_.size(), {});
  return clone_burned(faults, [&](MappedLayer& layer, const FaultModel& fm,
                                  std::uint64_t id) {
    layer.burn_faults_recording(fm, id, record.layers[id]);
  });
}

SimulatedModel SimulatedModel::replay_faults(
    const FaultConfig& faults, const TrialBurnRecord& record) const {
  AUTOHET_CHECK(record.layers.size() == layers_.size(),
                "burn record does not match this fabric's layer count");
  return clone_burned(faults, [&](MappedLayer& layer, const FaultModel& fm,
                                  std::uint64_t id) {
    layer.replay_faults(fm, id, record.layers[id]);
  });
}

SimulatedModel SimulatedModel::clone_burned(
    const FaultConfig& faults,
    const std::function<void(MappedLayer&, const FaultModel&, std::uint64_t)>&
        burn) const {
  AUTOHET_CHECK(faults.read_sigma == 0.0 || mode_ == DatapathMode::kInteger,
                "read noise requires the integer datapath");
  SimulatedModel out = *this;  // reuses quantization + programmed cells
  out.fault_model_ = FaultModel(faults);
  for (std::size_t i = 0; i < out.layers_.size(); ++i) {
    burn(out.layers_[i], out.fault_model_, static_cast<std::uint64_t>(i));
  }
  return out;
}

tensor::Tensor SimulatedModel::run_conv(const MappedLayer& layer,
                                        const tensor::Tensor& input,
                                        std::uint64_t noise_stream) const {
  const nn::LayerSpec& spec = layer.spec();
  OBS_PROFILE_RECORD(obs::ProfileKind::kFunctionalMvm,
                     &layer - layers_.data(), 0, spec.mvm_count());
  // Quantize the whole activation tensor once (8-bit, unsigned: inputs are
  // post-ReLU or raw non-negative pixels).
  const nn::QuantizedActivations qa =
      nn::quantize_activations(input, /*bits=*/8);
  const float out_scale = layer.weight_scale() * qa.scale;
  const bool scalar = policy_ == KernelPolicy::kScalarReference;

  // CONV: integer im2col over the quantized activations, one MVM per output
  // position (spec.mvm_count() invocations, as the hardware model charges).
  const std::int64_t k = spec.kernel;
  const std::int64_t oh = spec.out_height();
  const std::int64_t ow = spec.out_width();
  const std::int64_t h = spec.in_height;
  const std::int64_t w = spec.in_width;
  tensor::Tensor out({spec.out_channels, oh, ow});
  const std::int64_t plane = oh * ow;
  float* const out_base = out.data();
  const auto fill_column = [&](std::int64_t oi, std::int64_t oj,
                               std::uint8_t* col) {
    const std::int64_t i0 = oi * spec.stride - spec.pad;
    const std::int64_t j0 = oj * spec.stride - spec.pad;
    if (i0 >= 0 && j0 >= 0 && i0 + k <= h && j0 + k <= w) {
      // Interior window (every window when pad == 0): each kernel row is a
      // contiguous k-byte slice of the activation plane.
      for (std::int64_t ch = 0; ch < spec.in_channels; ++ch) {
        const std::uint8_t* src =
            qa.values.data() +
            static_cast<std::size_t>((ch * h + i0) * w + j0);
        for (std::int64_t ki = 0; ki < k; ++ki, src += w, col += k) {
          std::memcpy(col, src, static_cast<std::size_t>(k));
        }
      }
    } else {
      for (std::int64_t ch = 0; ch < spec.in_channels; ++ch) {
        for (std::int64_t ki = 0; ki < k; ++ki) {
          for (std::int64_t kj = 0; kj < k; ++kj, ++col) {
            const std::int64_t ii = i0 + ki;
            const std::int64_t jj = j0 + kj;
            *col = (ii >= 0 && ii < h && jj >= 0 && jj < w)
                       ? qa.values[static_cast<std::size_t>(
                             (ch * h + ii) * w + jj)]
                       : std::uint8_t{0};
          }
        }
      }
    }
  };

  // GEMM-shaped fast path (integer or bit-serial datapath, noise-free
  // fabric): im2col a tile of output positions and push them through one
  // batched MVM per crossbar. Integer sums are exact, so the results are
  // bit-identical to the per-position loop below — only per-position call
  // overhead goes.
  if (!scalar && !layer.read_noisy()) {
    constexpr std::int64_t kTile = 96;
    const std::int64_t positions = oh * ow;
    const std::int64_t rows = spec.weight_rows();
    const std::int64_t cols = spec.weight_cols();
    thread_local kernels::KernelScratch tile_scratch;
    std::uint8_t* column = tile_scratch.column(static_cast<std::size_t>(rows));
    for (std::int64_t p0 = 0; p0 < positions; p0 += kTile) {
      const std::int64_t n = std::min(kTile, positions - p0);
      std::uint8_t* cols_t =
          tile_scratch.columns_t(static_cast<std::size_t>(n * rows));
      std::int32_t* accs_t =
          tile_scratch.accs_t(static_cast<std::size_t>(n * cols));
      for (std::int64_t t = 0; t < n; ++t) {
        fill_column((p0 + t) / ow, (p0 + t) % ow, column);
        for (std::int64_t i = 0; i < rows; ++i) {
          cols_t[static_cast<std::size_t>(i * n + t)] =
              column[static_cast<std::size_t>(i)];
        }
      }
      layer.mvm_batch_into(
          cols_t, n, mode_,
          std::span(accs_t, static_cast<std::size_t>(n * cols)),
          tile_scratch);
      for (std::int64_t co = 0; co < spec.out_channels; ++co) {
        float* const op = out_base + co * plane + p0;
        const std::int32_t* a = accs_t + co * n;
        for (std::int64_t t = 0; t < n; ++t) {
          op[t] = static_cast<float>(a[t]) * out_scale;
        }
      }
    }
    return out;
  }

  // Per-position fallback (read-noisy fabrics and the scalar baseline).
  // The read-noise stream is keyed on the output position.
  std::vector<std::uint8_t> column(
      static_cast<std::size_t>(spec.weight_rows()));
  std::vector<std::int32_t> acc(static_cast<std::size_t>(spec.weight_cols()));
  for (std::int64_t oi = 0; oi < oh; ++oi) {
    for (std::int64_t oj = 0; oj < ow; ++oj) {
      fill_column(oi, oj, column.data());
      const std::uint64_t key =
          make_call_key(noise_stream, static_cast<std::uint64_t>(oi * ow + oj));
      float* const op = out_base + oi * ow + oj;
      if (scalar) {
        acc = layer.mvm_scalar(column, mode_, key);
      } else {
        layer.mvm_read_noisy_into(column, acc, key);
      }
      for (std::int64_t co = 0; co < spec.out_channels; ++co) {
        op[co * plane] =
            static_cast<float>(acc[static_cast<std::size_t>(co)]) * out_scale;
      }
    }
  }
  return out;
}

std::vector<tensor::Tensor> SimulatedModel::run_mappable(
    const MappedLayer& layer, std::span<const tensor::Tensor> inputs,
    std::uint64_t noise_stream0) const {
  const nn::LayerSpec& spec = layer.spec();
  const bool scalar = policy_ == KernelPolicy::kScalarReference;
  std::vector<tensor::Tensor> outs;
  outs.reserve(inputs.size());
  if (spec.type == nn::LayerType::kConv) {
    for (std::size_t s = 0; s < inputs.size(); ++s) {
      outs.push_back(run_conv(layer, inputs[s], noise_stream0 + s));
    }
    return outs;
  }

  // FC: one MVM per sample over its own 8-bit activation quantization.
  const auto count = static_cast<std::int64_t>(inputs.size());
  const std::int64_t rows = spec.weight_rows();
  const std::int64_t cols = spec.weight_cols();
  OBS_PROFILE_RECORD(obs::ProfileKind::kFunctionalMvm,
                     &layer - layers_.data(), 0, count);
  std::vector<nn::QuantizedActivations> qas;
  qas.reserve(inputs.size());
  for (const tensor::Tensor& x : inputs) {
    qas.push_back(nn::quantize_activations(x.reshaped({x.numel()}),
                                           /*bits=*/8));
  }
  // Sample s's accumulation for output j is acc[s * s_step + j * j_step].
  thread_local kernels::KernelScratch scratch;
  std::vector<std::int32_t> per_sample;
  const std::int32_t* acc = nullptr;
  std::int64_t s_step = 1;
  std::int64_t j_step = count;
  if (!scalar && !layer.read_noisy()) {
    // Noise-free fast path: all samples (a single sample is a batch of one)
    // through one batched MVM per crossbar, batch dimension innermost.
    // Integer sums are exact and each sample is scaled by its own out_scale
    // afterwards, so this is bit for bit the per-sample result.
    std::uint8_t* cols_t =
        scratch.columns_t(static_cast<std::size_t>(rows * count));
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t s = 0; s < count; ++s) {
        cols_t[r * count + s] = qas[static_cast<std::size_t>(s)].values
                                    [static_cast<std::size_t>(r)];
      }
    }
    std::int32_t* accs_t =
        scratch.accs_t(static_cast<std::size_t>(cols * count));
    layer.mvm_batch_into(
        cols_t, count, mode_,
        std::span(accs_t, static_cast<std::size_t>(cols * count)), scratch);
    acc = accs_t;
  } else {
    // Per-sample fallback (read-noisy fabrics and the scalar baseline).
    per_sample.assign(static_cast<std::size_t>(count * cols), 0);
    for (std::int64_t s = 0; s < count; ++s) {
      const std::span<const std::uint8_t> column(
          qas[static_cast<std::size_t>(s)].values);
      const std::uint64_t key =
          make_call_key(noise_stream0 + static_cast<std::uint64_t>(s), 0);
      std::int32_t* out = per_sample.data() + s * cols;
      if (scalar) {
        const std::vector<std::int32_t> a =
            layer.mvm_scalar(column, mode_, key);
        std::copy(a.begin(), a.end(), out);
      } else {
        layer.mvm_read_noisy_into(
            column, std::span(out, static_cast<std::size_t>(cols)), key);
      }
    }
    acc = per_sample.data();
    s_step = cols;
    j_step = 1;
  }
  for (std::int64_t s = 0; s < count; ++s) {
    const float out_scale =
        layer.weight_scale() * qas[static_cast<std::size_t>(s)].scale;
    tensor::Tensor out({spec.out_channels});
    for (std::int64_t j = 0; j < spec.out_channels; ++j) {
      out[j] = static_cast<float>(acc[s * s_step + j * j_step]) * out_scale;
    }
    outs.push_back(std::move(out));
  }
  return outs;
}

tensor::Tensor SimulatedModel::forward(const tensor::Tensor& input,
                                       std::uint64_t noise_stream) const {
  return std::move(
      forward_batch(std::span(&input, 1), noise_stream).front().output);
}

std::vector<SimulatedModel::ForwardTrace> SimulatedModel::forward_batch(
    std::span<const tensor::Tensor> inputs, std::uint64_t noise_stream0) const {
  const nn::Graph& graph = model_->graph();
  AUTOHET_CHECK(graph.node_count() > 0,
                "network is not sequentially runnable (" +
                    model_->spec().name + ")");
  std::vector<ForwardTrace> traces(inputs.size());
  if (inputs.empty()) return traces;
  for (auto& t : traces) t.mappable_outputs.reserve(layers_.size());

  // Every node's value holds one tensor per sample. Mappable nodes run the
  // whole batch through their crossbars; every other op runs per sample —
  // pooling on the tile's pooling module, the rest on the vector unit.
  using Batch = std::vector<tensor::Tensor>;
  const auto sample_op = [&](const nn::GraphNode& node, std::size_t layer,
                             std::span<const Batch* const> x,
                             std::size_t s) -> tensor::Tensor {
    const tensor::Tensor& a = (*x[0])[s];
    switch (node.kind) {
      case nn::OpKind::kLayer:
        return model_->forward_layer(layer, a);
      case nn::OpKind::kResidualAdd:
        return residual_add_exact(a, (*x[1])[s]);
      case nn::OpKind::kGlobalAvgPool:
        return tensor::global_avg_pool(a);
      case nn::OpKind::kConcat: {
        std::vector<const tensor::Tensor*> parts;
        for (const Batch* part : x) parts.push_back(&(*part)[s]);
        return tensor::concat_channels(parts);
      }
      case nn::OpKind::kInput:
      case nn::OpKind::kActivation:  // the caller applies the ReLU
        break;
    }
    return a;
  };
  std::size_t mappable_idx = 0;
  Batch outputs = nn::execute<Batch>(
      graph,
      [&](const nn::GraphNode& node, std::size_t layer,
          std::span<const Batch* const> x) -> Batch {
        if (node.kind == nn::OpKind::kInput) {
          for (const tensor::Tensor& in : inputs) {
            AUTOHET_CHECK(in.numel() == node.shape.numel(),
                          "input tensor does not match graph input shape " +
                              node.shape.to_string());
          }
          return Batch(inputs.begin(), inputs.end());
        }
        Batch v;
        if (nn::is_mappable(node)) {
          v = run_mappable(layers_[mappable_idx++], *x[0], noise_stream0);
          for (std::size_t s = 0; s < v.size(); ++s) {
            traces[s].mappable_outputs.push_back(v[s]);  // pre-activation
          }
        } else {
          for (std::size_t s = 0; s < inputs.size(); ++s) {
            v.push_back(sample_op(node, layer, x, s));
          }
        }
        if (node.kind == nn::OpKind::kActivation ||
            (node.kind == nn::OpKind::kLayer && node.layer.relu_after)) {
          for (tensor::Tensor& t : v) tensor::relu_inplace(t);
        }
        return v;
      });
  for (std::size_t s = 0; s < traces.size(); ++s) {
    traces[s].output = std::move(outputs[s]);
  }
  return traces;
}

nn::Model replay_model(const plan::DeploymentPlan& plan) {
  common::Rng weight_rng(3);
  if (plan.has_graph()) return nn::Model(plan.graph, weight_rng);
  const nn::NetworkSpec net = nn::network_by_name(plan.network);
  AUTOHET_CHECK(net.sequential_runnable,
                plan.network + " is not sequentially runnable");
  return nn::Model(net, weight_rng);
}

std::shared_ptr<const TrialFabricCache::IdealRefs>
TrialFabricCache::ideal_refs(const WorkloadKey& key,
                             const std::function<IdealRefs()>& build) {
  return ideal_.get(key, build);
}

std::shared_ptr<const TrialFabricCache::TrialFabric>
TrialFabricCache::trial_fabric(const WorkloadKey& workload,
                               const FaultConfig& trial_faults,
                               const std::function<TrialFabric()>& build) {
  const TrialKey key{workload, trial_faults.cell_bits,
                     trial_faults.program_sigma, trial_faults.seed};
  // Another workload, or another (cell_bits, sigma) generation of this one,
  // can never hit again within a sweep — drop its fabrics eagerly.
  return trials_.get(key, build, [&](const TrialKey& resident) {
    return resident.workload != key.workload ||
           resident.cell_bits != key.cell_bits ||
           resident.program_sigma != key.program_sigma;
  });
}

TrialFabricCache::Stats TrialFabricCache::stats() const {
  const auto ideal = ideal_.counts();
  const auto trials = trials_.counts();
  return {ideal.builds, ideal.hits, trials.builds, trials.hits};
}

std::shared_ptr<const MappedLayer> LayerFabricCache::layer(
    const nn::Model& model, std::size_t layer_index,
    const mapping::CrossbarShape& shape, const FaultConfig& faults,
    const std::function<MappedLayer()>& build) {
  return layers_.get(
      {model.identity(), layer_index, shape.rows, shape.cols, faults}, build);
}

std::shared_ptr<const TrialFabricCache::IdealRefs>
LayerFabricCache::ideal_refs(
    const nn::Model& model, int samples, std::uint64_t input_seed,
    const std::function<TrialFabricCache::IdealRefs()>& build) {
  return refs_.get({model.identity(), samples, input_seed}, build);
}

LayerFabricCache::Stats LayerFabricCache::stats() const {
  const auto layers = layers_.counts();
  const auto refs = refs_.counts();
  return {layers.builds, layers.hits, refs.builds, refs.hits};
}

void LayerFabricCache::clear() {
  layers_.clear();
  refs_.clear();
}

RobustnessReport monte_carlo_robustness(
    const nn::Model& model, const std::vector<mapping::CrossbarShape>& shapes,
    const FaultConfig& faults, const RobustnessOptions& options) {
  OBS_SPAN("mc_robustness");
  AUTOHET_CHECK(options.trials > 0 && options.samples > 0,
                "robustness needs at least one trial and one sample");
  AUTOHET_CHECK(options.threads >= 0, "threads must be non-negative");
  faults.validate();
  options.budget.validate();
  const bool adaptive =
      options.budget.mode == RobustnessBudget::Mode::kAdaptive;
  // The stopper owns the budget arithmetic: the effective cap (max_trials,
  // falling back to options.trials) and the chunk-boundary schedule. Fixed
  // mode ignores it for decisions and only reads the final CI off it.
  SequentialStopper stopper(options.budget, options.trials);
  const int requested = adaptive ? stopper.cap() : options.trials;
  const bool scalar = options.kernels == KernelPolicy::kScalarReference;
  // The scalar baseline must measure the honest uncached path; the cache
  // only ever accelerates the fast kernels.
  TrialFabricCache* cache = scalar ? nullptr : options.cache;
  const bool cache_trials =
      cache != nullptr && FaultModel(faults).record_eligible();
  // Adaptive-only cross-rate spanning: a zero-stuck-rate config cannot be
  // recorded from its own stream (the stuck draws are skipped entirely),
  // but it *can* replay the shared recorded family — the probe recording is
  // rate-independent and replaying it under zero thresholds forces nothing.
  // Statistically equivalent, not byte-identical, so kFixed never takes it.
  const bool span_zero =
      adaptive && cache != nullptr &&
      !cache_trials && faults.stuck_at_zero_rate == 0.0 &&
      faults.stuck_at_one_rate == 0.0 && faults.program_sigma > 0.0 &&
      FaultModel(spanning_probe(faults)).record_eligible();

  RobustnessReport report;
  report.trials_requested = requested;
  report.samples = options.samples;
  report.min_accuracy = 1.0;

  // A fabric programmed under `fc`. With a LayerFabricCache (the in-search
  // fast path) it is stitched together from shared prebuilt layers —
  // bit-identical to a fresh build, because programming and burn-in are
  // pure per-layer functions of the key.
  LayerFabricCache* layer_cache = scalar ? nullptr : options.layer_cache;
  const auto program = [&](const FaultConfig& fc) {
    return SimulatedModel(
        model, DatapathMode::kInteger, fc, options.kernels,
        program_layers(model, shapes, fc, options.kernels, layer_cache));
  };

  // The ideal fabric is the reference: agreement with it isolates device
  // non-ideality from the (always present) 8-bit quantization error. The
  // references depend on no fault knob, so a cache shares one build across
  // a sweep's whole rate × cell-bits grid.
  const auto build_refs = [&]() {
    TrialFabricCache::IdealRefs refs{program({}), {}, {}};
    const nn::LayerSpec& first = model.spec().layers.front();
    common::Rng img_rng(options.input_seed);
    refs.images.reserve(static_cast<std::size_t>(options.samples));
    for (int s = 0; s < options.samples; ++s) {
      refs.images.push_back(nn::synthetic_image(
          img_rng, first.in_channels, first.in_height, first.in_width));
    }
    // The ideal fabric has no read noise, so the per-sample streams
    // forward_batch assigns cannot change the references.
    refs.references = refs.ideal.forward_batch(refs.images);
    return refs;
  };
  // The layer cache's reference store wins when present: references are
  // allocation-invariant (partition-exact ideal forward), so one set
  // serves every allocation a search visits — the workload-keyed
  // TrialFabricCache would rebuild them on each new allocation.
  const TrialFabricCache::WorkloadKey workload{
      model.identity(), shapes, options.samples, options.input_seed};
  const std::shared_ptr<const TrialFabricCache::IdealRefs> refs =
      layer_cache != nullptr
          ? layer_cache->ideal_refs(model, options.samples,
                                    options.input_seed, build_refs)
      : cache != nullptr
          ? cache->ideal_refs(workload, build_refs)
          : std::make_shared<const TrialFabricCache::IdealRefs>(build_refs());
  const std::vector<tensor::Tensor>& images = refs->images;
  const std::vector<SimulatedModel::ForwardTrace>& references =
      refs->references;

  const std::size_t num_layers = refs->ideal.mapped_layers().size();
  report.layer_error.assign(num_layers, 0.0);

  // The parallel unit is a (trial, sample-chunk) item, not a whole trial:
  // splitting trials into chunks of a few samples keeps every worker busy
  // even when trials ≈ threads or trials == 1, and each sample writes its
  // own result slot so the reduction below can replay the serial
  // accumulation order exactly — floating-point sums are order-sensitive,
  // and the report must not depend on the thread count.
  constexpr int kSampleChunk = 4;
  const int chunks_per_trial =
      (options.samples + kSampleChunk - 1) / kSampleChunk;
  struct TrialResult {
    FaultMapStats stats;
    std::vector<char> agree;        // per sample: argmax matched reference
    std::vector<double> logit_err;  // per sample: max |logit diff|
    std::vector<double> layer_err;  // samples × num_layers, row-major
    double wall_ms = 0.0;           // build + sum of this trial's chunks
  };
  std::vector<TrialResult> trials(static_cast<std::size_t>(requested));
  for (auto& res : trials) {
    res.agree.assign(static_cast<std::size_t>(options.samples), 0);
    res.logit_err.resize(static_cast<std::size_t>(options.samples));
    res.layer_err.resize(static_cast<std::size_t>(options.samples) *
                         num_layers);
  }

  const auto ms_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Phase A body: build one trial's faulty fabric. Cloning the clean fabric
  // and burning this trial's faults is bit-identical to a fresh build (both
  // are pure functions of the seeds); with a cache, the burn is recorded
  // once and replayed per rate point. The scalar baseline reconstructs from
  // scratch, as before. Layer assembly beats the record/replay machinery
  // when allocations churn (the trial seed stream is fixed, so every layer
  // burn is shared across episodes); the workload-keyed TrialFabricCache
  // would evict on every new allocation anyway.
  const auto build_fabric = [&](std::size_t t) -> SimulatedModel {
    const FaultConfig trial_faults =
        faults.for_trial(static_cast<std::uint64_t>(t));
    if (scalar || layer_cache != nullptr) return program(trial_faults);
    if (cache_trials || span_zero) {
      const auto slot = cache->trial_fabric(workload, trial_faults, [&] {
        TrialBurnRecord rec;
        // A spanning (zero-rate) point burns the canonical probe config so
        // the recording it leaves behind is the exact one every in-cap
        // nonzero-rate point of this (seed, sigma, bits) generation records
        // — one burned fabric family serves the whole rate row.
        const FaultConfig burn =
            span_zero ? spanning_probe(trial_faults) : trial_faults;
        SimulatedModel fabric = refs->ideal.with_faults_recorded(burn, rec);
        return TrialFabricCache::TrialFabric{std::move(fabric),
                                             std::move(rec)};
      });
      return slot->fabric.replay_faults(trial_faults, slot->record);
    }
    return refs->ideal.with_faults(trial_faults);
  };

  // Phase B body: run one chunk of samples through an already-built trial
  // fabric. Sample s keeps noise stream s and its own result slots, so
  // chunks of one trial can run concurrently — and forward_batch is
  // bit-identical to one-sample forwards. Returns the chunk's wall
  // time so the per-trial total can be folded deterministically later.
  const auto run_chunk = [&](const SimulatedModel& faulty, TrialResult& res,
                             int c) -> double {
    const auto t0 = std::chrono::steady_clock::now();
    const int s0 = c * kSampleChunk;
    const int s1 = std::min(options.samples, s0 + kSampleChunk);
    const auto traces = faulty.forward_batch(
        std::span(images).subspan(static_cast<std::size_t>(s0),
                                  static_cast<std::size_t>(s1 - s0)),
        /*noise_stream0=*/static_cast<std::uint64_t>(s0));
    for (int s = s0; s < s1; ++s) {
      const auto si = static_cast<std::size_t>(s);
      const auto& trace = traces[static_cast<std::size_t>(s - s0)];
      res.agree[si] = tensor::argmax(trace.output) ==
                      tensor::argmax(references[si].output);
      res.logit_err[si] =
          tensor::max_abs_diff(trace.output, references[si].output);
      for (std::size_t l = 0; l < num_layers; ++l) {
        const float ref_scale =
            std::max(1.0f, references[si].mappable_outputs[l].abs_max());
        res.layer_err[si * num_layers + l] =
            tensor::max_abs_diff(trace.mappable_outputs[l],
                                 references[si].mappable_outputs[l]) /
            ref_scale;
      }
    }
    return ms_since(t0);
  };

  int threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // The (trial, sample-chunk) items are the one parallel level: chunking
  // keeps a pool busy even for a single trial with enough samples, and each
  // forward inside an item runs serially.
  std::optional<common::ThreadPool> local_pool;
  common::ThreadPool* pool = nullptr;
  if (!scalar && threads > 1) {
    pool = options.pool;
    if (pool == nullptr) {
      pool = &local_pool.emplace(static_cast<std::size_t>(threads));
    }
  }
  // Runs trials [w0, w1), filling their result slots, in generations:
  // phase A builds a block of trial fabrics (concurrently with a pool),
  // phase B runs the block's flattened (trial, chunk) items. Blocking
  // bounds peak fabric memory at one block — a single fabric without a
  // pool — instead of the whole budget.
  const std::size_t block =
      pool != nullptr ? std::max<std::size_t>(pool->size(), 8) : 1;
  const auto cpt = static_cast<std::size_t>(chunks_per_trial);
  const auto run_trials = [&](std::size_t w0, std::size_t w1) {
    for (std::size_t b0 = w0; b0 < w1; b0 += block) {
      const std::size_t b1 = std::min(w1, b0 + block);
      std::vector<std::optional<SimulatedModel>> fabrics(b1 - b0);
      common::parallel_for(pool, b0, b1, [&](std::size_t t) {
        OBS_SPAN("fault_trial_build");
        const auto t0 = std::chrono::steady_clock::now();
        fabrics[t - b0].emplace(build_fabric(t));
        trials[t].stats = fabrics[t - b0]->fault_stats();
        trials[t].wall_ms = ms_since(t0);
      });
      std::vector<double> chunk_ms((b1 - b0) * cpt, 0.0);
      common::parallel_for(pool, 0, (b1 - b0) * cpt, [&](std::size_t item) {
        OBS_SPAN("fault_trial_chunk");
        const std::size_t t = b0 + item / cpt;
        const int c = static_cast<int>(item % cpt);
        chunk_ms[item] = run_chunk(*fabrics[t - b0], trials[t], c);
      });
      // Chunks of one trial run concurrently; fold their times in order.
      for (std::size_t item = 0; item < chunk_ms.size(); ++item) {
        trials[b0 + item / cpt].wall_ms += chunk_ms[item];
      }
    }
  };

  // Wave loop. Fixed mode runs one wave over the whole budget — identical
  // work, scheduling and reduction order to the fixed-product code, so
  // reports stay byte-identical. Adaptive mode runs to the next decision
  // boundary, feeds the pooled per-sample agreement to the stopping rule
  // (integer sums — thread-order free) and stops once the CI resolves or
  // the cap fires. Executed trials are a prefix of the fixed-mode stream.
  std::size_t executed = 0;
  const auto n_requested = static_cast<std::size_t>(requested);
  while (executed < n_requested) {
    const std::size_t wave_end =
        adaptive ? static_cast<std::size_t>(
                       stopper.next_boundary(static_cast<int>(executed)))
                 : n_requested;
    if (adaptive) {
      OBS_SPAN("mc_budget_wave");
      run_trials(executed, wave_end);
    } else {
      run_trials(executed, wave_end);
    }
    for (std::size_t t = executed; t < wave_end; ++t) {
      std::int64_t agree = 0;
      for (const char a : trials[t].agree) agree += a;
      stopper.add_trial(agree, options.samples);
    }
    executed = wave_end;
    if (adaptive && stopper.should_stop()) break;
  }
  report.trials = static_cast<int>(executed);
  report.early_stopped = adaptive && stopper.stopped_early();
  const WilsonInterval pooled_ci = stopper.interval();
  report.accuracy_ci_lower = pooled_ci.lower;
  report.accuracy_ci_upper = pooled_ci.upper;
  if (report.early_stopped) {
    OBS_SPAN("mc_early_stop");
    OBS_COUNTER_ADD("autohet_mc_early_stops_total", 1);
  }
  OBS_COUNTER_ADD("autohet_mc_trials_saved_total",
                  static_cast<std::int64_t>(n_requested - executed));

  // Ordered reduction over the executed trials: every accumulator sees its
  // terms in the exact (t, s, l) order of the serial loop, so reports are
  // byte-identical across thread counts and kernel policies.
  double acc_sum = 0.0;
  double acc_sq_sum = 0.0;
  double logit_err_sum = 0.0;
  for (std::size_t t = 0; t < executed; ++t) {
    const TrialResult& res = trials[t];
    report.fault_stats += res.stats;
    int agree = 0;
    for (int s = 0; s < options.samples; ++s) {
      const auto si = static_cast<std::size_t>(s);
      agree += res.agree[si];
      logit_err_sum += res.logit_err[si];
      for (std::size_t l = 0; l < num_layers; ++l) {
        report.layer_error[l] += res.layer_err[si * num_layers + l];
      }
    }
    const double accuracy =
        static_cast<double>(agree) / static_cast<double>(options.samples);
    acc_sum += accuracy;
    acc_sq_sum += accuracy * accuracy;
    report.min_accuracy = std::min(report.min_accuracy, accuracy);
    report.max_accuracy = std::max(report.max_accuracy, accuracy);
    OBS_COUNTER_ADD("autohet_fault_trials_total", 1);
    OBS_PROFILE_RECORD(obs::ProfileKind::kMcTrial, -1, 0, 1);
    OBS_HIST_RECORD("autohet_fault_trial_agreement_permille",
                    accuracy * 1000.0);
    OBS_HIST_RECORD("autohet_mc_trial_ms", res.wall_ms);
  }

  const double n = static_cast<double>(executed);
  report.mean_accuracy = acc_sum / n;
  report.stddev_accuracy = std::sqrt(
      std::max(0.0, acc_sq_sum / n - report.mean_accuracy *
                                         report.mean_accuracy));
  report.mean_logit_error =
      logit_err_sum / (n * static_cast<double>(options.samples));
  for (auto& e : report.layer_error) {
    e /= n * static_cast<double>(options.samples);
  }
  OBS_GAUGE_SET("autohet_fault_accuracy_mean", report.mean_accuracy);
  OBS_GAUGE_SET("autohet_fault_accuracy_stddev", report.stddev_accuracy);
  return report;
}

RobustnessReport monte_carlo_robustness(const nn::Model& model,
                                        const plan::DeploymentPlan& plan,
                                        const RobustnessOptions& options) {
  plan.validate_against(model.spec());
  // The plan's stored geometry equals map_layer on its shapes (validated),
  // so the shapes overload runs the same trial fabrics bit-identically.
  return monte_carlo_robustness(model, plan.shapes(), plan.accel.faults,
                                options);
}

}  // namespace autohet::reram
