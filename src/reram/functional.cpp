#include "reram/functional.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/model_zoo.hpp"
#include "obs/obs.hpp"
#include "reram/kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace autohet::reram {

namespace {
/// Programs `model`'s mappable layers, clean, onto the given crossbar
/// shapes.
std::vector<MappedLayer> program_layers(
    const nn::Model& model, const std::vector<mapping::CrossbarShape>& shapes) {
  const auto mappable = model.spec().mappable_layers();
  AUTOHET_CHECK(shapes.size() == mappable.size(),
                "one crossbar shape per mappable layer required");
  std::vector<MappedLayer> layers;
  layers.reserve(mappable.size());
  for (std::size_t i = 0; i < mappable.size(); ++i) {
    layers.emplace_back(mappable[i], model.weight(i), shapes[i],
                        static_cast<std::uint64_t>(i));
  }
  return layers;
}

/// Records each crossbar's cell writes: the programming a deployed fabric
/// pays.
std::vector<MappedLayer> record_programming(std::vector<MappedLayer> layers) {
  for (std::size_t l = 0; l < layers.size(); ++l) {
    for (std::size_t x = 0; x < layers[l].crossbars().size(); ++x) {
      OBS_PROFILE_RECORD(obs::ProfileKind::kProgramWrite, l, x,
                         layers[l].crossbars()[x].rows_used() *
                             layers[l].crossbars()[x].cols_used());
    }
  }
  return layers;
}

/// `plan`, once validated against `model` (its frozen geometry is then
/// exactly map_layer of its shapes); a graph (v2) plan must carry exactly
/// the model's graph.
const plan::DeploymentPlan& checked(const nn::Model& model,
                                    const plan::DeploymentPlan& plan) {
  plan.validate_against(model.spec());
  AUTOHET_CHECK(!plan.has_graph() || plan.graph == model.graph(),
                "plan graph '" + plan.graph.name() +
                    "' is not the graph the model was built from");
  return plan;
}

/// One crossbar per mappable layer, sized to the layer's own weight rows ×
/// weight cols: each layer maps to one row block and one column block.
std::vector<mapping::CrossbarShape> layer_sized_shapes(
    const nn::Model& model) {
  std::vector<mapping::CrossbarShape> shapes;
  for (const nn::LayerSpec& spec : model.spec().mappable_layers()) {
    shapes.push_back({spec.weight_rows(), spec.weight_cols()});
  }
  return shapes;
}

/// The one FaultModel of a point's trial configs, which may differ only in
/// seed: each burn job carries its own.
FaultModel point_model(std::span<const FaultConfig> faults) {
  for (const FaultConfig& fc : faults) {
    FaultConfig same_seed = fc;
    same_seed.seed = faults.front().seed;
    AUTOHET_CHECK(same_seed == faults.front(),
                  "a batched burn's configs may differ only in seed");
  }
  return FaultModel(faults.front());
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
                         std::uint64_t layer_id)
    : spec_(spec),
      mapping_(mapping::map_layer(spec, shape)),
      layer_id_(layer_id) {
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
  std::vector<std::int8_t> block;  // one crossbar's weights, row-major
  for (std::int64_t rb = 0; rb < rb_count; ++rb) {
    const auto [r0, r1] = row_ranges_[static_cast<std::size_t>(rb)];
    for (std::int64_t cb = 0; cb < cb_count; ++cb) {
      const std::int64_t c0 = cb * shape.cols;
      const std::int64_t c1 = std::min(wcols, c0 + shape.cols);
      block.clear();
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) block.push_back(wq(r, c));
      }
      LogicalCrossbar xb(shape);
      xb.program(block, r1 - r0, c1 - c0);
      crossbars_.push_back(std::move(xb));
    }
  }
}

void MappedLayer::burn(const FaultModel& faults,
                       std::span<const BurnJob> jobs,
                       common::ThreadPool* pool) {
  if (faults.ideal()) return;
  // One item per (clone, crossbar), largest programmed block first so a
  // pool's tail is the small ones; each item keeps its crossbar's stats.
  struct Item {
    const BurnJob* job;
    std::size_t crossbar;
    std::int64_t cells;
    FaultMapStats stats;
  };
  std::vector<Item> items;
  for (const BurnJob& job : jobs) {
    const MappedLayer& layer = *job.layer;
    for (std::size_t x = 0; x < layer.crossbars_.size(); ++x) {
      const LogicalCrossbar& xb = layer.crossbars_[x];
      items.push_back({&job, x, xb.rows_used() * xb.cols_used(), {}});
    }
  }
  std::stable_sort(
      items.begin(), items.end(),
      [](const Item& a, const Item& b) { return a.cells > b.cells; });
  common::parallel_for(pool, 0, items.size(), [&](std::size_t k) {
    Item& item = items[k];
    MappedLayer& layer = *item.job->layer;
    const auto cb_count = static_cast<std::size_t>(layer.mapping_.col_blocks);
    const std::size_t rb = item.crossbar / cb_count;
    const std::size_t cb = item.crossbar % cb_count;
    item.stats = layer.crossbars_[item.crossbar].burn(
        faults,
        BurnKey{item.job->seed, layer.layer_id_, layer.row_ranges_[rb].first,
                static_cast<std::int64_t>(cb) * layer.mapping_.shape.cols});
  });
  for (const Item& item : items) item.job->layer->fault_stats_ += item.stats;
}

void MappedLayer::prepare_packed() {
  for (auto& xb : crossbars_) xb.ensure_packed();
}

void MappedLayer::mvm_batch_into(const std::uint8_t* columns_t,
                                 std::int64_t count, DatapathMode mode,
                                 std::span<std::int32_t> accs_t,
                                 kernels::KernelScratch& scratch) const {
  const std::int64_t cols = spec_.weight_cols();
  AUTOHET_CHECK(static_cast<std::int64_t>(accs_t.size()) == count * cols,
                "accumulator span must be weight_cols x count");
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

FaultMapStats SimulatedModel::fault_stats() const noexcept {
  FaultMapStats total;
  for (const auto& layer : layers_) total += layer.fault_stats();
  return total;
}

SimulatedModel::SimulatedModel(
    const nn::Model& model,
    const std::vector<mapping::CrossbarShape>& shapes, DatapathMode mode,
    const FaultConfig& faults)
    : SimulatedModel(model, mode,
                     record_programming(program_layers(model, shapes))) {
  burn(std::span(this, 1), std::span(&faults, 1), nullptr);
}

SimulatedModel::SimulatedModel(const nn::Model& model,
                               const plan::DeploymentPlan& plan,
                               DatapathMode mode)
    : SimulatedModel(model, mode,
                     record_programming(program_layers(
                         model, checked(model, plan).shapes()))) {
  burn(std::span(this, 1), std::span(&plan.accel.faults, 1), nullptr);
}

SimulatedModel::SimulatedModel(const nn::Model& model, DatapathMode mode,
                               std::vector<MappedLayer> layers)
    : model_(&model),
      mode_(mode),
      layers_(std::move(layers)) {
  AUTOHET_CHECK(layers_.size() == model.spec().mappable_layers().size(),
                "one layer per mappable layer required");
}

void SimulatedModel::burn(std::span<SimulatedModel> fabrics,
                          std::span<const FaultConfig> faults,
                          common::ThreadPool* pool) {
  AUTOHET_CHECK(fabrics.size() == faults.size(),
                "one fault config per fabric required");
  if (faults.empty()) return;
  const FaultModel model = point_model(faults);
  std::vector<MappedLayer::BurnJob> jobs;
  for (std::size_t t = 0; t < fabrics.size(); ++t) {
    SimulatedModel& fabric = fabrics[t];
    AUTOHET_CHECK(fabric.faults_.ideal(),
                  "burning faults requires a clean (ideal) fabric");
    fabric.faults_ = faults[t];
    for (MappedLayer& layer : fabric.layers_) {
      jobs.push_back({&layer, faults[t].seed});
    }
  }
  MappedLayer::burn(model, jobs, pool);
  // Only the bit-serial datapath reads packed planes, and it packs once the
  // cells are final: clean layers stay unpacked until here.
  for (SimulatedModel& fabric : fabrics) {
    if (fabric.mode_ != DatapathMode::kBitSerial) continue;
    for (MappedLayer& layer : fabric.layers_) layer.prepare_packed();
  }
}

SimulatedModel SimulatedModel::with_faults(const FaultConfig& faults) const {
  return std::move(with_faults(std::span(&faults, 1)).front());
}

std::vector<SimulatedModel> SimulatedModel::with_faults(
    std::span<const FaultConfig> faults, common::ThreadPool* pool) const {
  // Clones reuse the quantization and the programmed cells.
  std::vector<SimulatedModel> out(faults.size(), *this);
  burn(out, faults, pool);
  return out;
}

std::vector<tensor::Tensor> SimulatedModel::run_conv(
    const MappedLayer& layer, std::span<const tensor::Tensor> inputs) const {
  const nn::LayerSpec& spec = layer.spec();
  // Each sample's activation tensor is quantized once, under its own scale
  // (8-bit, unsigned: inputs are post-ReLU or raw non-negative pixels).
  std::vector<nn::QuantizedActivations> qas;
  qas.reserve(inputs.size());
  std::vector<tensor::Tensor> outs;
  outs.reserve(inputs.size());
  for (const tensor::Tensor& x : inputs) {
    OBS_PROFILE_RECORD(obs::ProfileKind::kFunctionalMvm,
                       &layer - layers_.data(), 0, spec.mvm_count());
    qas.push_back(nn::quantize_activations(x, /*bits=*/8));
    outs.emplace_back(
        std::vector<std::int64_t>{spec.out_channels, spec.out_height(),
                                  spec.out_width()});
  }

  // CONV: one MVM per output position (spec.mvm_count() per sample, as the
  // hardware model charges), the positions of all samples pushed kTile at a
  // time through one batched MVM per crossbar (integer or bit-serial
  // datapath). Integer sums are exact, so the results are bit-identical to
  // per-position MVMs.
  constexpr std::int64_t kTile = 96;
  const std::int64_t k = spec.kernel;
  const std::int64_t stride = spec.stride;
  const std::int64_t pad = spec.pad;
  const std::int64_t h = spec.in_height;
  const std::int64_t w = spec.in_width;
  const std::int64_t ow = spec.out_width();
  const std::int64_t plane = spec.out_height() * ow;
  const std::int64_t rows = spec.weight_rows();
  const std::int64_t cols = spec.weight_cols();
  // Output columns [lo[kj], hi[kj]) read inside the input row at kernel
  // column kj: 0 <= oj·stride + kj − pad < w.
  std::vector<std::int64_t> lo(static_cast<std::size_t>(k));
  std::vector<std::int64_t> hi(static_cast<std::size_t>(k));
  for (std::int64_t kj = 0; kj < k; ++kj) {
    const std::int64_t before = pad - kj;  // input columns left of the row
    lo[kj] = before > 0 ? (before + stride - 1) / stride : 0;
    hi[kj] = std::max<std::int64_t>(
        lo[kj], std::min(ow, (w + before + stride - 1) / stride));
  }
  // A tile holds spans, the positions [p, p + m) of one sample at tile
  // columns [t, t + m), and each span is cut into runs, the positions of
  // one output row: output columns [oj, oj + m) of row oi at tile column t.
  struct Span {
    std::size_t sample;
    std::int64_t p, m, t;
  };
  struct Run {
    const std::uint8_t* x;  // the sample's quantized activations
    std::int64_t oi, oj, m, t;
  };
  std::array<Span, kTile> spans;
  std::array<Run, kTile> runs;
  thread_local kernels::KernelScratch tile_scratch;
  const std::int64_t total = plane * static_cast<std::int64_t>(inputs.size());
  for (std::int64_t g0 = 0; g0 < total; g0 += kTile) {
    const std::int64_t n = std::min(kTile, total - g0);
    std::size_t span_count = 0;
    std::size_t run_count = 0;
    for (std::int64_t g = g0; g < g0 + n;) {
      const Span span{static_cast<std::size_t>(g / plane), g % plane,
                      std::min(plane - g % plane, g0 + n - g), g - g0};
      spans[span_count++] = span;
      for (std::int64_t q = 0; q < span.m;) {
        const std::int64_t p = span.p + q;
        const std::int64_t m = std::min(ow - p % ow, span.m - q);
        runs[run_count++] = {qas[span.sample].values.data(), p / ow, p % ow,
                             m, span.t + q};
        q += m;
      }
      g += span.m;
    }
    // The transposed im2col tile, cols_t[i·n + t] for weight row
    // i = (ch, ki, kj): each run is one strided (for stride 1, contiguous)
    // slice of one input row, zero-filled where it reads the padding.
    std::uint8_t* cols_t =
        tile_scratch.columns_t(static_cast<std::size_t>(n * rows));
    std::uint8_t* dst = cols_t;
    for (std::int64_t ch = 0; ch < spec.in_channels; ++ch) {
      for (std::int64_t ki = 0; ki < k; ++ki) {
        for (std::int64_t kj = 0; kj < k; ++kj, dst += n) {
          for (std::size_t r = 0; r < run_count; ++r) {
            const Run& run = runs[r];
            std::uint8_t* d = dst + run.t;
            const std::int64_t ii = run.oi * stride + ki - pad;
            const std::int64_t end = run.oj + run.m;
            const std::int64_t a =
                ii < 0 || ii >= h ? end : std::clamp(lo[kj], run.oj, end);
            const std::int64_t b = std::clamp(hi[kj], a, end);
            if (a > run.oj) {
              std::memset(d, 0, static_cast<std::size_t>(a - run.oj));
            }
            if (b > a) {
              const std::uint8_t* src =
                  run.x + (ch * h + ii) * w + a * stride + kj - pad;
              if (stride == 1) {
                std::memcpy(d + (a - run.oj), src,
                            static_cast<std::size_t>(b - a));
              } else {
                for (std::int64_t oj = a; oj < b; ++oj) {
                  d[oj - run.oj] = src[(oj - a) * stride];
                }
              }
            }
            if (end > b) {
              std::memset(d + (b - run.oj), 0,
                          static_cast<std::size_t>(end - b));
            }
          }
        }
      }
    }
    std::int32_t* accs_t =
        tile_scratch.accs_t(static_cast<std::size_t>(n * cols));
    layer.mvm_batch_into(
        cols_t, n, mode_,
        std::span(accs_t, static_cast<std::size_t>(n * cols)), tile_scratch);
    for (std::size_t i = 0; i < span_count; ++i) {
      const Span& span = spans[i];
      const float out_scale = layer.weight_scale() * qas[span.sample].scale;
      float* const o = outs[span.sample].data() + span.p;
      for (std::int64_t co = 0; co < cols; ++co) {
        const std::int32_t* a = accs_t + co * n + span.t;
        float* const op = o + co * plane;
        for (std::int64_t t = 0; t < span.m; ++t) {
          op[t] = static_cast<float>(a[t]) * out_scale;
        }
      }
    }
  }
  return outs;
}

std::vector<tensor::Tensor> SimulatedModel::run_mappable(
    const MappedLayer& layer, std::span<const tensor::Tensor> inputs) const {
  const nn::LayerSpec& spec = layer.spec();
  if (spec.type == nn::LayerType::kConv) return run_conv(layer, inputs);

  // FC: one MVM per sample over its own 8-bit activation quantization.
  const auto count = static_cast<std::int64_t>(inputs.size());
  const std::int64_t rows = spec.weight_rows();
  const std::int64_t cols = spec.weight_cols();
  OBS_PROFILE_RECORD(obs::ProfileKind::kFunctionalMvm,
                     &layer - layers_.data(), 0, count);
  std::vector<nn::QuantizedActivations> qas;
  qas.reserve(inputs.size());
  std::vector<tensor::Tensor> outs;
  outs.reserve(inputs.size());
  for (const tensor::Tensor& x : inputs) {
    qas.push_back(nn::quantize_activations(x.reshaped({x.numel()}),
                                           /*bits=*/8));
  }
  // All samples (a single sample is a batch of one) through one batched
  // MVM per crossbar, batch dimension innermost. Integer sums are exact and
  // each sample is scaled by its own out_scale afterwards, so this is bit
  // for bit the per-sample result.
  thread_local kernels::KernelScratch scratch;
  std::uint8_t* cols_t =
      scratch.columns_t(static_cast<std::size_t>(rows * count));
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t s = 0; s < count; ++s) {
      cols_t[r * count + s] =
          qas[static_cast<std::size_t>(s)].values[static_cast<std::size_t>(r)];
    }
  }
  std::int32_t* accs_t =
      scratch.accs_t(static_cast<std::size_t>(cols * count));
  layer.mvm_batch_into(
      cols_t, count, mode_,
      std::span(accs_t, static_cast<std::size_t>(cols * count)), scratch);
  for (std::int64_t s = 0; s < count; ++s) {
    const float out_scale =
        layer.weight_scale() * qas[static_cast<std::size_t>(s)].scale;
    tensor::Tensor out({spec.out_channels});
    for (std::int64_t j = 0; j < spec.out_channels; ++j) {
      out[j] = static_cast<float>(accs_t[s + j * count]) * out_scale;
    }
    outs.push_back(std::move(out));
  }
  return outs;
}

tensor::Tensor SimulatedModel::forward(const tensor::Tensor& input) const {
  return std::move(forward_batch(std::span(&input, 1)).front().output);
}

std::vector<SimulatedModel::ForwardTrace> SimulatedModel::forward_batch(
    std::span<const tensor::Tensor> inputs) const {
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
          v = run_mappable(layers_[mappable_idx++], *x[0]);
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

TrialFabricCache::Stats TrialFabricCache::stats() const {
  const auto ideal = ideal_.counts();
  return {ideal.builds, ideal.hits, 0, 0};
}

RobustnessReport monte_carlo_robustness(const nn::Model& model,
                                        const FaultConfig& faults,
                                        const RobustnessOptions& options) {
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
  TrialFabricCache* cache = options.cache;

  RobustnessReport report;
  report.trials_requested = requested;
  report.samples = options.samples;
  report.min_accuracy = 1.0;

  // The ideal fabric is the reference: agreement with it isolates device
  // non-ideality from the (always present) 8-bit quantization error. It is
  // layer-sized and unrecorded: it is no deployment. The references depend
  // on no fault knob, so a cache shares one build across a sweep's whole
  // rate × cell-bits grid.
  const auto build_refs = [&]() {
    TrialFabricCache::IdealRefs refs{
        SimulatedModel(model, DatapathMode::kInteger,
                       program_layers(model, layer_sized_shapes(model))),
        {},
        {}};
    const nn::LayerSpec& first = model.spec().layers.front();
    common::Rng img_rng(options.input_seed);
    refs.images.reserve(static_cast<std::size_t>(options.samples));
    for (int s = 0; s < options.samples; ++s) {
      refs.images.push_back(nn::synthetic_image(
          img_rng, first.in_channels, first.in_height, first.in_width));
    }
    refs.references = refs.ideal.forward_batch(refs.images);
    return refs;
  };
  const TrialFabricCache::WorkloadKey workload{
      model.identity(), options.samples, options.input_seed};
  const std::shared_ptr<const TrialFabricCache::IdealRefs> refs =
      cache != nullptr
          ? cache->ideal_refs(workload, build_refs)
          : std::make_shared<const TrialFabricCache::IdealRefs>(build_refs());
  const std::vector<tensor::Tensor>& images = refs->images;
  const std::vector<SimulatedModel::ForwardTrace>& references =
      refs->references;

  const std::size_t num_layers = refs->ideal.mapped_layers().size();
  report.layer_error.assign(num_layers, 0.0);
  // Each layer error is relative to the reference output's magnitude (at
  // least 1), one scale per (sample, layer) shared by every trial.
  std::vector<float> ref_scales;
  ref_scales.reserve(static_cast<std::size_t>(options.samples) * num_layers);
  for (const SimulatedModel::ForwardTrace& ref : references) {
    for (const tensor::Tensor& out : ref.mappable_outputs) {
      ref_scales.push_back(std::max(1.0f, out.abs_max()));
    }
  }

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
  };
  std::vector<TrialResult> trials(static_cast<std::size_t>(requested));
  for (auto& res : trials) {
    res.agree.assign(static_cast<std::size_t>(options.samples), 0);
    res.logit_err.resize(static_cast<std::size_t>(options.samples));
    res.layer_err.resize(static_cast<std::size_t>(options.samples) *
                         num_layers);
  }

  // Phase A body: build the faulty fabrics of trials [b0, b1) into
  // `fabrics`, setting each trial's stats. Every trial fabric is a clean
  // copy with the trial's faults burned in by MappedLayer::burn — its
  // (clone, crossbar) items spread over the pool — bit-identical to a fresh
  // build (a pure function of the seeds).
  const auto build_fabrics =
      [&](std::size_t b0, std::size_t b1, common::ThreadPool* pool,
          std::vector<std::optional<SimulatedModel>>& fabrics) {
        OBS_SPAN("fault_trial_build");
        std::vector<FaultConfig> configs;
        for (std::size_t t = b0; t < b1; ++t) {
          configs.push_back(faults.for_trial(static_cast<std::uint64_t>(t)));
        }
        std::vector<SimulatedModel> built =
            refs->ideal.with_faults(configs, pool);
        for (std::size_t t = b0; t < b1; ++t) {
          fabrics[t - b0].emplace(std::move(built[t - b0]));
          trials[t].stats = fabrics[t - b0]->fault_stats();
        }
      };

  // Phase B body: run one chunk of samples through an already-built trial
  // fabric. Each sample keeps its own result slots, so chunks of one trial
  // can run concurrently — and forward_batch is bit-identical to one-sample
  // forwards.
  const auto run_chunk = [&](const SimulatedModel& faulty, TrialResult& res,
                             int c) {
    const int s0 = c * kSampleChunk;
    const int s1 = std::min(options.samples, s0 + kSampleChunk);
    const auto traces = faulty.forward_batch(std::span(images).subspan(
        static_cast<std::size_t>(s0), static_cast<std::size_t>(s1 - s0)));
    for (int s = s0; s < s1; ++s) {
      const auto si = static_cast<std::size_t>(s);
      const auto& trace = traces[static_cast<std::size_t>(s - s0)];
      res.agree[si] = tensor::argmax(trace.output) ==
                      tensor::argmax(references[si].output);
      res.logit_err[si] =
          tensor::max_abs_diff(trace.output, references[si].output);
      for (std::size_t l = 0; l < num_layers; ++l) {
        res.layer_err[si * num_layers + l] =
            tensor::max_abs_diff(trace.mappable_outputs[l],
                                 references[si].mappable_outputs[l]) /
            ref_scales[si * num_layers + l];
      }
    }
  };

  int threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Trials run in blocks: phase A builds a block's trial fabrics, phase B
  // runs the block's flattened (trial, sample-chunk) items. Blocking bounds
  // peak fabric memory at one block of kBlockTrials (more with a larger
  // pool) instead of the whole budget.
  constexpr std::size_t kBlockTrials = 8;
  const bool parallel = threads > 1;
  const std::size_t workers = options.pool != nullptr
                                  ? options.pool->size()
                                  : static_cast<std::size_t>(threads);
  const std::size_t block = std::max(parallel ? workers : 1, kBlockTrials);
  const auto cpt = static_cast<std::size_t>(chunks_per_trial);
  // The parallel items of each phase in the first (largest) block: phase A
  // spreads (clone, layer) burn items — one crossbar per layer — and phase
  // B (trial, chunk) items. Each forward inside an item runs serially. A
  // pool only pays when a phase has two or more items, and a local one
  // never needs more workers than the larger phase has items.
  const std::size_t first_block =
      std::min(block, static_cast<std::size_t>(requested));
  const std::size_t items = first_block * std::max(num_layers, cpt);
  std::optional<common::ThreadPool> local_pool;
  common::ThreadPool* pool = nullptr;
  if (parallel && items >= 2) {
    pool = options.pool;
    if (pool == nullptr) {
      pool = &local_pool.emplace(
          std::min(static_cast<std::size_t>(threads), items));
    }
  }
  const auto run_trials = [&](std::size_t w0, std::size_t w1) {
    for (std::size_t b0 = w0; b0 < w1; b0 += block) {
      const std::size_t b1 = std::min(w1, b0 + block);
      std::vector<std::optional<SimulatedModel>> fabrics(b1 - b0);
      build_fabrics(b0, b1, pool, fabrics);
      common::parallel_for(pool, 0, (b1 - b0) * cpt, [&](std::size_t item) {
        OBS_SPAN("fault_trial_chunk");
        const std::size_t t = b0 + item / cpt;
        run_chunk(*fabrics[t - b0], trials[t], static_cast<int>(item % cpt));
      });
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
  // byte-identical across thread counts.
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
  return monte_carlo_robustness(model, checked(model, plan).accel.faults,
                                options);
}

}  // namespace autohet::reram
