#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.hpp"
#include "mapping/layer_mapping.hpp"
#include "nn/quantize.hpp"
#include "tensor/ops.hpp"

namespace autohet::oracle {

namespace {

/// rows_used × cols_used of a row-major cell array with row stride `stride`.
struct CellView {
  const std::int8_t* cells;
  std::int64_t stride;
  std::int64_t rows;
  std::int64_t cols;
};

CellView view(const reram::LogicalCrossbar& xb) {
  return {xb.cells().data(), xb.cols_used(), xb.rows_used(), xb.cols_used()};
}

std::vector<std::int32_t> bit_serial(const CellView& v,
                                     std::span<const std::uint8_t> input) {
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == v.rows,
                "input length must equal rows_used");
  std::vector<std::int32_t> acc(static_cast<std::size_t>(v.cols), 0);
  for (int xb = 0; xb < 8; ++xb) {
    for (int wb = 0; wb < 8; ++wb) {
      const std::int64_t scale = (wb == 7) ? -(std::int64_t{1} << (xb + wb))
                                           : (std::int64_t{1} << (xb + wb));
      for (std::int64_t j = 0; j < v.cols; ++j) {
        std::int32_t bitline_sum = 0;
        for (std::int64_t i = 0; i < v.rows; ++i) {
          if (!((input[static_cast<std::size_t>(i)] >> xb) & 1u)) continue;
          const auto cell =
              static_cast<std::uint8_t>(v.cells[i * v.stride + j]);
          bitline_sum += static_cast<std::int32_t>((cell >> wb) & 1u);
        }
        acc[static_cast<std::size_t>(j)] +=
            static_cast<std::int32_t>(scale * bitline_sum);
      }
    }
  }
  return acc;
}

std::vector<std::int32_t> reference(const CellView& v,
                                    std::span<const std::uint8_t> input) {
  AUTOHET_CHECK(static_cast<std::int64_t>(input.size()) == v.rows,
                "input length must equal rows_used");
  std::vector<std::int32_t> acc(static_cast<std::size_t>(v.cols), 0);
  for (std::int64_t i = 0; i < v.rows; ++i) {
    const std::int32_t x = input[static_cast<std::size_t>(i)];
    if (x == 0) continue;  // a gated wordline adds nothing
    for (std::int64_t j = 0; j < v.cols; ++j) {
      acc[static_cast<std::size_t>(j)] +=
          x * static_cast<std::int32_t>(v.cells[i * v.stride + j]);
    }
  }
  return acc;
}

/// The vector unit's residual add: both operands on one symmetric 8-bit
/// grid, summed in int32, dequantized once.
tensor::Tensor residual_add(const tensor::Tensor& a, const tensor::Tensor& b) {
  tensor::Tensor out(a.shape());
  const float absmax = std::max(a.abs_max(), b.abs_max());
  if (absmax == 0.0f) return out;
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

double keyed_uniform(std::uint64_t seed, std::uint64_t layer, std::int64_t row,
                     std::int64_t col, unsigned slot) {
  constexpr std::uint64_t gamma = 0x9e3779b97f4a7c15ULL;
  const auto finalize = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const std::uint64_t base = finalize((seed ^ ((layer + 1) * gamma)) + gamma);
  const std::uint64_t counter = (static_cast<std::uint64_t>(row) << 32) +
                                (static_cast<std::uint64_t>(col) << 4) + slot;
  const std::uint64_t k = finalize(base + counter * gamma) >> 12;
  return (static_cast<double>(k) + 0.5) * 0x1.0p-52;
}

std::int8_t perturb_weight(const reram::FaultConfig& config,
                           std::int8_t weight, std::uint64_t seed,
                           std::uint64_t layer, std::int64_t row,
                           std::int64_t col, reram::FaultMapStats& stats) {
  const int b = config.cell_bits;
  const unsigned mask = (1u << b) - 1u;
  const double sigma = config.program_sigma;
  const auto offset = static_cast<unsigned>(static_cast<int>(weight) + 128);
  unsigned out = 0;
  for (int p = 0; p < 8 / b; ++p, ++stats.physical_cells) {
    const unsigned level = (offset >> (p * b)) & mask;
    unsigned burned = level;
    const double stuck = keyed_uniform(seed, layer, row, col,
                                       static_cast<unsigned>(p));
    if (stuck < config.stuck_at_zero_rate) {
      burned = 0;
      ++stats.stuck_at_zero;
    } else if (stuck < config.stuck_at_zero_rate + config.stuck_at_one_rate) {
      burned = mask;
      ++stats.stuck_at_one;
    } else if (sigma > 0.0 && level > 0) {  // HRS level 0 has nothing to vary
      const double u = keyed_uniform(seed, layer, row, col,
                                     8 + static_cast<unsigned>(p));
      // Φ of the Z at which L·exp(σZ) crosses j + ½, the top of j's
      // rounding interval.
      const auto upper = [&](unsigned j) {
        const double z = std::log((static_cast<double>(j) + 0.5) /
                                  static_cast<double>(level)) /
                         sigma;
        return 0.5 * std::erfc(-z / std::numbers::sqrt2);
      };
      burned = 0;
      while (burned < mask && u >= upper(burned)) ++burned;
    }
    out |= burned << (p * b);
  }
  const auto perturbed = static_cast<std::int8_t>(static_cast<int>(out) - 128);
  if (perturbed != weight) ++stats.weights_changed;
  return perturbed;
}

reram::FaultMapStats burn_reference(const reram::FaultConfig& config,
                                    std::span<std::int8_t> cells,
                                    std::int64_t rows, std::int64_t cols,
                                    std::int64_t row_stride,
                                    const reram::BurnKey& key) {
  config.validate();
  reram::FaultMapStats stats;
  if (config.ideal()) return stats;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int8_t* row = cells.data() + r * row_stride;
    for (std::int64_t c = 0; c < cols; ++c) {
      row[c] = perturb_weight(config, row[c], key.seed, key.layer,
                              key.row0 + r, key.col0 + c, stats);
    }
  }
  return stats;
}

nn::QuantizedActivations quantize_activations(const tensor::Tensor& t,
                                              int bits) {
  AUTOHET_CHECK(bits >= 2 && bits <= 8, "activation bits must be in [2, 8]");
  nn::QuantizedActivations q;
  q.shape = t.shape();
  q.bits = bits;
  const float qmax = static_cast<float>((1 << bits) - 1);
  float vmax = 0.0f;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    AUTOHET_CHECK(t[i] >= 0.0f, "activation quantization expects x >= 0");
    vmax = std::max(vmax, t[i]);
  }
  q.scale = (vmax > 0.0f) ? vmax / qmax : 1.0f;
  q.values.resize(static_cast<std::size_t>(t.numel()));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float clamped = std::clamp(std::round(t[i] / q.scale), 0.0f, qmax);
    q.values[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(clamped);
  }
  return q;
}

namespace {
template <typename Reduce>
tensor::Tensor pool2d(const tensor::Tensor& input, std::int64_t window,
                      std::int64_t stride, float init, Reduce reduce,
                      bool average) {
  AUTOHET_CHECK(input.rank() == 3, "pool expects CHW input");
  const std::int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t out_h = (h - window) / stride + 1;
  const std::int64_t out_w = (w - window) / stride + 1;
  tensor::Tensor out({c, out_h, out_w});
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t oi = 0; oi < out_h; ++oi) {
      for (std::int64_t oj = 0; oj < out_w; ++oj) {
        float acc = init;
        for (std::int64_t ki = 0; ki < window; ++ki) {
          for (std::int64_t kj = 0; kj < window; ++kj) {
            acc = reduce(acc, input.at(ch, oi * stride + ki, oj * stride + kj));
          }
        }
        if (average) acc /= static_cast<float>(window * window);
        out.at(ch, oi, oj) = acc;
      }
    }
  }
  return out;
}
}  // namespace

tensor::Tensor maxpool2d(const tensor::Tensor& input, std::int64_t window,
                         std::int64_t stride) {
  return pool2d(
      input, window, stride, -std::numeric_limits<float>::infinity(),
      [](float a, float b) { return std::max(a, b); }, /*average=*/false);
}

tensor::Tensor avgpool2d(const tensor::Tensor& input, std::int64_t window,
                         std::int64_t stride) {
  return pool2d(
      input, window, stride, 0.0f, [](float a, float b) { return a + b; },
      /*average=*/true);
}

std::vector<std::int32_t> mvm_bit_serial_scalar(
    const reram::LogicalCrossbar& xb, std::span<const std::uint8_t> input) {
  return bit_serial(view(xb), input);
}

std::vector<std::int32_t> mvm_reference_scalar(
    const reram::LogicalCrossbar& xb, std::span<const std::uint8_t> input) {
  return reference(view(xb), input);
}

Fabric::Fabric(const nn::Model& model,
               const std::vector<mapping::CrossbarShape>& shapes,
               reram::DatapathMode mode, const reram::FaultConfig& faults)
    : model_(&model), mode_(mode) {
  const auto mappable = model.spec().mappable_layers();
  AUTOHET_CHECK(shapes.size() == mappable.size(),
                "one crossbar shape per mappable layer required");
  for (std::size_t l = 0; l < mappable.size(); ++l) {
    const nn::LayerSpec& spec = mappable[l];
    const mapping::LayerMapping m = mapping::map_layer(spec, shapes[l]);
    const std::int64_t k2 = spec.kernel * spec.kernel;
    const std::int64_t wrows = spec.weight_rows();
    const std::int64_t wcols = spec.weight_cols();
    // [Cout, Cin·k²] quantized once per layer; the crossbar holds it
    // transposed (unfolded input rows × output channels).
    const nn::QuantizedWeights qw =
        nn::quantize_weights(model.weight(l).reshaped({wcols, wrows}), 8);
    Layer layer;
    layer.shape = shapes[l];
    layer.weight_scale = qw.scale;
    layer.weight_cols = wcols;
    layer.col_blocks = m.col_blocks;
    for (std::int64_t rb = 0; rb < m.row_blocks; ++rb) {
      if (m.split_kernel) {
        const std::int64_t r0 = rb * shapes[l].rows;
        layer.row_ranges.emplace_back(r0, std::min(wrows, r0 + shapes[l].rows));
      } else {
        const std::int64_t ch0 = rb * m.kernels_per_row_block;
        const std::int64_t ch1 =
            std::min(spec.in_channels, ch0 + m.kernels_per_row_block);
        layer.row_ranges.emplace_back(ch0 * k2, ch1 * k2);
      }
      const auto [r0, r1] = layer.row_ranges.back();
      for (std::int64_t cb = 0; cb < m.col_blocks; ++cb) {
        const std::int64_t c0 = cb * shapes[l].cols;
        const std::int64_t c1 = std::min(wcols, c0 + shapes[l].cols);
        Crossbar xb{r1 - r0, c1 - c0,
                    std::vector<std::int8_t>(
                        static_cast<std::size_t>(shapes[l].cells()), 0)};
        for (std::int64_t r = r0; r < r1; ++r) {
          for (std::int64_t c = c0; c < c1; ++c) {
            xb.cells[static_cast<std::size_t>((r - r0) * shapes[l].cols +
                                              (c - c0))] =
                qw.values[static_cast<std::size_t>(c * wrows + r)];
          }
        }
        // The programmed block burns; the empty cells are never read.
        stats_ += burn_reference(faults, xb.cells, r1 - r0, c1 - c0,
                                 shapes[l].cols, {faults.seed, l, r0, c0});
        layer.crossbars.push_back(std::move(xb));
      }
    }
    layers_.push_back(std::move(layer));
  }
}

std::vector<std::int32_t> Fabric::mvm(
    const Layer& layer, std::span<const std::uint8_t> column) const {
  std::vector<std::int32_t> out(static_cast<std::size_t>(layer.weight_cols));
  std::size_t index = 0;  // crossbars are stored [rb · col_blocks + cb]
  for (const auto& [r0, r1] : layer.row_ranges) {
    const auto slice = column.subspan(static_cast<std::size_t>(r0),
                                      static_cast<std::size_t>(r1 - r0));
    for (std::int64_t cb = 0; cb < layer.col_blocks; ++cb) {
      const Crossbar& xb = layer.crossbars[index++];
      const CellView v{xb.cells.data(), layer.shape.cols, xb.rows_used,
                       xb.cols_used};
      const std::vector<std::int32_t> partial =
          mode_ == reram::DatapathMode::kBitSerial ? bit_serial(v, slice)
                                                   : reference(v, slice);
      const auto c0 = static_cast<std::size_t>(cb * layer.shape.cols);
      for (std::size_t j = 0; j < partial.size(); ++j) out[c0 + j] += partial[j];
    }
  }
  return out;
}

tensor::Tensor Fabric::run(const Layer& layer, const nn::LayerSpec& spec,
                           const tensor::Tensor& input) const {
  if (spec.type != nn::LayerType::kConv) {
    const nn::QuantizedActivations qa =
        quantize_activations(input.reshaped({input.numel()}), 8);
    const float out_scale = layer.weight_scale * qa.scale;
    const std::vector<std::int32_t> acc = mvm(layer, qa.values);
    tensor::Tensor out({spec.out_channels});
    for (std::int64_t j = 0; j < spec.out_channels; ++j) {
      out[j] = static_cast<float>(acc[static_cast<std::size_t>(j)]) * out_scale;
    }
    return out;
  }
  const nn::QuantizedActivations qa = quantize_activations(input, 8);
  const float out_scale = layer.weight_scale * qa.scale;
  const std::int64_t k = spec.kernel;
  const std::int64_t h = spec.in_height;
  const std::int64_t w = spec.in_width;
  const std::int64_t oh = spec.out_height();
  const std::int64_t ow = spec.out_width();
  tensor::Tensor out({spec.out_channels, oh, ow});
  std::vector<std::uint8_t> column(static_cast<std::size_t>(spec.weight_rows()));
  for (std::int64_t oi = 0; oi < oh; ++oi) {
    for (std::int64_t oj = 0; oj < ow; ++oj) {
      // im2col: channel-major, then kernel row, then kernel column; zero
      // padding outside the input plane.
      std::size_t row = 0;
      for (std::int64_t ch = 0; ch < spec.in_channels; ++ch) {
        for (std::int64_t ki = 0; ki < k; ++ki) {
          for (std::int64_t kj = 0; kj < k; ++kj) {
            const std::int64_t ii = oi * spec.stride - spec.pad + ki;
            const std::int64_t jj = oj * spec.stride - spec.pad + kj;
            column[row++] = (ii >= 0 && ii < h && jj >= 0 && jj < w)
                                ? qa.values[static_cast<std::size_t>(
                                      (ch * h + ii) * w + jj)]
                                : std::uint8_t{0};
          }
        }
      }
      const std::vector<std::int32_t> acc = mvm(layer, column);
      for (std::int64_t co = 0; co < spec.out_channels; ++co) {
        out[(co * oh + oi) * ow + oj] =
            static_cast<float>(acc[static_cast<std::size_t>(co)]) * out_scale;
      }
    }
  }
  return out;
}

reram::SimulatedModel::ForwardTrace Fabric::forward(
    const tensor::Tensor& input) const {
  reram::SimulatedModel::ForwardTrace trace;
  std::size_t mappable = 0;
  trace.output = nn::execute<tensor::Tensor>(
      model_->graph(),
      [&](const nn::GraphNode& node, std::size_t /*layer*/,
          std::span<const tensor::Tensor* const> x) -> tensor::Tensor {
        tensor::Tensor v;
        switch (node.kind) {
          case nn::OpKind::kInput:
            v = input;
            break;
          case nn::OpKind::kLayer:
            if (nn::is_mappable(node)) {
              v = run(layers_[mappable++], node.layer, *x[0]);
              trace.mappable_outputs.push_back(v);
            } else {  // the pooling module
              const auto pool = node.layer.type == nn::LayerType::kMaxPool
                                    ? maxpool2d
                                    : avgpool2d;
              v = pool(*x[0], node.layer.kernel, node.layer.stride);
            }
            break;
          case nn::OpKind::kResidualAdd:
            v = residual_add(*x[0], *x[1]);
            break;
          case nn::OpKind::kGlobalAvgPool:
            v = tensor::global_avg_pool(*x[0]);
            break;
          case nn::OpKind::kConcat:
            v = tensor::concat_channels(x);
            break;
          case nn::OpKind::kActivation:
            v = *x[0];
            break;
        }
        if (node.kind == nn::OpKind::kActivation ||
            (node.kind == nn::OpKind::kLayer && node.layer.relu_after)) {
          tensor::relu_inplace(v);
        }
        return v;
      });
  return trace;
}

reram::RobustnessReport monte_carlo_robustness(
    const nn::Model& model, const std::vector<mapping::CrossbarShape>& shapes,
    const reram::FaultConfig& faults,
    const reram::RobustnessOptions& options) {
  AUTOHET_CHECK(options.budget.mode == reram::RobustnessBudget::Mode::kFixed,
                "the oracle Monte-Carlo runs a fixed budget");
  AUTOHET_CHECK(options.trials > 0 && options.samples > 0,
                "robustness needs at least one trial and one sample");
  const auto samples = static_cast<std::size_t>(options.samples);
  const Fabric ideal(model, shapes, reram::DatapathMode::kInteger);
  const nn::LayerSpec& first = model.spec().layers.front();
  common::Rng img_rng(options.input_seed);
  std::vector<tensor::Tensor> images;
  std::vector<reram::SimulatedModel::ForwardTrace> refs;
  for (std::size_t s = 0; s < samples; ++s) {
    images.push_back(nn::synthetic_image(img_rng, first.in_channels,
                                         first.in_height, first.in_width));
    refs.push_back(ideal.forward(images.back()));
  }
  const std::size_t num_layers = refs.front().mappable_outputs.size();

  reram::RobustnessReport report;
  report.trials = options.trials;
  report.trials_requested = options.trials;
  report.samples = options.samples;
  report.min_accuracy = 1.0;
  report.layer_error.assign(num_layers, 0.0);
  reram::SequentialStopper stopper(options.budget, options.trials);
  double acc_sum = 0.0;
  double acc_sq_sum = 0.0;
  double logit_err_sum = 0.0;
  for (int t = 0; t < options.trials; ++t) {
    const Fabric faulty(model, shapes, reram::DatapathMode::kInteger,
                        faults.for_trial(static_cast<std::uint64_t>(t)));
    report.fault_stats += faulty.fault_stats();
    int agree = 0;
    for (std::size_t s = 0; s < samples; ++s) {
      const reram::SimulatedModel::ForwardTrace trace =
          faulty.forward(images[s]);
      agree += tensor::argmax(trace.output) == tensor::argmax(refs[s].output);
      logit_err_sum += tensor::max_abs_diff(trace.output, refs[s].output);
      for (std::size_t l = 0; l < num_layers; ++l) {
        const float ref_scale =
            std::max(1.0f, refs[s].mappable_outputs[l].abs_max());
        report.layer_error[l] += tensor::max_abs_diff(
                                     trace.mappable_outputs[l],
                                     refs[s].mappable_outputs[l]) /
                                 ref_scale;
      }
    }
    stopper.add_trial(agree, options.samples);
    const double accuracy =
        static_cast<double>(agree) / static_cast<double>(options.samples);
    acc_sum += accuracy;
    acc_sq_sum += accuracy * accuracy;
    report.min_accuracy = std::min(report.min_accuracy, accuracy);
    report.max_accuracy = std::max(report.max_accuracy, accuracy);
  }
  const reram::WilsonInterval ci = stopper.interval();
  report.accuracy_ci_lower = ci.lower;
  report.accuracy_ci_upper = ci.upper;
  const double n = static_cast<double>(options.trials);
  report.mean_accuracy = acc_sum / n;
  report.stddev_accuracy = std::sqrt(std::max(
      0.0, acc_sq_sum / n - report.mean_accuracy * report.mean_accuracy));
  report.mean_logit_error =
      logit_err_sum / (n * static_cast<double>(options.samples));
  for (double& e : report.layer_error) {
    e /= n * static_cast<double>(options.samples);
  }
  return report;
}

namespace {
/// Start of affine layer l's parameter block (weights, then biases).
std::size_t layer_offset(const std::vector<int>& sizes, std::size_t l) {
  std::size_t offset = 0;
  for (std::size_t i = 0; i < l; ++i) {
    offset += static_cast<std::size_t>(sizes[i + 1]) *
                  static_cast<std::size_t>(sizes[i]) +
              static_cast<std::size_t>(sizes[i + 1]);
  }
  return offset;
}
}  // namespace

std::vector<std::vector<double>> MlpReference::forward(
    const rl::Mlp& net, std::span<const double> input) const {
  AUTOHET_CHECK(static_cast<int>(input.size()) == sizes.front(),
                "MLP input size mismatch");
  std::vector<std::vector<double>> post;
  post.emplace_back(input.begin(), input.end());
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    const std::vector<double>& x = post.back();
    const int in = sizes[l];
    const int out = sizes[l + 1];
    const double* w = net.params().data() + layer_offset(sizes, l);
    const double* b = w + static_cast<std::size_t>(out) * in;
    std::vector<double> y(static_cast<std::size_t>(out));
    for (int o = 0; o < out; ++o) {
      double acc = b[o];
      const double* wrow = w + static_cast<std::size_t>(o) * in;
      for (int i = 0; i < in; ++i) {
        acc += wrow[i] * x[static_cast<std::size_t>(i)];
      }
      y[static_cast<std::size_t>(o)] = rl::apply_activation(activations[l], acc);
    }
    post.push_back(std::move(y));
  }
  return post;
}

std::vector<double> MlpReference::backward(
    rl::Mlp& net, const std::vector<std::vector<double>>& post,
    std::span<const double> grad_output) const {
  AUTOHET_CHECK(post.size() == sizes.size(),
                "cache does not match network depth");
  AUTOHET_CHECK(static_cast<int>(grad_output.size()) == sizes.back(),
                "grad_output size mismatch");
  std::vector<double> delta(grad_output.begin(), grad_output.end());
  for (std::size_t l = sizes.size() - 1; l-- > 0;) {
    const int in = sizes[l];
    const int out = sizes[l + 1];
    const std::vector<double>& y = post[l + 1];
    const std::vector<double>& x = post[l];
    // Through the activation: delta ← delta ⊙ f'(y).
    for (int o = 0; o < out; ++o) {
      delta[static_cast<std::size_t>(o)] *= rl::activation_grad_from_output(
          activations[l], y[static_cast<std::size_t>(o)]);
    }
    const std::size_t offset = layer_offset(sizes, l);
    const double* w = net.params().data() + offset;
    double* gw = net.grads().data() + offset;
    double* gb = gw + static_cast<std::size_t>(out) * in;
    std::vector<double> next_delta(static_cast<std::size_t>(in), 0.0);
    for (int o = 0; o < out; ++o) {
      const double d = delta[static_cast<std::size_t>(o)];
      gb[o] += d;
      double* gwrow = gw + static_cast<std::size_t>(o) * in;
      const double* wrow = w + static_cast<std::size_t>(o) * in;
      for (int i = 0; i < in; ++i) {
        gwrow[i] += d * x[static_cast<std::size_t>(i)];
        next_delta[static_cast<std::size_t>(i)] += d * wrow[i];
      }
    }
    delta = std::move(next_delta);
  }
  return delta;
}

}  // namespace autohet::oracle
