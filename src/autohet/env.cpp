#include "autohet/env.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "mapping/layer_mapping.hpp"

namespace autohet::core {

CrossbarEnv::CrossbarEnv(std::vector<nn::LayerSpec> mappable_layers,
                         EnvConfig config)
    : layers_(std::move(mappable_layers)), config_(std::move(config)) {
  AUTOHET_CHECK(!layers_.empty(), "environment needs at least one layer");
  AUTOHET_CHECK(!config_.candidates.empty(),
                "environment needs at least one crossbar candidate");
  config_.accel.validate();
  for (const auto& layer : layers_) {
    AUTOHET_CHECK(nn::is_mappable(layer.type),
                  "environment layers must be CONV/FC");
    max_inc_ = std::max(max_inc_, static_cast<double>(layer.in_channels));
    max_outc_ = std::max(max_outc_, static_cast<double>(layer.out_channels));
    max_ks_ = std::max(max_ks_,
                       static_cast<double>(layer.kernel * layer.kernel));
    max_stride_ = std::max(max_stride_, static_cast<double>(layer.stride));
    max_weights_ =
        std::max(max_weights_, static_cast<double>(layer.weight_count()));
    max_ins_ = std::max(max_ins_, static_cast<double>(layer.input_size()));
  }
  engine_ = std::make_shared<reram::EvaluationEngine>(
      layers_, config_.candidates, config_.accel);
  // Calibrate against the largest candidate used homogeneously; any fixed
  // positive constant preserves the reward ordering. Routed through the
  // engine, which also warms the memo for the homogeneous sweeps.
  const auto largest_it =
      std::max_element(config_.candidates.begin(), config_.candidates.end());
  const auto largest_idx =
      static_cast<std::size_t>(largest_it - config_.candidates.begin());
  const reram::NetworkReport ref = engine_->evaluate(
      std::vector<std::size_t>(layers_.size(), largest_idx));
  energy_scale_nj_ = std::max(ref.energy.total_nj(), 1.0);
  area_scale_um2_ = std::max(ref.area.total_um2(), 1.0);
  latency_scale_ns_ = std::max(ref.latency_ns, 1.0);
}

std::vector<double> CrossbarEnv::state(std::size_t k, std::size_t prev_action,
                                       double prev_utilization) const {
  AUTOHET_CHECK(k < layers_.size(), "layer index out of range");
  AUTOHET_CHECK(prev_action < num_actions() || prev_action == 0,
                "previous action out of range");
  const nn::LayerSpec& layer = layers_[k];
  const double n = static_cast<double>(layers_.size());
  const double actions = static_cast<double>(num_actions());
  return {
      static_cast<double>(k) / n,                                   // k
      layer.type == nn::LayerType::kConv ? 1.0 : 0.0,               // t
      static_cast<double>(layer.in_channels) / max_inc_,            // inc
      static_cast<double>(layer.out_channels) / max_outc_,          // outc
      static_cast<double>(layer.kernel * layer.kernel) / max_ks_,   // ks
      static_cast<double>(layer.stride) / max_stride_,              // s
      static_cast<double>(layer.weight_count()) / max_weights_,     // w
      static_cast<double>(layer.input_size()) / max_ins_,           // ins
      actions > 1.0 ? static_cast<double>(prev_action) / (actions - 1.0)
                    : 0.0,                                          // a_k
      prev_utilization,                                             // u_k
  };
}

std::size_t CrossbarEnv::action_to_index(double action) const noexcept {
  const double clamped = std::clamp(action, 0.0, 1.0);
  const auto count = static_cast<double>(num_actions());
  auto idx = static_cast<std::size_t>(clamped * count);
  if (idx >= num_actions()) idx = num_actions() - 1;
  return idx;
}

double CrossbarEnv::layer_utilization(std::size_t k,
                                      std::size_t action_index) const {
  AUTOHET_CHECK(k < layers_.size(), "layer index out of range");
  AUTOHET_CHECK(action_index < num_actions(), "action index out of range");
  return mapping::map_layer(layers_[k], config_.candidates[action_index])
      .utilization();
}

reram::NetworkReport CrossbarEnv::evaluate(
    const std::vector<std::size_t>& action_indices) const {
  return engine_->evaluate(action_indices);
}

plan::DeploymentPlan CrossbarEnv::compile(
    const std::vector<std::size_t>& action_indices, std::string network) const {
  AUTOHET_CHECK(action_indices.size() == layers_.size(),
                "one action per layer required");
  std::vector<mapping::CrossbarShape> shapes;
  shapes.reserve(action_indices.size());
  for (std::size_t a : action_indices) {
    AUTOHET_CHECK(a < num_actions(), "action index out of range");
    shapes.push_back(config_.candidates[a]);
  }
  return plan::compile_plan(std::move(network), layers_, shapes,
                            config_.accel);
}

double CrossbarEnv::reward(const reram::NetworkReport& report,
                           const std::vector<std::size_t>& action_indices)
    const {
  if (config_.objective != RewardObjective::kRobustnessAware ||
      config_.mc_reward_model == nullptr || config_.accel.faults.ideal()) {
    return reward(report);
  }
  const double e = report.energy.total_nj();
  if (e <= 0.0) return 0.0;
  const double base = report.utilization / (e / energy_scale_nj_);
  const reram::RobustnessReport rob = engine_->evaluate_robustness_cached(
      *config_.mc_reward_model, action_indices, config_.accel.faults,
      default_search_mc_options());
  return base * rob.mean_accuracy;
}

double CrossbarEnv::reward(const reram::NetworkReport& report) const {
  const double e = report.energy.total_nj();
  if (e <= 0.0) return 0.0;
  const double base = report.utilization / (e / energy_scale_nj_);
  switch (config_.objective) {
    case RewardObjective::kUtilizationPerEnergy:
      return base;
    case RewardObjective::kAreaAware: {
      const double a = report.area.total_um2();
      return a > 0.0 ? base / (a / area_scale_um2_) : 0.0;
    }
    case RewardObjective::kLatencyAware: {
      const double t = report.latency_ns;
      return t > 0.0 ? base / (t / latency_scale_ns_) : 0.0;
    }
    case RewardObjective::kRobustnessAware: {
      const double v =
          std::clamp(report.fault_vulnerability, 0.0, 1.0);
      return base * (1.0 - v);
    }
  }
  return base;
}

}  // namespace autohet::core
