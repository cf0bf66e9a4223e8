// Functional execution of a DNN on the simulated crossbar fabric.
//
// MappedLayer programs a layer's quantized weights into a grid of logical
// crossbars following the paper's kernel-aligned mapping (Fig. 7): row block
// `rb` holds floor(r/k²) whole kernels per column, column block `cb` holds a
// c-wide slice of the output channels. SimulatedModel then runs a whole
// network forward pass where every CONV/FC MVM goes through the crossbars
// (bit-serial or integer datapath — bit-exact to each other), with
// activations quantized to 8 bits per layer, exactly the datapath the
// accelerator implements. Pooling layers run on the tile's pooling module
// (plain float here).
//
// There is one datapath per operation: every MVM, a single column included,
// is one batched call per crossbar through the dispatched kernels, and
// every fault burn-in is one keyed loop over the programmed cells
// (FaultModel::burn). The scalar per-cell
// implementations these are tested against — MVMs, burn-in, a network
// forward and a serial Monte-Carlo — live in the oracle library
// tests/oracle.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "mapping/layer_mapping.hpp"
#include "mapping/plan.hpp"
#include "nn/model.hpp"
#include "nn/quantize.hpp"
#include "reram/crossbar.hpp"
#include "reram/memo.hpp"
#include "tensor/tensor.hpp"

namespace autohet::reram {

enum class DatapathMode {
  kBitSerial,  ///< faithful 1-bit-DAC / 1-bit-cell shift-add datapath
  kInteger     ///< int32 GEMV shortcut (bit-exact to kBitSerial)
};

class MappedLayer {
 public:
  /// Quantizes `weight` ([Cout,Cin,k,k] or [out,in]) to 8 bits and programs
  /// it, clean, across crossbars of the given shape. `layer_id` (the
  /// mappable-layer index) keys the layer's fault draws. Faults enter only
  /// through burn().
  MappedLayer(const nn::LayerSpec& spec, const tensor::Tensor& weight,
              const mapping::CrossbarShape& shape,
              std::uint64_t layer_id = 0);

  const mapping::LayerMapping& mapping() const noexcept { return mapping_; }
  /// The crossbar grid, row-major: [rb · col_blocks + cb].
  std::span<const LogicalCrossbar> crossbars() const noexcept {
    return crossbars_;
  }
  float weight_scale() const noexcept { return weight_scale_; }
  const nn::LayerSpec& spec() const noexcept { return spec_; }

  /// Batched MVM over `count` input columns in transposed layout:
  /// columns_t is weight_rows() × count row-major (input row i for every
  /// column at columns_t[i·count ..]); accs_t is weight_cols() × count
  /// (output col j for every column at accs_t[j·count ..], zero-filled
  /// here). The batch dimension is innermost and contiguous, so the kernel
  /// vectorizes even on narrow crossbars; a single column is count = 1.
  /// Supports the integer datapath (batched GEMM kernel) and the bit-serial
  /// datapath (all samples' packed input planes pushed through one
  /// dispatched AND+popcount kernel; requires prepare_packed()). Integer
  /// sums are exact — results are bit-identical to per-column MVMs.
  void mvm_batch_into(const std::uint8_t* columns_t, std::int64_t count,
                      DatapathMode mode, std::span<std::int32_t> accs_t,
                      kernels::KernelScratch& scratch) const;

  /// Packs every crossbar's weight bit planes (idempotent) so bit-serial
  /// MVMs take the AND+popcount kernel.
  void prepare_packed();

  /// One clone to burn: a copy of a clean layer and its trial's seed.
  struct BurnJob {
    MappedLayer* layer = nullptr;
    std::uint64_t seed = 0;
  };

  /// The one fault burn-in: burns `faults` into each job's clean clone
  /// under the job's seed. Each crossbar burns its programmed block, keyed
  /// by (seed, layer id, weight row, weight col, plane) — see FaultModel —
  /// so the burned logical weights do not depend on the crossbar shape.
  /// `pool`, when given, spreads the (clone, crossbar) items, largest block
  /// first.
  static void burn(const FaultModel& faults, std::span<const BurnJob> jobs,
                   common::ThreadPool* pool = nullptr);

  /// Stuck-at / variation counts burned in (all zero on a clean layer).
  const FaultMapStats& fault_stats() const noexcept { return fault_stats_; }

 private:
  nn::LayerSpec spec_;
  mapping::LayerMapping mapping_;
  float weight_scale_ = 1.0f;
  std::uint64_t layer_id_ = 0;
  // Crossbar grid, row-major: crossbars_[rb * col_blocks + cb].
  std::vector<LogicalCrossbar> crossbars_;
  // Channel range [start, end) of each row block (kernel-aligned path) or
  // row range (split path).
  std::vector<std::pair<std::int64_t, std::int64_t>> row_ranges_;
  FaultMapStats fault_stats_;
};

struct RobustnessOptions;

/// Whole-network functional simulation on the heterogeneous fabric.
class SimulatedModel {
 public:
  /// `shapes` assigns a crossbar shape to each mappable layer (same order
  /// as NetworkSpec::mappable_layers()). This constructor and the plan one
  /// are deployments: they record each crossbar's cell writes
  /// (obs::ProfileKind::kProgramWrite). A non-ideal `faults` config runs
  /// the whole network on a faulty fabric: the layers are programmed clean
  /// and the stuck-at maps and programming variation burned in by
  /// MappedLayer::burn. The default ideal config is bit-identical to the
  /// fault-free fabric.
  SimulatedModel(const nn::Model& model,
                 const std::vector<mapping::CrossbarShape>& shapes,
                 DatapathMode mode = DatapathMode::kInteger,
                 const FaultConfig& faults = {});

  /// Builds the fabric from a compiled DeploymentPlan: each mappable layer
  /// is programmed onto the plan's crossbar shape under the plan's
  /// FaultConfig (`plan.accel.faults`). The plan is validated against the
  /// model first — which pins its frozen per-layer geometry to exactly what
  /// those shapes map to — and a graph (v2) plan must carry exactly
  /// model.graph(). Bit-identical to the shape-list constructor on the
  /// inputs the plan was compiled from.
  SimulatedModel(const nn::Model& model, const plan::DeploymentPlan& plan,
                 DatapathMode mode = DatapathMode::kInteger);

  /// Clones this (clean) fabric and burns `faults` into the copy — the
  /// quantization and weight-programming work is reused, only the fault
  /// burn-in runs. Bit-identical to constructing a fresh SimulatedModel
  /// with the same faults: both burn a clean copy through MappedLayer::burn.
  /// Requires an ideal fabric.
  SimulatedModel with_faults(const FaultConfig& faults) const;

  /// Batched with_faults over the trials of one point: one fabric per
  /// config, each bit-identical to with_faults(faults[i]). The configs may
  /// differ only in seed (FaultConfig::for_trial of one point); their
  /// (clone, crossbar) burn items spread over `pool` when given. The
  /// single-config with_faults is this with one config.
  std::vector<SimulatedModel> with_faults(
      std::span<const FaultConfig> faults,
      common::ThreadPool* pool = nullptr) const;

  /// One sample's forward result: the network output plus each mappable
  /// layer's raw (pre-activation) output — the per-layer hooks the
  /// robustness metric compares against an ideal fabric to attribute
  /// fault-induced error to layers.
  struct ForwardTrace {
    tensor::Tensor output;
    std::vector<tensor::Tensor> mappable_outputs;
  };

  /// Runs the model's graph on the fabric for a batch of CHW inputs.
  /// Concurrent calls on one instance are safe.
  ///
  /// Mappable nodes run on their MappedLayer, FC layers as one batched MVM
  /// across the samples and conv layers with the output positions of all
  /// samples in shared tiles; pooling nodes run on the tile's pooling
  /// module; residual adds run on the vector unit in exact integer
  /// arithmetic (both operands on one symmetric 8-bit grid, summed in
  /// int32, dequantized once). Integer sums are exact, so every result is
  /// bit-identical to running each sample alone.
  std::vector<ForwardTrace> forward_batch(
      std::span<const tensor::Tensor> inputs) const;

  /// Output of forward_batch over the single sample `input`.
  tensor::Tensor forward(const tensor::Tensor& input) const;

  const std::vector<MappedLayer>& mapped_layers() const noexcept {
    return layers_;
  }

  /// Aggregate stuck-at / variation counts over all layers (zero when the
  /// fabric is ideal).
  FaultMapStats fault_stats() const noexcept;

 private:
  /// A fabric of `layers` (layer i programmed from the model's mappable
  /// layer i with layer id i) under the ideal fault model, unpacked until
  /// burn() packs it. Records no programming: the Monte-Carlo builds its
  /// layer-sized reference here.
  SimulatedModel(const nn::Model& model, DatapathMode mode,
                 std::vector<MappedLayer> layers);
  friend RobustnessReport monte_carlo_robustness(const nn::Model&,
                                                 const FaultConfig&,
                                                 const RobustnessOptions&);

  /// Burns faults[i] into fabrics[i] — clean fabrics of one model and
  /// allocation — in one MappedLayer::burn over all their layers, then
  /// packs the bit-serial fabrics.
  static void burn(std::span<SimulatedModel> fabrics,
                   std::span<const FaultConfig> faults,
                   common::ThreadPool* pool);
  /// One mappable layer over a batch: convs through run_conv; FC layers
  /// take one batched MVM over all samples (one sample is a batch of one).
  std::vector<tensor::Tensor> run_mappable(
      const MappedLayer& layer, std::span<const tensor::Tensor> inputs) const;
  /// A conv layer over a batch: the output positions of all samples in
  /// batched tiles, each tile's im2col written transposed straight from the
  /// samples' quantized activations (each sample keeps its own scale).
  std::vector<tensor::Tensor> run_conv(
      const MappedLayer& layer, std::span<const tensor::Tensor> inputs) const;

  const nn::Model* model_;
  DatapathMode mode_;
  FaultConfig faults_;  ///< burned in; ideal for a clean fabric
  std::vector<MappedLayer> layers_;  // one per mappable layer
};

/// The float model a functional replay of `plan` runs: weights drawn from
/// seed 3 over the plan's graph (v2) or its zoo network (v1), which must be
/// sequentially runnable. CLI replay/profile and functional serving build
/// their models here.
nn::Model replay_model(const plan::DeploymentPlan& plan);

/// Monte-Carlo reference cache: the ideal layer-sized fabric, its synthetic
/// inputs and traced reference outputs of one workload. They depend on no
/// fault knob and no allocation, so one build serves a sweep's whole
/// allocation × rate × cell-bits grid. Trial fabrics are not cached: a
/// keyed burn of a clean copy is cheaper than keeping them. Thread-safe;
/// holds one workload at a time (a new WorkloadKey drops the previous
/// references).
class TrialFabricCache {
 public:
  /// Everything that identifies one MC workload besides the fault config.
  struct WorkloadKey {
    std::uint64_t model = 0;  ///< nn::Model::identity()
    int samples = 0;
    std::uint64_t input_seed = 0;
    bool operator==(const WorkloadKey&) const = default;
  };

  /// Per-workload ideal references: the clean fabric, the synthetic inputs
  /// and their traced reference outputs.
  struct IdealRefs {
    SimulatedModel ideal;
    std::vector<tensor::Tensor> images;
    std::vector<SimulatedModel::ForwardTrace> references;
  };

  /// Returns the ideal-reference slot for `key`, building it via `build` on
  /// first use of this workload (a different key evicts the previous one).
  std::shared_ptr<const IdealRefs> ideal_refs(
      const WorkloadKey& key, const std::function<IdealRefs()>& build);

  struct Stats {
    std::uint64_t ideal_builds = 0;
    std::uint64_t ideal_hits = 0;
    /// Always 0: trial fabrics are no longer recorded or replayed. Kept
    /// until the benchmark harness that reads them is re-frozen (ROADMAP
    /// item 11).
    std::uint64_t trial_records = 0;
    std::uint64_t trial_replays = 0;
  };
  Stats stats() const;

 private:
  SlotStore<WorkloadKey, IdealRefs> ideal_{1};
};

/// Empty compile shim for the frozen benchmark harness, which still builds
/// one, passes it as RobustnessOptions::layer_cache and reads its stats.
/// Nothing is cached and both counters read 0. Leaves with ROADMAP item 11.
class LayerFabricCache {
 public:
  struct Stats {
    std::uint64_t builds = 0;
    std::uint64_t hits = 0;
  };
  Stats stats() const { return {}; }
};

/// Knobs of the Monte-Carlo robustness evaluation.
struct RobustnessOptions {
  int trials = 8;    ///< independent fault-map seeds
  int samples = 16;  ///< synthetic inputs evaluated per trial
  /// Trial budget (reram/faults.hpp). The default kFixed runs exactly
  /// `trials` — byte-identical reports. kAdaptive runs the same seeded
  /// trial stream but stops at the first chunk boundary where the pooled
  /// agreement's Wilson CI half-width meets `budget.ci_halfwidth`
  /// (`trials` caps the spend unless budget.max_trials overrides it).
  RobustnessBudget budget;
  std::uint64_t input_seed = 0x1a9e5ULL;
  /// Worker threads for the trial fan-out: 1 = serial (default), 0 = one
  /// per hardware thread, n > 1 = up to n. Every thread count produces
  /// byte-identical reports (trials are independently seeded and the
  /// reduction replays the serial accumulation order).
  int threads = 1;
  /// Optional cross-call reference cache. When set, the ideal references
  /// are shared across calls. Reports stay byte-identical to the uncached
  /// path (tested).
  /// EvaluationEngine::evaluate_robustness supplies its own cache
  /// automatically.
  TrialFabricCache* cache = nullptr;
  /// Ignored (see LayerFabricCache): kept only so the frozen benchmark
  /// harness still compiles. Leaves with ROADMAP item 11.
  LayerFabricCache* layer_cache = nullptr;
  /// Optional externally owned worker pool for the parallel fan-out. When
  /// null and threads > 1, a pool of up to `threads` workers is created for
  /// the call if a phase has two or more items to spread (sized to the
  /// larger phase's item count); when set, `pool` is used as-is (its size
  /// wins over `threads` for actual concurrency — `threads` still gates
  /// whether the parallel path is taken at all). EvaluationEngine passes
  /// its shared pool so MC calls don't re-spawn workers. Reports stay
  /// byte-identical either way.
  common::ThreadPool* pool = nullptr;
};

/// Accuracy-under-faults over N seeded trials: for each trial a fresh
/// faulty fabric (fault seed = faults.for_trial(t)) classifies `samples`
/// synthetic inputs; accuracy is argmax agreement with the *ideal* fabric
/// (isolating device non-ideality from quantization). Reports mean/stddev
/// across trials plus each layer's mean relative output error.
/// Deterministic: same model, faults and options ⇒ same report, regardless
/// of options.threads and options.pool.
///
/// Robustness is a property of the workload and the device, not of an
/// allocation: the keyed burn draws per logical weight and both datapaths
/// sum exactly, so every allocation's faulty fabric computes the same
/// function (ShapeInvariance.* pins the crossbar datapath against this
/// report). Each trial fabric therefore holds one crossbar per mappable
/// layer, a block of the layer's own weight_rows × weight_cols, on the
/// integer datapath.
RobustnessReport monte_carlo_robustness(const nn::Model& model,
                                        const FaultConfig& faults,
                                        const RobustnessOptions& options = {});

/// Plan-based robustness MC: the plan (and its graph) is validated against
/// `model`, then the MC runs under the plan's FaultConfig. The plan's
/// shapes do not enter the report.
RobustnessReport monte_carlo_robustness(const nn::Model& model,
                                        const plan::DeploymentPlan& plan,
                                        const RobustnessOptions& options = {});

}  // namespace autohet::reram
