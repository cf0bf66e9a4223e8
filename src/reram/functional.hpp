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
// every fault burn-in is the lockstep burn kernel. The scalar per-cell
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

/// Crossbar-id stride between layers: crossbar i of mappable layer l burns
/// its fault map under id l·kFaultIdStride + i. Fault maps stay stable per
/// crossbar as long as no layer spans more than 2^20 logical crossbars.
inline constexpr std::uint64_t kFaultIdStride = std::uint64_t{1} << 20;

/// One crossbar's recorded fault burn-in: the variation-only stats of the
/// recording pass plus the stuck-draw candidates captured from the stream,
/// grouped by draw bucket (stream order inside each) with the bucket ends
/// that let a replay read only the buckets its rate can reach (see
/// FaultModel::apply_recording).
struct CrossbarBurnRecord {
  FaultMapStats variation;
  std::vector<StuckCandidate> hits;
  StuckBucketEnds bucket_ends{};
};

/// One recorded trial burn across a whole fabric, indexed [layer][crossbar].
/// Together with the post-variation fabric clone this replays the burn-in
/// for any stuck-at rates within FaultModel::kRecordCap53.
struct TrialBurnRecord {
  std::vector<std::vector<CrossbarBurnRecord>> layers;
};

class MappedLayer {
 public:
  /// Quantizes `weight` ([Cout,Cin,k,k] or [out,in]) to 8 bits and programs
  /// it, clean, across crossbars of the given shape (`layer_id` tags the
  /// programming profile records). Faults enter only through burn().
  MappedLayer(const nn::LayerSpec& spec, const tensor::Tensor& weight,
              const mapping::CrossbarShape& shape,
              std::uint64_t layer_id = 0);

  const mapping::LayerMapping& mapping() const noexcept { return mapping_; }
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

  /// The logical crossbars, one shape each: crossbar_count() of
  /// crossbar_cells() physical cells.
  std::size_t crossbar_count() const noexcept { return crossbars_.size(); }
  std::int64_t crossbar_cells() const noexcept {
    return mapping_.shape.rows * mapping_.shape.cols;
  }

  /// One layer's share of a burn: copies of one clean layer with id
  /// `layer_id`, layers[i] burned under the config of trial trials[i].
  struct Clones {
    std::uint64_t layer_id = 0;
    std::vector<MappedLayer*> layers;
    std::vector<std::size_t> trials;
  };

  /// The one fault burn-in: burns faults[t] (one config per trial, the
  /// configs differing only in seed) into each job's clean clones. Each
  /// crossbar burns its clones in lockstep lane groups of up to
  /// kernels::kBurnLanes; `pool`, when given, spreads the (job, crossbar,
  /// lane group) items, largest crossbar first. With `records` (one per
  /// trial, layers sized by the caller) it records trial t's stuck draws
  /// and leaves the post-variation cells (FaultModel::apply_recording).
  static void burn(std::span<const FaultConfig> faults,
                   std::span<const Clones> jobs,
                   std::span<TrialBurnRecord> records,
                   common::ThreadPool* pool = nullptr);

  /// Completes a recorded burn on this layer (a clone of the recording's
  /// post-variation state): forces the recorded candidates that fall under
  /// `faults`' stuck thresholds and installs exactly the fault stats burn
  /// would have produced.
  void replay_faults(const FaultModel& faults,
                     const std::vector<CrossbarBurnRecord>& recorded);

  /// Stuck-at / variation counts burned in (all zero on a clean layer).
  const FaultMapStats& fault_stats() const noexcept { return fault_stats_; }

 private:
  nn::LayerSpec spec_;
  mapping::LayerMapping mapping_;
  float weight_scale_ = 1.0f;
  // Crossbar grid, row-major: crossbars_[rb * col_blocks + cb].
  std::vector<LogicalCrossbar> crossbars_;
  // Channel range [start, end) of each row block (kernel-aligned path) or
  // row range (split path).
  std::vector<std::pair<std::int64_t, std::int64_t>> row_ranges_;
  FaultMapStats fault_stats_;
};

/// Whole-network functional simulation on the heterogeneous fabric.
class SimulatedModel {
 public:
  /// `shapes` assigns a crossbar shape to each mappable layer (same order
  /// as NetworkSpec::mappable_layers()). A non-ideal `faults` config runs
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
  /// differ only in seed (FaultConfig::for_trial of one point); every
  /// crossbar burns its trials in lockstep (MappedLayer::burn), the items
  /// spread over `pool` when given. The single-config with_faults is this
  /// with one config.
  std::vector<SimulatedModel> with_faults(
      std::span<const FaultConfig> faults,
      common::ThreadPool* pool = nullptr) const;

  /// with_faults that burns each config's programming variation while
  /// *recording* its stuck-draw stream into records[i]: fabric i is the
  /// post-variation state, completed per rate by replay_faults. Requires an
  /// ideal source fabric and record-eligible configs.
  std::vector<SimulatedModel> with_faults_recorded(
      std::span<const FaultConfig> faults, std::span<TrialBurnRecord> records,
      common::ThreadPool* pool = nullptr) const;

  /// Completes a recorded burn: clones this post-variation fabric (a
  /// with_faults_recorded result) and forces the recorded candidates under
  /// `faults`' stuck thresholds. Bit-identical to with_faults(faults) on
  /// the original ideal fabric for any `faults` sharing the recording's RNG
  /// stream — same seed, program_sigma and cell_bits, any stuck rates
  /// within the recording cap (tested).
  SimulatedModel replay_faults(const FaultConfig& faults,
                               const TrialBurnRecord& record) const;

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
  friend class LayerFabricCache;  // assembles fabrics from cached layers

  /// A fabric of `layers` (layer i programmed from the model's mappable
  /// layer i with layer id i) under the ideal fault model, unpacked until
  /// burn() packs it.
  SimulatedModel(const nn::Model& model, DatapathMode mode,
                 std::vector<MappedLayer> layers);

  /// Burns faults[i] into fabrics[i] — clean fabrics of one model and
  /// allocation — in one MappedLayer::burn over all their layers,
  /// recording into `records` when it is non-empty, then packs the
  /// bit-serial fabrics.
  static void burn(std::span<SimulatedModel> fabrics,
                   std::span<const FaultConfig> faults,
                   std::span<TrialBurnRecord> records,
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
  FaultModel fault_model_;
  std::vector<MappedLayer> layers_;  // one per mappable layer
};

/// The float model a functional replay of `plan` runs: weights drawn from
/// seed 3 over the plan's graph (v2) or its zoo network (v1), which must be
/// sequentially runnable. CLI replay/profile and functional serving build
/// their models here.
nn::Model replay_model(const plan::DeploymentPlan& plan);

/// Cross-rate Monte-Carlo fabric cache (the trial-fabric cache).
///
/// FaultConfig::for_trial derives trial seeds from the base seed alone, and
/// the burn-in stream consumes draws identically for every nonzero stuck
/// rate (one uniform per physical cell — the thresholds move, the stream
/// does not). Across a fault sweep's rate grid the per-trial RNG streams
/// are therefore *identical*, and one recorded burn per (workload, trial)
/// serves every rate point: the post-variation fabric is cached together
/// with the sparse stuck-candidate list, and each rate point replays in a
/// single clone-and-patch pass instead of re-burning millions of cells.
/// The ideal reference fabric, its synthetic inputs and traced reference
/// outputs (independent of every fault knob) are cached alongside and
/// shared across the whole grid.
///
/// Reports stay byte-identical to the uncached path (tested); the cache is
/// purely a wall-time optimization. Thread-safe. Holds one workload at a
/// time — a new WorkloadKey drops the previous references at once and the
/// previous trial fabrics at its first recording, matching the sweep access
/// pattern (all rate/cell-bits points of one configuration, then the next
/// configuration).
class TrialFabricCache {
 public:
  /// Everything that identifies one MC workload besides the fault config.
  struct WorkloadKey {
    std::uint64_t model = 0;  ///< nn::Model::identity()
    std::vector<mapping::CrossbarShape> shapes;
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

  /// One recorded trial burn: the post-variation fabric plus the recorded
  /// stuck candidates, replayable for any rates within the cap.
  struct TrialFabric {
    SimulatedModel fabric;
    TrialBurnRecord record;
  };

  /// Returns the ideal-reference slot for `key`, building it via `build` on
  /// first use of this workload (a different key evicts the previous one).
  std::shared_ptr<const IdealRefs> ideal_refs(
      const WorkloadKey& key, const std::function<IdealRefs()>& build);

  /// Returns the recorded trial fabric of `workload` for each config in
  /// `trial_faults` (for_trial-derived, record-eligible configs of one
  /// point), recording every missing one in a single `build(missing)` call
  /// that returns one fabric per missing config, in order — so a point's
  /// trials record together. Keyed by (workload, cell_bits, program_sigma,
  /// seed), so one recording per trial serves every stuck-rate point of a
  /// sweep grid. Calls for disjoint trials proceed concurrently (per-slot
  /// locking).
  std::vector<std::shared_ptr<const TrialFabric>> trial_fabrics(
      const WorkloadKey& workload, std::span<const FaultConfig> trial_faults,
      const std::function<std::vector<TrialFabric>(
          std::span<const FaultConfig>)>& build);

  struct Stats {
    std::uint64_t ideal_builds = 0;
    std::uint64_t ideal_hits = 0;
    std::uint64_t trial_records = 0;  ///< trials recorded
    std::uint64_t trial_replays = 0;  ///< trials found recorded
  };
  Stats stats() const;

 private:
  /// The workload plus the fault knobs that pin a trial's burn-in RNG
  /// stream.
  struct TrialKey {
    WorkloadKey workload;
    int cell_bits = 0;
    double program_sigma = 0.0;
    std::uint64_t seed = 0;
    bool operator==(const TrialKey&) const = default;
  };

  SlotStore<WorkloadKey, IdealRefs> ideal_{1};
  /// A sweep holds trials × one (workload, cell_bits, sigma) generation at
  /// a time; stale generations are evicted on insert, and 64 slots cap the
  /// rest.
  SlotStore<TrialKey, TrialFabric> trials_{64};
};

/// Cross-allocation per-layer fabric cache (the in-search fabric cache).
///
/// A burned MappedLayer is a pure function of (layer spec + weights,
/// crossbar shape, fault config, layer id): the burn-in RNG stream is
/// seeded per layer, independent of the rest of the allocation. An RL
/// search revisits the same per-layer (layer, candidate) choices under one
/// fixed FaultConfig even though whole allocations rarely repeat, so an L×C
/// table of clean programmed layers plus their burned (layer, trial)
/// copies turns the per-episode Monte-Carlo fabric construction into plain
/// copies. Fabrics assembled from cached layers are bit-identical to
/// constructor-built ones (tested).
///
/// Thread-safe; bounded (all entries of a store are dropped when its cap is
/// hit — the steady state of one search is a few dozen entries, so
/// eviction only fires when workloads churn).
class LayerFabricCache {
 public:
  /// One integer-datapath fabric per config, fabric i bit-identical to
  /// SimulatedModel(model, shapes).with_faults(faults[i]) (the configs
  /// differ only in seed). Burned (layer, config) entries already cached
  /// are copied; every miss is a copy of its layer's cached clean
  /// programming (programmed on first use), and all of the call's misses
  /// burn together in one MappedLayer::burn over `pool`. Calls for
  /// distinct keys proceed concurrently (per-slot locking).
  std::vector<SimulatedModel> fabrics(
      const nn::Model& model, const std::vector<mapping::CrossbarShape>& shapes,
      std::span<const FaultConfig> faults, common::ThreadPool* pool = nullptr);

  /// Allocation-invariant ideal references for the assembly path, keyed by
  /// (model, samples, input_seed) — no shapes. One reference
  /// set serves every allocation: the ideal fabric's forward is
  /// partition-exact (integer sums reassociate exactly), so reference
  /// outputs are bit-identical across crossbar tilings (tested).
  std::shared_ptr<const TrialFabricCache::IdealRefs> ideal_refs(
      const nn::Model& model, int samples, std::uint64_t input_seed,
      const std::function<TrialFabricCache::IdealRefs()>& build);

  /// Layer entries: `builds` counts clean programmings plus burned
  /// (layer, config) misses, `hits` the lookups either store served.
  struct Stats {
    std::uint64_t builds = 0;
    std::uint64_t hits = 0;
    std::uint64_t refs_builds = 0;
    std::uint64_t refs_hits = 0;
  };
  Stats stats() const;
  void clear();

 private:
  struct Key {
    std::uint64_t model = 0;  ///< nn::Model::identity()
    std::size_t layer_index = 0;
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    FaultConfig faults;  ///< the burn's config; ideal for a clean entry
    bool operator==(const Key&) const = default;
  };
  struct RefsKey {
    std::uint64_t model = 0;  ///< nn::Model::identity()
    int samples = 0;
    std::uint64_t input_seed = 0;
    bool operator==(const RefsKey&) const = default;
  };

  /// One search holds L layers × C candidates clean, and as many burned
  /// entries per trial config ≈ dozens; the caps leave room for several
  /// concurrent workloads before wholesale eviction. A miss holds its
  /// burned slot while it reads the clean store, never the reverse.
  SlotStore<Key, MappedLayer> clean_{256};
  SlotStore<Key, MappedLayer> burned_{512};
  SlotStore<RefsKey, TrialFabricCache::IdealRefs> refs_{8};
};

/// Knobs of the Monte-Carlo robustness evaluation.
struct RobustnessOptions {
  int trials = 8;    ///< independent fault-map seeds
  int samples = 16;  ///< synthetic inputs evaluated per trial
  /// Trial budget (reram/faults.hpp). The default kFixed runs exactly
  /// `trials` — byte-identical reports. kAdaptive runs the same seeded
  /// trial stream but stops at the first chunk boundary where the pooled
  /// agreement's Wilson CI half-width meets `budget.ci_halfwidth`
  /// (`trials` caps the spend unless budget.max_trials overrides it), and
  /// unlocks zero-stuck-rate cache spanning when a cache is supplied.
  RobustnessBudget budget;
  std::uint64_t input_seed = 0x1a9e5ULL;
  /// Worker threads for the trial fan-out: 1 = serial (default), 0 = one
  /// per hardware thread, n > 1 = up to n. Every thread count produces
  /// byte-identical reports (trials are independently seeded and the
  /// reduction replays the serial accumulation order).
  int threads = 1;
  /// Optional cross-call fabric cache. When set, the ideal references are
  /// shared across calls and — for record-eligible fault configs — trial
  /// fabrics are recorded once and replayed per rate point. Reports stay
  /// byte-identical to the uncached path (tested).
  /// EvaluationEngine::evaluate_robustness supplies its own cache
  /// automatically.
  TrialFabricCache* cache = nullptr;
  /// Optional cross-allocation per-layer fabric cache (see
  /// LayerFabricCache). When set, it builds every trial fabric and the
  /// ideal references, taking precedence over `cache` — the fast path for
  /// the per-episode in-search robustness reward, where consecutive calls
  /// differ in allocation but share per-layer choices. Reports are
  /// bit-identical to the uncached path (tested).
  /// EvaluationEngine::evaluate_robustness_cached supplies the engine's
  /// cache automatically.
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
/// Deterministic: same model, shapes, faults and options ⇒ same report,
/// regardless of options.threads and options.pool.
RobustnessReport monte_carlo_robustness(
    const nn::Model& model, const std::vector<mapping::CrossbarShape>& shapes,
    const FaultConfig& faults, const RobustnessOptions& options = {});

/// Plan-based robustness MC: the shapes and FaultConfig come from the
/// compiled plan (validated against `model` first). Bit-identical to the
/// explicit-shapes overload on the inputs the plan was compiled from.
RobustnessReport monte_carlo_robustness(const nn::Model& model,
                                        const plan::DeploymentPlan& plan,
                                        const RobustnessOptions& options = {});

}  // namespace autohet::reram
