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
// Two kernel policies exist: KernelPolicy::kFast (every noise-free MVM, a
// single column included, as one batched call per crossbar through the
// dispatched kernels; fast fault burn-in) and KernelPolicy::kScalarReference
// (the retained per-cell datapaths and per-crossbar partial vectors). They
// produce bit-identical numbers (tested); the scalar policy is the
// equivalence oracle and the speedup-measurement baseline. Read noise is
// keyed per column, so a read-noisy fabric runs one column at a time under
// either policy (mvm_read_noisy_into).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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

enum class KernelPolicy {
  kFast,            ///< packed bit-plane kernels + fast fault burn-in
  kScalarReference  ///< retained scalar datapaths (oracle / baseline)
};

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
  /// it across crossbars of the given shape. When `faults` is non-null and
  /// non-ideal, stuck-at maps / programming variation / drift are burned
  /// into the arrays at this programming step (deterministic in the fault
  /// seed and `layer_id`), and MVMs sample the configured read noise.
  MappedLayer(const nn::LayerSpec& spec, const tensor::Tensor& weight,
              const mapping::CrossbarShape& shape,
              const FaultModel* faults = nullptr, std::uint64_t layer_id = 0,
              KernelPolicy policy = KernelPolicy::kFast);

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
  /// sums are exact — results are bit-identical to per-column mvm_scalar.
  /// Noise-free fabrics only (checked).
  void mvm_batch_into(const std::uint8_t* columns_t, std::int64_t count,
                      DatapathMode mode, std::span<std::int32_t> accs_t,
                      kernels::KernelScratch& scratch) const;

  /// True when this layer's fabric carries read noise (the per-call keyed
  /// RNG path); batched MVMs are unavailable then.
  bool read_noisy() const noexcept { return read_sigma_weights_ > 0.0; }

  /// Integer MVM of one unfolded input column (length Cin·k², 8-bit) under
  /// read noise: writes one int32 accumulation per output channel into
  /// `out` (length weight_cols(), zero-filled here) — the row-block partial
  /// sums merged by the adder tree directly in the caller's buffer.
  ///
  /// `call_key` seeds this call's read-noise stream: noise is drawn from an
  /// RNG derived from (fault seed, layer id, call_key, crossbar index), so
  /// the method is const in the strict sense — concurrent forwards on one
  /// fabric are race-free and deterministic. Callers that want independent
  /// noise across MVMs pass distinct keys (SimulatedModel derives them from
  /// the sample/noise stream and the output position); identical keys
  /// reproduce identical noise.
  void mvm_read_noisy_into(std::span<const std::uint8_t> input_column,
                           std::span<std::int32_t> out,
                           std::uint64_t call_key = 0) const;

  /// The retained pre-packing datapath: scalar kernels, one partial vector
  /// per crossbar, merged into a freshly allocated output — the
  /// KernelPolicy::kScalarReference path. Bit-identical to mvm_batch_into;
  /// on a read-noisy fabric the integer datapath is mvm_read_noisy_into.
  std::vector<std::int32_t> mvm_scalar(
      std::span<const std::uint8_t> input_column, DatapathMode mode,
      std::uint64_t call_key = 0) const;

  /// Packs every crossbar's weight bit planes (idempotent) so bit-serial
  /// MVMs take the AND+popcount kernel.
  void prepare_packed();

  /// Burns a fault model into the (clean) programmed arrays: the same
  /// operation the fault-model constructor path performs, exposed so a
  /// fabric clone can re-burn per-trial faults without re-quantizing and
  /// re-programming the weights. `reference_path` forces the retained
  /// per-cell burn-in kernel (bit-identical, slower).
  void burn_faults(const FaultModel& faults, std::uint64_t layer_id,
                   bool reference_path = false);

  /// burn_faults variant that applies programming variation and *records*
  /// the stuck-draw stream per crossbar instead of applying it (see
  /// FaultModel::apply_recording). Fault stats hold the variation-only
  /// counts until replay_faults completes the burn.
  void burn_faults_recording(const FaultModel& faults, std::uint64_t layer_id,
                             std::vector<CrossbarBurnRecord>& out);

  /// Completes a recorded burn on this layer (a clone of the recording's
  /// post-variation state): forces the recorded candidates that fall under
  /// `faults`' stuck thresholds and installs exactly the fault stats and
  /// read-noise streams burn_faults would have produced.
  void replay_faults(const FaultModel& faults, std::uint64_t layer_id,
                     const std::vector<CrossbarBurnRecord>& recorded);

  /// Stuck-at / variation counts burned in at construction (all zero when
  /// the layer was programmed without a fault model).
  const FaultMapStats& fault_stats() const noexcept { return fault_stats_; }

 private:
  /// Installs `faults`' read-noise level and this layer's noise stream —
  /// the last step of every burn.
  void arm_read_noise(const FaultModel& faults, std::uint64_t layer_id);

  nn::LayerSpec spec_;
  mapping::LayerMapping mapping_;
  float weight_scale_ = 1.0f;
  // Crossbar grid, row-major: crossbars_[rb * col_blocks + cb].
  std::vector<LogicalCrossbar> crossbars_;
  // Channel range [start, end) of each row block (kernel-aligned path) or
  // row range (split path).
  std::vector<std::pair<std::int64_t, std::int64_t>> row_ranges_;
  FaultMapStats fault_stats_;
  double read_sigma_weights_ = 0.0;  ///< per-read weight-LSB noise rms
  /// Base of the cycle-to-cycle read-noise stream, seeded from the fault
  /// seed and layer id. Never advanced in place: each MVM derives a child
  /// stream from (call_key, crossbar index), keeping const methods
  /// genuinely read-only so concurrent forwards are safe.
  common::Rng read_base_;
};

/// Whole-network functional simulation on the heterogeneous fabric.
class SimulatedModel {
 public:
  /// `shapes` assigns a crossbar shape to each mappable layer (same order
  /// as NetworkSpec::mappable_layers()). A non-ideal `faults` config runs
  /// the whole network on a faulty fabric: stuck-at maps and programming
  /// variation are burned in at construction, read noise is sampled at MVM
  /// time (integer datapath only). The default ideal config is bit-identical
  /// to the fault-free fabric.
  SimulatedModel(const nn::Model& model,
                 const std::vector<mapping::CrossbarShape>& shapes,
                 DatapathMode mode = DatapathMode::kInteger,
                 const FaultConfig& faults = {},
                 KernelPolicy policy = KernelPolicy::kFast);

  /// Builds the fabric from a compiled DeploymentPlan: each mappable layer
  /// is programmed onto the plan's crossbar shape under the plan's
  /// FaultConfig (`plan.accel.faults`). The plan is validated against the
  /// model first — which pins its frozen per-layer geometry to exactly what
  /// those shapes map to — and a graph (v2) plan must carry exactly
  /// model.graph(). Bit-identical to the shape-list constructor on the
  /// inputs the plan was compiled from.
  SimulatedModel(const nn::Model& model, const plan::DeploymentPlan& plan,
                 DatapathMode mode = DatapathMode::kInteger,
                 KernelPolicy policy = KernelPolicy::kFast);

  /// Clones this (clean) fabric and burns `faults` into the copy — the
  /// quantization and weight-programming work is reused, only the fault
  /// burn-in runs. Bit-identical to constructing a fresh SimulatedModel
  /// with the same faults (the programmed cells and the fault RNG streams
  /// are both pure functions of their seeds). Requires an ideal fabric.
  SimulatedModel with_faults(const FaultConfig& faults) const;

  /// with_faults variant that burns `faults`' programming variation while
  /// *recording* the stuck-draw stream into `record`: the returned fabric is
  /// the post-variation state, completed per-rate by replay_faults. Requires
  /// an ideal source fabric and FaultModel(faults).record_eligible().
  SimulatedModel with_faults_recorded(const FaultConfig& faults,
                                      TrialBurnRecord& record) const;

  /// Completes a recorded burn: clones this post-variation fabric (the
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

  /// Runs the model's graph on the fabric for a batch of CHW inputs, sample
  /// i on read-noise stream `noise_stream0 + i` (equal streams repeat a
  /// pass, distinct streams draw independent noise; see
  /// MappedLayer::mvm_read_noisy_into). Concurrent calls on one instance
  /// are safe.
  ///
  /// Mappable nodes run on their MappedLayer, noise-free fast FC layers as
  /// one batched MVM across the samples; pooling nodes run on the tile's
  /// pooling module; residual adds run on the vector unit in exact integer
  /// arithmetic (both operands on one symmetric 8-bit grid, summed in
  /// int32, dequantized once). Integer sums are exact, so every result is
  /// bit-identical to running each sample alone.
  std::vector<ForwardTrace> forward_batch(
      std::span<const tensor::Tensor> inputs,
      std::uint64_t noise_stream0 = 0) const;

  /// Output of forward_batch over the single sample `input`.
  tensor::Tensor forward(const tensor::Tensor& input,
                         std::uint64_t noise_stream = 0) const;

  const std::vector<MappedLayer>& mapped_layers() const noexcept {
    return layers_;
  }

  /// Assembles a fabric from prebuilt per-layer fabrics (the
  /// LayerFabricCache path). `layers[i]` must have been built from this
  /// model's mappable layer i (same spec, weight, shape) under `faults`
  /// with layer id i and `policy` — then the result is bit-identical to
  /// the shape-list constructor: per-layer programming and burn-in are
  /// pure functions of exactly those inputs.
  SimulatedModel(const nn::Model& model, DatapathMode mode,
                 const FaultConfig& faults, KernelPolicy policy,
                 std::vector<MappedLayer> layers);

  /// Aggregate stuck-at / variation counts over all layers (zero when the
  /// fabric is ideal).
  FaultMapStats fault_stats() const noexcept;

 private:
  /// Copies this fabric under `faults` and runs `burn(layer, model, i)` on
  /// each layer i of the copy — the one clone step of with_faults,
  /// with_faults_recorded and replay_faults.
  SimulatedModel clone_burned(
      const FaultConfig& faults,
      const std::function<void(MappedLayer&, const FaultModel&,
                               std::uint64_t)>& burn) const;
  /// One mappable layer over a batch, sample i on noise stream
  /// `noise_stream0 + i`: convs run per sample (run_conv); FC layers on a
  /// noise-free fast fabric take one batched MVM over all samples (one
  /// sample is a batch of one).
  std::vector<tensor::Tensor> run_mappable(
      const MappedLayer& layer, std::span<const tensor::Tensor> inputs,
      std::uint64_t noise_stream0) const;
  tensor::Tensor run_conv(const MappedLayer& layer,
                          const tensor::Tensor& input,
                          std::uint64_t noise_stream) const;

  const nn::Model* model_;
  DatapathMode mode_;
  FaultModel fault_model_;
  KernelPolicy policy_ = KernelPolicy::kFast;
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

  /// Returns the recorded trial fabric of `workload` for `trial_faults` (a
  /// for_trial-derived, record-eligible config), recording via `build` on
  /// first use. Keyed by (workload, cell_bits, program_sigma, seed), so one
  /// recording per trial serves every stuck-rate point of a sweep grid.
  /// Builds for distinct trials proceed concurrently (per-slot locking).
  std::shared_ptr<const TrialFabric> trial_fabric(
      const WorkloadKey& workload, const FaultConfig& trial_faults,
      const std::function<TrialFabric()>& build);

  struct Stats {
    std::uint64_t ideal_builds = 0;
    std::uint64_t ideal_hits = 0;
    std::uint64_t trial_records = 0;  ///< recording burns executed
    std::uint64_t trial_replays = 0;  ///< cache hits replayed instead
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
/// A programmed-and-burned MappedLayer is a pure function of (layer spec +
/// weights, crossbar shape, fault config, layer id): the burn-in RNG stream
/// is seeded per layer, independent of the rest of the allocation. Only
/// the fast kernel policy uses the cache, so the policy is not keyed. An RL
/// search revisits the same per-layer (layer, candidate) choices under one
/// fixed FaultConfig even though whole allocations rarely repeat, so an L×C
/// table of prebuilt layers turns the per-episode Monte-Carlo fabric
/// construction into plain copies — no re-quantization, no burn-in RNG. Fabrics assembled from cached layers are bit-identical
/// to constructor-built ones (tested).
///
/// Thread-safe; bounded (all entries are dropped when the cap is hit — the
/// steady state of one search is a few dozen entries, so eviction only
/// fires when workloads churn).
class LayerFabricCache {
 public:
  /// Returns the (shared, immutable) prebuilt layer for the key, building
  /// it via `build` on first use. Builds for distinct keys proceed
  /// concurrently (per-slot locking).
  std::shared_ptr<const MappedLayer> layer(
      const nn::Model& model, std::size_t layer_index,
      const mapping::CrossbarShape& shape, const FaultConfig& faults,
      const std::function<MappedLayer()>& build);

  /// Allocation-invariant ideal references for the assembly path, keyed by
  /// (model, samples, input_seed) — no shapes. One reference
  /// set serves every allocation: the ideal fabric's forward is
  /// partition-exact (integer sums reassociate exactly and an ideal fabric
  /// has no read noise), so reference outputs are bit-identical across
  /// crossbar tilings (tested).
  std::shared_ptr<const TrialFabricCache::IdealRefs> ideal_refs(
      const nn::Model& model, int samples, std::uint64_t input_seed,
      const std::function<TrialFabricCache::IdealRefs()>& build);

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
    FaultConfig faults;
    bool operator==(const Key&) const = default;
  };
  struct RefsKey {
    std::uint64_t model = 0;  ///< nn::Model::identity()
    int samples = 0;
    std::uint64_t input_seed = 0;
    bool operator==(const RefsKey&) const = default;
  };

  /// One search holds L layers × C candidates × (ideal + one trial config)
  /// ≈ dozens; 512 leaves room for several concurrent workloads before
  /// wholesale eviction.
  SlotStore<Key, MappedLayer> layers_{512};
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
  /// per hardware thread, n > 1 = exactly n. Every thread count produces
  /// byte-identical reports (trials are independently seeded and the
  /// reduction replays the serial accumulation order).
  int threads = 1;
  /// kScalarReference runs the retained scalar kernels with per-trial
  /// fabric reconstruction, always serially — the measurement baseline and
  /// equivalence oracle for the fast path. Reports are bit-identical.
  KernelPolicy kernels = KernelPolicy::kFast;
  /// Optional cross-call fabric cache. When set, the ideal references are
  /// shared across calls and — for record-eligible fault configs — trial
  /// fabrics are recorded once and replayed per rate point. Reports stay
  /// byte-identical to the uncached path (tested). Ignored by the scalar
  /// baseline. EvaluationEngine::evaluate_robustness supplies its own
  /// cache automatically.
  TrialFabricCache* cache = nullptr;
  /// Optional cross-allocation per-layer fabric cache (see
  /// LayerFabricCache). When set (and the fast kernels are active), the
  /// ideal fabric and every trial fabric are assembled from shared
  /// prebuilt layers instead of re-programming and re-burning per call —
  /// the fast path for the per-episode in-search robustness reward, where
  /// consecutive calls differ in allocation but share per-layer choices.
  /// Reports are bit-identical to the uncached path (tested). Ignored by
  /// the scalar baseline. EvaluationEngine::evaluate_robustness_cached
  /// supplies the engine's cache automatically.
  LayerFabricCache* layer_cache = nullptr;
  /// Optional externally owned worker pool for the parallel fan-out. When
  /// null and threads > 1, a pool of `threads` workers is created for the
  /// call; when set, `pool` is used as-is (its size wins over `threads`
  /// for actual concurrency — `threads` still gates whether the parallel
  /// path is taken at all). EvaluationEngine passes its shared pool so MC
  /// calls don't re-spawn workers. Reports stay byte-identical either way.
  common::ThreadPool* pool = nullptr;
};

/// Accuracy-under-faults over N seeded trials: for each trial a fresh
/// faulty fabric (fault seed = faults.for_trial(t)) classifies `samples`
/// synthetic inputs; accuracy is argmax agreement with the *ideal* fabric
/// (isolating device non-ideality from quantization). Reports mean/stddev
/// across trials plus each layer's mean relative output error.
/// Deterministic: same model, shapes, faults and options ⇒ same report,
/// regardless of options.threads and options.kernels.
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
