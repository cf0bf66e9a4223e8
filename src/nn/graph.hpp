// DAG computation-graph IR.
//
// The flat NetworkSpec chain describes only the conv/FC skeleton of a
// network; residual adds, branches, concats and standalone nonlinearities
// are invisible to it. The Graph here is a small immutable DAG whose nodes
// are either the existing mappable LayerSpecs (kLayer — conv, FC, and the
// pooling layers that ride along in a NetworkSpec) or non-mappable graph
// ops (residual add, channel concat, elementwise activation, global average
// pool). Nodes are stored in topological order by construction: the
// GraphBuilder only lets a node reference already-built nodes, and infers
// and validates the output shape of every node as it is added.
//
// Chain-shaped graphs (kInput followed by a single path of kLayer nodes)
// are exactly today's NetworkSpec chains: skeleton() recovers the
// NetworkSpec, and every consumer (mapping, hardware model, functional sim,
// scheduler) is required to treat such graphs bit-identically to the
// legacy linear path. Branchy graphs add non-mappable ops that the
// hardware model accounts NEON-style (see reram/hardware_model.hpp) and
// the functional simulator executes with exact integer residual adds.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace autohet::nn {

enum class OpKind {
  kInput,          ///< graph entry; carries the input tensor shape
  kLayer,          ///< an existing LayerSpec (conv / FC / pooling)
  kResidualAdd,    ///< elementwise sum of two same-shape tensors
  kConcat,         ///< channel-axis concatenation of 2+ tensors
  kActivation,     ///< standalone elementwise ReLU
  kGlobalAvgPool,  ///< spatial mean over the whole feature map -> Cx1x1
};

/// Stable lower-snake name used in JSON, Graphviz and reports.
const char* op_kind_name(OpKind kind) noexcept;
/// Inverse of op_kind_name; throws std::invalid_argument on unknown names.
OpKind op_kind_from_name(const std::string& name);

/// CHW shape of a node's output tensor.
struct TensorShape {
  std::int64_t channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;

  std::int64_t numel() const noexcept { return channels * height * width; }
  std::string to_string() const;
  bool operator==(const TensorShape&) const = default;
};

struct GraphNode {
  OpKind kind = OpKind::kInput;
  std::string name;          ///< unique, deterministic (builder-assigned)
  LayerSpec layer;           ///< meaningful only for kLayer nodes
  std::vector<std::int64_t> inputs;  ///< producer node ids (all < this id)
  TensorShape shape;         ///< inferred output shape

  bool operator==(const GraphNode&) const = default;
};

/// True for nodes whose weights occupy crossbars.
bool is_mappable(const GraphNode& node) noexcept;

class Graph {
 public:
  Graph() = default;

  const std::string& name() const noexcept { return name_; }
  const std::vector<GraphNode>& nodes() const noexcept { return nodes_; }
  std::int64_t node_count() const noexcept {
    return static_cast<std::int64_t>(nodes_.size());
  }
  /// Total number of producer->consumer edges.
  std::int64_t edge_count() const;

  /// Node ids of the mappable (conv/FC) nodes, in topological order. This
  /// order is the layer order every mapping/plan/report consumer sees.
  std::vector<std::int64_t> mappable_node_ids() const;
  /// The mappable LayerSpecs themselves, in topological order.
  std::vector<LayerSpec> mappable_layers() const;

  /// The unique sink (node consumed by no other node).
  std::int64_t output_node() const;

  /// True when the graph is kInput followed by a single unbranched path of
  /// kLayer nodes — i.e. exactly a legacy NetworkSpec chain.
  bool is_chain() const;

  /// The conv/FC/pool skeleton: all kLayer specs in topological order, as a
  /// NetworkSpec. sequential_runnable is true only for chain graphs, for
  /// which the skeleton is the exact inverse of graph_from_network.
  NetworkSpec skeleton() const;

  /// Re-runs the builder's structural and shape checks over the stored
  /// nodes; throws std::invalid_argument on any violation. Used after
  /// deserialization.
  void validate() const;

  bool operator==(const Graph&) const = default;

 private:
  friend class GraphBuilder;
  std::string name_;
  std::vector<GraphNode> nodes_;
};

/// Builds a Graph incrementally in topological order. Every method returns
/// the id of the node it created; shape inference and validation happen at
/// each step, so an invalid wiring throws immediately with the offending
/// node named.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::string name);

  /// The graph entry. Exactly one input node is required.
  std::int64_t input(std::int64_t channels, std::int64_t height,
                     std::int64_t width);
  /// A LayerSpec node (conv / FC / pooling). The producer's shape must
  /// match the spec's expected input geometry.
  std::int64_t layer(std::int64_t from, const LayerSpec& spec);
  /// Elementwise sum; both producers must have identical shapes.
  std::int64_t residual_add(std::int64_t a, std::int64_t b);
  /// Channel concat; producers must agree on height and width.
  std::int64_t concat(const std::vector<std::int64_t>& from);
  /// Standalone elementwise ReLU.
  std::int64_t activation(std::int64_t from);
  /// Spatial mean over the whole feature map: CxHxW -> Cx1x1.
  std::int64_t global_avg_pool(std::int64_t from);

  /// Overrides the auto-assigned name of the most recently added node.
  GraphBuilder& rename_last(std::string name);

  const TensorShape& shape_of(std::int64_t node) const;

  /// Finalizes the graph. Throws unless the graph has exactly one sink.
  Graph build() const;

 private:
  std::int64_t add_node(GraphNode node);
  const GraphNode& node_at(std::int64_t id, const char* role) const;

  Graph graph_;
};

/// Wraps a legacy sequential NetworkSpec as a chain graph (kInput followed
/// by one kLayer node per layer). skeleton() of the result recovers `net`.
Graph graph_from_network(const NetworkSpec& net);

/// Runs `graph` once, the one walk every executor shares: visits the nodes
/// in topological order and stores `eval(node, layer_index, operands)` as
/// each node's Value, where `layer_index` is the node's position among the
/// kLayer nodes (its index in skeleton().layers) and `operands` point at the
/// producers' values (none for kInput, whose eval supplies the input). Each
/// value is released right after its last consumer reads it, so memory
/// tracks the live frontier. Returns the output node's value.
template <typename Value, typename Eval>
Value execute(const Graph& graph, Eval&& eval) {
  const std::vector<GraphNode>& nodes = graph.nodes();
  const auto out = static_cast<std::size_t>(graph.output_node());
  std::vector<std::int64_t> uses(nodes.size(), 0);
  for (const GraphNode& node : nodes) {
    for (const std::int64_t in : node.inputs) {
      ++uses[static_cast<std::size_t>(in)];
    }
  }
  ++uses[out];
  std::vector<Value> values(nodes.size());
  std::vector<const Value*> operands;
  std::size_t layer_index = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const GraphNode& node = nodes[i];
    operands.clear();
    for (const std::int64_t in : node.inputs) {
      operands.push_back(&values[static_cast<std::size_t>(in)]);
    }
    values[i] =
        eval(node, layer_index, std::span<const Value* const>(operands));
    if (node.kind == OpKind::kLayer) ++layer_index;
    for (const std::int64_t in : node.inputs) {
      if (--uses[static_cast<std::size_t>(in)] == 0) {
        values[static_cast<std::size_t>(in)] = Value();
      }
    }
  }
  return std::move(values[out]);
}

/// Deterministic Graphviz rendering (stable node ids, names, shapes).
void write_graph_dot(std::ostream& out, const Graph& graph);

}  // namespace autohet::nn
