#include "nn/graph.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace autohet::nn {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("graph: " + what);
}

/// Output shape of a LayerSpec node given its (already validated) input.
TensorShape layer_output_shape(const LayerSpec& spec) {
  if (spec.type == LayerType::kFullyConnected) {
    return {spec.out_channels, 1, 1};
  }
  return {spec.out_channels, spec.out_height(), spec.out_width()};
}

/// Validates that `in` is an acceptable input shape for `spec`.
void check_layer_input(const LayerSpec& spec, const TensorShape& in,
                       const std::string& node_name) {
  if (spec.type == LayerType::kFullyConnected) {
    if (in.numel() != spec.in_channels) {
      fail("node '" + node_name + "': FC expects " +
           std::to_string(spec.in_channels) + " input values, producer has " +
           in.to_string());
    }
    return;
  }
  const TensorShape want{spec.in_channels, spec.in_height, spec.in_width};
  if (!(in == want)) {
    fail("node '" + node_name + "': layer expects input " + want.to_string() +
         ", producer has " + in.to_string());
  }
}

}  // namespace

const char* op_kind_name(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kInput:
      return "input";
    case OpKind::kLayer:
      return "layer";
    case OpKind::kResidualAdd:
      return "residual_add";
    case OpKind::kConcat:
      return "concat";
    case OpKind::kActivation:
      return "activation";
    case OpKind::kGlobalAvgPool:
      return "global_avg_pool";
  }
  return "?";
}

OpKind op_kind_from_name(const std::string& name) {
  for (const OpKind kind :
       {OpKind::kInput, OpKind::kLayer, OpKind::kResidualAdd, OpKind::kConcat,
        OpKind::kActivation, OpKind::kGlobalAvgPool}) {
    if (name == op_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown graph op kind: " + name);
}

std::string TensorShape::to_string() const {
  std::ostringstream oss;
  oss << channels << 'x' << height << 'x' << width;
  return oss.str();
}

bool is_mappable(const GraphNode& node) noexcept {
  return node.kind == OpKind::kLayer && is_mappable(node.layer.type);
}

std::int64_t Graph::edge_count() const {
  std::int64_t edges = 0;
  for (const GraphNode& node : nodes_) {
    edges += static_cast<std::int64_t>(node.inputs.size());
  }
  return edges;
}

std::vector<std::int64_t> Graph::mappable_node_ids() const {
  std::vector<std::int64_t> ids;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (is_mappable(nodes_[i])) ids.push_back(static_cast<std::int64_t>(i));
  }
  return ids;
}

std::vector<LayerSpec> Graph::mappable_layers() const {
  std::vector<LayerSpec> layers;
  for (const GraphNode& node : nodes_) {
    if (is_mappable(node)) layers.push_back(node.layer);
  }
  return layers;
}

std::int64_t Graph::output_node() const {
  std::vector<bool> consumed(nodes_.size(), false);
  for (const GraphNode& node : nodes_) {
    for (const std::int64_t in : node.inputs) {
      consumed[static_cast<std::size_t>(in)] = true;
    }
  }
  std::int64_t sink = -1;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (consumed[i]) continue;
    if (sink >= 0) fail("graph '" + name_ + "' has more than one sink");
    sink = static_cast<std::int64_t>(i);
  }
  if (sink < 0) fail("graph '" + name_ + "' has no sink");
  return sink;
}

bool Graph::is_chain() const {
  if (nodes_.empty() || nodes_[0].kind != OpKind::kInput) return false;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const GraphNode& node = nodes_[i];
    if (node.kind != OpKind::kLayer) return false;
    if (node.inputs.size() != 1 ||
        node.inputs[0] != static_cast<std::int64_t>(i) - 1) {
      return false;
    }
  }
  return true;
}

NetworkSpec Graph::skeleton() const {
  NetworkSpec net;
  net.name = name_;
  net.sequential_runnable = is_chain();
  for (const GraphNode& node : nodes_) {
    if (node.kind == OpKind::kLayer) net.layers.push_back(node.layer);
  }
  return net;
}

void Graph::validate() const {
  // Rebuild through the builder: it re-runs every structural and shape
  // check, and the result must reproduce this graph exactly.
  GraphBuilder builder(name_);
  std::unordered_set<std::string> names;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const GraphNode& node = nodes_[i];
    if (!names.insert(node.name).second) {
      fail("duplicate node name '" + node.name + "'");
    }
    std::int64_t id = -1;
    switch (node.kind) {
      case OpKind::kInput:
        if (i != 0) fail("input node must be node 0");
        id = builder.input(node.shape.channels, node.shape.height,
                           node.shape.width);
        break;
      case OpKind::kLayer:
        if (node.inputs.size() != 1) fail("layer node needs exactly 1 input");
        id = builder.layer(node.inputs[0], node.layer);
        break;
      case OpKind::kResidualAdd:
        if (node.inputs.size() != 2) {
          fail("residual_add node needs exactly 2 inputs");
        }
        id = builder.residual_add(node.inputs[0], node.inputs[1]);
        break;
      case OpKind::kConcat:
        id = builder.concat(node.inputs);
        break;
      case OpKind::kActivation:
        if (node.inputs.size() != 1) {
          fail("activation node needs exactly 1 input");
        }
        id = builder.activation(node.inputs[0]);
        break;
      case OpKind::kGlobalAvgPool:
        if (node.inputs.size() != 1) {
          fail("global_avg_pool node needs exactly 1 input");
        }
        id = builder.global_avg_pool(node.inputs[0]);
        break;
    }
    builder.rename_last(node.name);
    if (id != static_cast<std::int64_t>(i)) fail("node ids not dense");
    if (!(builder.shape_of(id) == node.shape)) {
      fail("node '" + node.name + "' stored shape " + node.shape.to_string() +
           " does not match inferred " + builder.shape_of(id).to_string());
    }
  }
  const Graph rebuilt = builder.build();
  if (!(rebuilt == *this)) fail("stored graph differs from rebuilt graph");
}

GraphBuilder::GraphBuilder(std::string name) { graph_.name_ = std::move(name); }

const GraphNode& GraphBuilder::node_at(std::int64_t id,
                                       const char* role) const {
  if (id < 0 || id >= static_cast<std::int64_t>(graph_.nodes_.size())) {
    fail(std::string(role) + " references unknown node id " +
         std::to_string(id));
  }
  return graph_.nodes_[static_cast<std::size_t>(id)];
}

std::int64_t GraphBuilder::add_node(GraphNode node) {
  const std::int64_t id = static_cast<std::int64_t>(graph_.nodes_.size());
  if (node.name.empty()) {
    node.name = std::string(op_kind_name(node.kind)) + "_" +
                std::to_string(id);
  }
  graph_.nodes_.push_back(std::move(node));
  return id;
}

std::int64_t GraphBuilder::input(std::int64_t channels, std::int64_t height,
                                 std::int64_t width) {
  if (!graph_.nodes_.empty()) fail("input must be the first node");
  if (channels <= 0 || height <= 0 || width <= 0) {
    fail("input shape must be positive");
  }
  GraphNode node;
  node.kind = OpKind::kInput;
  node.shape = {channels, height, width};
  return add_node(std::move(node));
}

std::int64_t GraphBuilder::layer(std::int64_t from, const LayerSpec& spec) {
  const GraphNode& producer = node_at(from, "layer");
  GraphNode node;
  node.kind = OpKind::kLayer;
  node.layer = spec;
  node.inputs = {from};
  node.name = std::string(op_kind_name(OpKind::kLayer)) + "_" +
              std::to_string(graph_.nodes_.size());
  check_layer_input(spec, producer.shape, node.name);
  node.shape = layer_output_shape(spec);
  return add_node(std::move(node));
}

std::int64_t GraphBuilder::residual_add(std::int64_t a, std::int64_t b) {
  const GraphNode& lhs = node_at(a, "residual_add");
  const GraphNode& rhs = node_at(b, "residual_add");
  if (!(lhs.shape == rhs.shape)) {
    fail("residual_add inputs disagree: " + lhs.shape.to_string() + " vs " +
         rhs.shape.to_string());
  }
  GraphNode node;
  node.kind = OpKind::kResidualAdd;
  node.inputs = {a, b};
  node.shape = lhs.shape;
  return add_node(std::move(node));
}

std::int64_t GraphBuilder::concat(const std::vector<std::int64_t>& from) {
  if (from.size() < 2) fail("concat needs at least 2 inputs");
  TensorShape shape = node_at(from[0], "concat").shape;
  for (std::size_t i = 1; i < from.size(); ++i) {
    const TensorShape& next = node_at(from[i], "concat").shape;
    if (next.height != shape.height || next.width != shape.width) {
      fail("concat inputs disagree on spatial size: " + shape.to_string() +
           " vs " + next.to_string());
    }
    shape.channels += next.channels;
  }
  GraphNode node;
  node.kind = OpKind::kConcat;
  node.inputs = from;
  node.shape = shape;
  return add_node(std::move(node));
}

std::int64_t GraphBuilder::activation(std::int64_t from) {
  const GraphNode& producer = node_at(from, "activation");
  GraphNode node;
  node.kind = OpKind::kActivation;
  node.inputs = {from};
  node.shape = producer.shape;
  return add_node(std::move(node));
}

std::int64_t GraphBuilder::global_avg_pool(std::int64_t from) {
  const GraphNode& producer = node_at(from, "global_avg_pool");
  GraphNode node;
  node.kind = OpKind::kGlobalAvgPool;
  node.inputs = {from};
  node.shape = {producer.shape.channels, 1, 1};
  return add_node(std::move(node));
}

GraphBuilder& GraphBuilder::rename_last(std::string name) {
  if (graph_.nodes_.empty()) fail("rename_last on empty graph");
  if (name.empty()) fail("node name must be non-empty");
  graph_.nodes_.back().name = std::move(name);
  return *this;
}

const TensorShape& GraphBuilder::shape_of(std::int64_t node) const {
  return node_at(node, "shape_of").shape;
}

Graph GraphBuilder::build() const {
  if (graph_.nodes_.empty() || graph_.nodes_[0].kind != OpKind::kInput) {
    fail("graph '" + graph_.name_ + "' must start with an input node");
  }
  graph_.output_node();  // throws unless there is exactly one sink
  return graph_;
}

Graph graph_from_network(const NetworkSpec& net) {
  if (net.layers.empty()) {
    throw std::invalid_argument("graph_from_network: empty network " +
                                net.name);
  }
  GraphBuilder builder(net.name);
  const LayerSpec& first = net.layers.front();
  std::int64_t prev =
      builder.input(first.in_channels, first.in_height, first.in_width);
  for (const LayerSpec& spec : net.layers) {
    prev = builder.layer(prev, spec);
  }
  return builder.build();
}

void write_graph_dot(std::ostream& out, const Graph& graph) {
  out << "digraph \"" << graph.name() << "\" {\n"
      << "  rankdir=TB;\n"
      << "  node [shape=box, fontname=\"monospace\"];\n";
  const std::vector<GraphNode>& nodes = graph.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const GraphNode& node = nodes[i];
    out << "  n" << i << " [label=\"" << node.name << "\\n";
    if (node.kind == OpKind::kLayer) {
      out << node.layer.to_string();
    } else {
      out << op_kind_name(node.kind);
    }
    out << "\\n" << node.shape.to_string() << "\"";
    if (is_mappable(node)) out << ", style=filled, fillcolor=lightblue";
    out << "];\n";
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const std::int64_t in : nodes[i].inputs) {
      out << "  n" << in << " -> n" << i << ";\n";
    }
  }
  out << "}\n";
}

}  // namespace autohet::nn
