// Hypergraph: the netlist representation used by every algorithm in htp.
//
// A hypergraph H = (V, E) models a circuit netlist: nodes are cells/gates
// with a size s(v) > 0, nets are hyperedges with |e| >= 2 distinct pins and a
// capacity c(e) > 0 (Section 2.1 of the paper). Storage is CSR in both
// directions (net -> pins and node -> incident nets), immutable after build.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "netlist/common.hpp"

namespace htp {

/// Immutable hypergraph / netlist. Construct via HypergraphBuilder.
class Hypergraph {
 public:
  Hypergraph() = default;

  /// Number of nodes n = |V|.
  NodeId num_nodes() const { return static_cast<NodeId>(node_size_.size()); }
  /// Number of nets m = |E|.
  NetId num_nets() const { return static_cast<NetId>(net_capacity_.size()); }
  /// Total number of pins p = sum over nets of |e|.
  std::size_t num_pins() const { return net_pins_.size(); }

  /// Pins (distinct node ids) of net `e`.
  std::span<const NodeId> pins(NetId e) const {
    HTP_CHECK(e < num_nets());
    return {net_pins_.data() + net_offset_[e],
            net_offset_[e + 1] - net_offset_[e]};
  }
  /// Nets incident to node `v`.
  std::span<const NetId> nets(NodeId v) const {
    HTP_CHECK(v < num_nodes());
    return {node_nets_.data() + node_offset_[v],
            node_offset_[v + 1] - node_offset_[v]};
  }

  /// Node size s(v) > 0.
  double node_size(NodeId v) const {
    HTP_CHECK(v < num_nodes());
    return node_size_[v];
  }
  /// Net capacity c(e) > 0.
  double net_capacity(NetId e) const {
    HTP_CHECK(e < num_nets());
    return net_capacity_[e];
  }
  /// s(V): total size of all nodes.
  double total_size() const { return total_size_; }
  /// Degree |e| of a net.
  std::size_t net_degree(NetId e) const { return pins(e).size(); }
  /// Number of nets incident to a node.
  std::size_t node_degree(NodeId v) const { return nets(v).size(); }

  /// Optional node name ("" when unnamed).
  const std::string& node_name(NodeId v) const {
    static const std::string kEmpty;
    return node_name_.empty() ? kEmpty : node_name_[v];
  }
  /// Optional net name ("" when unnamed).
  const std::string& net_name(NetId e) const {
    static const std::string kEmpty;
    return net_name_.empty() ? kEmpty : net_name_[e];
  }

  /// True when every node size is exactly 1 (the ISCAS85 experiments).
  bool unit_sizes() const { return unit_sizes_; }

 private:
  friend class HypergraphBuilder;

  std::vector<double> node_size_;
  std::vector<double> net_capacity_;
  std::vector<std::size_t> net_offset_;   // size m+1
  std::vector<NodeId> net_pins_;          // size p
  std::vector<std::size_t> node_offset_;  // size n+1
  std::vector<NetId> node_nets_;          // size p
  std::vector<std::string> node_name_;    // empty or size n
  std::vector<std::string> net_name_;     // empty or size m
  double total_size_ = 0.0;
  bool unit_sizes_ = true;
};

/// Incremental builder for Hypergraph.
///
/// Duplicate pins within one net are merged; nets that end up with fewer than
/// two distinct pins are dropped (their count is reported). Node sizes and
/// net capacities must be positive.
class HypergraphBuilder {
 public:
  /// Adds a node and returns its id. `size` must be > 0.
  NodeId add_node(double size = 1.0, std::string name = {});
  /// Adds a net over `pin_nodes`. Capacity must be > 0. Returns the id the
  /// net will have *if kept*; nets with < 2 distinct pins are dropped at
  /// build() and later ids shift down accordingly, so callers that need
  /// stable ids should pass only valid nets.
  void add_net(std::span<const NodeId> pin_nodes, double capacity = 1.0,
               std::string name = {});
  void add_net(std::initializer_list<NodeId> pin_nodes, double capacity = 1.0,
               std::string name = {}) {
    add_net(std::span<const NodeId>(pin_nodes.begin(), pin_nodes.size()),
            capacity, std::move(name));
  }

  NodeId num_nodes() const { return static_cast<NodeId>(node_size_.size()); }

  /// Number of nets dropped so far for having < 2 distinct pins.
  std::size_t dropped_nets() const { return dropped_nets_; }

  /// Finalizes into an immutable Hypergraph. The builder is left empty.
  Hypergraph build();

 private:
  std::vector<double> node_size_;
  std::vector<std::string> node_name_;  // empty until a node is named
  std::vector<double> net_capacity_;
  std::vector<std::string> net_name_;   // empty until a net is named
  std::vector<std::size_t> net_offset_{0};
  std::vector<NodeId> net_pins_;
  std::size_t dropped_nets_ = 0;
};

/// Summary statistics of a netlist (the quantities of Table 1).
struct HypergraphStats {
  std::size_t nodes = 0;
  std::size_t nets = 0;
  std::size_t pins = 0;
  double total_size = 0.0;
  std::size_t max_net_degree = 0;
  double avg_net_degree = 0.0;
};

/// Computes Table-1 style statistics for `hg`.
HypergraphStats ComputeStats(const Hypergraph& hg);

}  // namespace htp
