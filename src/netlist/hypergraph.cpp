#include "netlist/hypergraph.hpp"

#include <algorithm>
#include <numeric>

namespace htp {

NodeId HypergraphBuilder::add_node(double size, std::string name) {
  HTP_CHECK_MSG(size > 0.0, "node size must be positive");
  node_size_.push_back(size);
  // Names are stored from the first named node on; build() pads the rest.
  if (!name.empty()) {
    node_name_.resize(node_size_.size());
    node_name_.back() = std::move(name);
  }
  return static_cast<NodeId>(node_size_.size() - 1);
}

void HypergraphBuilder::add_net(std::span<const NodeId> pin_nodes,
                                double capacity, std::string name) {
  HTP_CHECK_MSG(capacity > 0.0, "net capacity must be positive");
  // Stage the pins at the tail of net_pins_, sort them there and merge
  // duplicates: a net stores its distinct pins in ascending order.
  const std::size_t begin = net_pins_.size();
  net_pins_.insert(net_pins_.end(), pin_nodes.begin(), pin_nodes.end());
  const auto first = net_pins_.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(first, net_pins_.end());
  net_pins_.erase(std::unique(first, net_pins_.end()), net_pins_.end());
  const std::size_t distinct = net_pins_.size() - begin;
  // The sorted tail ends in its largest pin. A rejected or dropped net is
  // truncated away, leaving the builder as it found it.
  const bool known = distinct == 0 || net_pins_.back() < node_size_.size();
  if (!known || distinct < 2) net_pins_.resize(begin);
  HTP_CHECK_MSG(known, "net references unknown node");
  if (distinct < 2) {
    ++dropped_nets_;
    return;
  }
  net_offset_.push_back(net_pins_.size());
  net_capacity_.push_back(capacity);
  if (!name.empty()) {
    net_name_.resize(net_capacity_.size());
    net_name_.back() = std::move(name);
  }
}

Hypergraph HypergraphBuilder::build() {
  Hypergraph hg;
  if (!node_name_.empty() || !net_name_.empty()) {
    // Names are a named hypergraph's largest arrays (a string per node and
    // net) and grew by doubling; a hypergraph lives long, so it keeps only
    // the names it holds.
    node_name_.resize(node_size_.size());
    net_name_.resize(net_capacity_.size());
    node_name_.shrink_to_fit();
    net_name_.shrink_to_fit();
    hg.node_name_ = std::move(node_name_);
    hg.net_name_ = std::move(net_name_);
  }
  hg.node_size_ = std::move(node_size_);
  hg.net_capacity_ = std::move(net_capacity_);
  hg.net_offset_ = std::move(net_offset_);
  hg.net_pins_ = std::move(net_pins_);
  hg.total_size_ =
      std::accumulate(hg.node_size_.begin(), hg.node_size_.end(), 0.0);
  hg.unit_sizes_ = std::all_of(hg.node_size_.begin(), hg.node_size_.end(),
                               [](double s) { return s == 1.0; });

  // Build the node -> nets CSR by counting then filling.
  const NodeId n = hg.num_nodes();
  hg.node_offset_.assign(n + 1, 0);
  for (NodeId v : hg.net_pins_) ++hg.node_offset_[v + 1];
  for (NodeId v = 0; v < n; ++v) hg.node_offset_[v + 1] += hg.node_offset_[v];
  hg.node_nets_.resize(hg.net_pins_.size());
  std::vector<std::size_t> cursor(hg.node_offset_.begin(),
                                  hg.node_offset_.end() - 1);
  for (NetId e = 0; e < hg.num_nets(); ++e)
    for (NodeId v : hg.pins(e)) hg.node_nets_[cursor[v]++] = e;

  *this = HypergraphBuilder();
  return hg;
}

HypergraphStats ComputeStats(const Hypergraph& hg) {
  HypergraphStats st;
  st.nodes = hg.num_nodes();
  st.nets = hg.num_nets();
  st.pins = hg.num_pins();
  st.total_size = hg.total_size();
  for (NetId e = 0; e < hg.num_nets(); ++e)
    st.max_net_degree = std::max(st.max_net_degree, hg.net_degree(e));
  st.avg_net_degree =
      st.nets == 0 ? 0.0
                   : static_cast<double>(st.pins) / static_cast<double>(st.nets);
  return st;
}

}  // namespace htp
