#include "netlist/subhypergraph.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>

namespace htp {

SubHypergraph InducedSubHypergraph(const Hypergraph& parent,
                                   std::span<const NodeId> nodes) {
  SubHypergraph sub;
  std::vector<NodeId> parent_to_sub(parent.num_nodes(), kInvalidNode);
  HypergraphBuilder builder;
  for (NodeId pv : nodes) {
    HTP_CHECK(pv < parent.num_nodes());
    HTP_CHECK_MSG(parent_to_sub[pv] == kInvalidNode,
                  "duplicate node in induced set");
    parent_to_sub[pv] =
        builder.add_node(parent.node_size(pv), parent.node_name(pv));
    sub.node_to_parent.push_back(pv);
  }

  // Visit each candidate net once: a net is a candidate iff one of its pins
  // is in the set; dedupe by marking.
  std::vector<char> net_seen(parent.num_nets(), 0);
  std::vector<NodeId> restricted;
  for (NodeId pv : nodes) {
    for (NetId pe : parent.nets(pv)) {
      if (net_seen[pe]) continue;
      net_seen[pe] = 1;
      restricted.clear();
      for (NodeId pin : parent.pins(pe))
        if (parent_to_sub[pin] != kInvalidNode)
          restricted.push_back(parent_to_sub[pin]);
      if (restricted.size() < 2) continue;
      builder.add_net(restricted, parent.net_capacity(pe),
                      parent.net_name(pe));
      sub.net_to_parent.push_back(pe);
    }
  }
  sub.hg = builder.build();
  HTP_CHECK(sub.hg.num_nets() == sub.net_to_parent.size());
  return sub;
}

Hypergraph ContractClustersMerged(const Hypergraph& parent,
                                  std::span<const BlockId> cluster_of,
                                  BlockId num_clusters) {
  HTP_CHECK(cluster_of.size() == parent.num_nodes());
  HypergraphBuilder builder;
  std::vector<double> sizes(num_clusters, 0.0);
  for (NodeId v = 0; v < parent.num_nodes(); ++v) {
    HTP_CHECK_MSG(cluster_of[v] < num_clusters, "cluster id out of range");
    sizes[cluster_of[v]] += parent.node_size(v);
  }
  for (BlockId c = 0; c < num_clusters; ++c) {
    HTP_CHECK_MSG(sizes[c] > 0.0, "empty cluster in contraction");
    builder.add_node(sizes[c]);
  }

  // Dedupe by contracted pin set: the map only looks up, so the coarse net
  // order (and therefore the built hypergraph) is hash-independent.
  struct SpanHash {
    std::size_t operator()(const std::vector<NodeId>& pins) const {
      std::size_t h = pins.size();
      for (NodeId p : pins) h = h * 1000003u + p;
      return h;
    }
  };
  std::unordered_map<std::vector<NodeId>, std::size_t, SpanHash> seen;
  std::vector<std::vector<NodeId>> pin_sets;
  std::vector<double> capacities;
  std::vector<NodeId> touched;
  for (NetId pe = 0; pe < parent.num_nets(); ++pe) {
    touched.clear();
    for (NodeId pin : parent.pins(pe)) touched.push_back(cluster_of[pin]);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    if (touched.size() < 2) continue;
    auto [it, inserted] = seen.try_emplace(touched, pin_sets.size());
    if (inserted) {
      pin_sets.push_back(touched);
      capacities.push_back(parent.net_capacity(pe));
    } else {
      capacities[it->second] += parent.net_capacity(pe);
    }
  }
  for (std::size_t i = 0; i < pin_sets.size(); ++i)
    builder.add_net(pin_sets[i], capacities[i]);
  return builder.build();
}

Components ConnectedComponents(const Hypergraph& hg) {
  Components comps;
  comps.component_of.assign(hg.num_nodes(), kInvalidNode);
  std::vector<char> net_done(hg.num_nets(), 0);
  std::queue<NodeId> frontier;
  for (NodeId start = 0; start < hg.num_nodes(); ++start) {
    if (comps.component_of[start] != kInvalidNode) continue;
    const NodeId id = comps.count++;
    comps.component_of[start] = id;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (NetId e : hg.nets(v)) {
        if (net_done[e]) continue;
        net_done[e] = 1;
        for (NodeId u : hg.pins(e)) {
          if (comps.component_of[u] != kInvalidNode) continue;
          comps.component_of[u] = id;
          frontier.push(u);
        }
      }
    }
  }
  return comps;
}

}  // namespace htp
