#include "graph/dijkstra.hpp"

#include <utility>

#include "obs/obs.hpp"

namespace htp {
namespace {

obs::Counter c_calls("dijkstra.calls");
obs::Counter c_settled("dijkstra.settled");
obs::Counter c_pops("dijkstra.pops");
obs::Counter c_relaxations("dijkstra.relaxations");

}  // namespace

void RecordDijkstraCounters(const DijkstraStats& stats, std::uint64_t calls) {
  c_calls.Add(calls);
  c_settled.Add(stats.settled);
  c_pops.Add(stats.pops);
  c_relaxations.Add(stats.relaxations);
}

std::vector<NetId> TreeNets(const ShortestPathTree& tree) {
  std::vector<NetId> nets;
  TreeNetsInto(tree, nets);
  return nets;
}

void TreeNetsInto(const ShortestPathTree& tree, std::vector<NetId>& nets) {
  nets.clear();
  for (NodeId u : tree.order)
    if (tree.parent[u].net != kInvalidNet) nets.push_back(tree.parent[u].net);
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
}

std::vector<std::pair<NetId, double>> TreeSubtreeSizes(
    const Hypergraph& hg, const ShortestPathTree& tree) {
  // Subtree weight of each settled node: its own size plus all descendants
  // in the shortest-path tree. Settling order is topological (parents settle
  // before children), so one reverse sweep accumulates weights bottom-up.
  std::vector<double> subtree(hg.num_nodes(), 0.0);
  for (NodeId u : tree.order) subtree[u] = hg.node_size(u);
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    const NodeId u = *it;
    if (tree.parent[u].node != kInvalidNode)
      subtree[tree.parent[u].node] += subtree[u];
  }
  // delta(S, e): removing net e disconnects every tree child attached
  // through e, so sum the subtree weights over nodes whose parent net is e.
  std::vector<std::pair<NetId, double>> result;
  std::vector<NetId> nets = TreeNets(tree);
  result.reserve(nets.size());
  for (NetId e : nets) result.emplace_back(e, 0.0);
  // Binary-search position per parent net (nets is sorted).
  for (NodeId u : tree.order) {
    const NetId e = tree.parent[u].net;
    if (e == kInvalidNet) continue;
    const auto it =
        std::lower_bound(nets.begin(), nets.end(), e);
    result[static_cast<std::size_t>(it - nets.begin())].second += subtree[u];
  }
  return result;
}

}  // namespace htp
