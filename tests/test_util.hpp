// Shared helpers for the htp test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr_view.hpp"
#include "graph/dijkstra.hpp"
#include "netlist/hypergraph.hpp"
#include "netlist/rng.hpp"

namespace htp::testutil {

/// Deterministic random connected hypergraph: `n` unit-size nodes, a random
/// spanning tree (guaranteeing connectivity), plus `extra_nets` random nets
/// of degree 2..max_degree with unit capacities.
inline Hypergraph RandomConnectedHypergraph(NodeId n, std::size_t extra_nets,
                                            std::size_t max_degree,
                                            std::uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder builder;
  for (NodeId v = 0; v < n; ++v) builder.add_node(1.0);
  for (NodeId v = 1; v < n; ++v) {
    const NodeId u = static_cast<NodeId>(rng.next_below(v));
    builder.add_net({u, v});
  }
  for (std::size_t i = 0; i < extra_nets; ++i) {
    const std::size_t deg =
        2 + rng.next_below(std::max<std::size_t>(1, max_degree - 1));
    std::vector<NodeId> pins;
    for (std::size_t k = 0; k < deg; ++k)
      pins.push_back(static_cast<NodeId>(rng.next_below(n)));
    builder.add_net(pins);  // duplicate pins merged; degenerate nets dropped
  }
  return builder.build();
}

/// Brute-force single-source shortest distances over a hypergraph with net
/// lengths: Bellman-Ford-style relaxation until fixpoint (reference oracle
/// for Dijkstra).
inline std::vector<double> BruteForceDistances(
    const Hypergraph& hg, NodeId source, std::span<const double> net_length) {
  std::vector<double> dist(hg.num_nodes(),
                           std::numeric_limits<double>::infinity());
  dist[source] = 0.0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NetId e = 0; e < hg.num_nets(); ++e) {
      double best = std::numeric_limits<double>::infinity();
      for (NodeId v : hg.pins(e)) best = std::min(best, dist[v]);
      const double cand = best + net_length[e];
      for (NodeId v : hg.pins(e)) {
        if (cand < dist[v] - 1e-12) {
          dist[v] = cand;
          changed = true;
        }
      }
    }
  }
  return dist;
}

/// Reference shortest-path growth: a plain binary-heap Dijkstra that walks
/// the Hypergraph itself, with the library's (dist, node) tie-break. The
/// oracle DijkstraWorkspace::Grow is compared against bit for bit:
/// distances, parents, settling order, visitor states, and work counts
/// (pops include stale heap entries). `visitor` and `stats` follow the Grow
/// contract.
template <typename Visitor>
ShortestPathTree ReferenceGrow(const Hypergraph& hg, NodeId source,
                               std::span<const double> net_length,
                               Visitor&& visitor,
                               DijkstraStats* stats = nullptr) {
  struct Entry {
    double dist;
    NodeId node;
  };
  // Min-heap order on (dist, node): `a` comes after `b`.
  const auto after = [](const Entry& a, const Entry& b) {
    return a.dist > b.dist || (a.dist == b.dist && a.node > b.node);
  };
  ShortestPathTree out;
  out.source = source;
  out.dist.assign(hg.num_nodes(), kInfDist);
  out.parent.assign(hg.num_nodes(), TreeParent{});
  // Tentative distances and parents are staged apart from the output, which
  // is written on settle only: unsettled nodes keep the invalid parent even
  // when the visitor truncates the growth mid-frontier.
  std::vector<double> tentative(hg.num_nodes(), kInfDist);
  std::vector<TreeParent> staged(hg.num_nodes());
  std::vector<bool> relaxed(hg.num_nets(), false);
  std::vector<Entry> heap{{0.0, source}};
  tentative[source] = 0.0;
  double tree_size = 0.0, weighted_dist = 0.0;
  std::uint64_t pops = 0, relaxations = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const Entry top = heap.back();
    heap.pop_back();
    ++pops;
    const NodeId u = top.node;
    if (out.settled(u) || top.dist > tentative[u]) continue;  // stale entry
    out.dist[u] = top.dist;
    out.parent[u] = staged[u];
    out.order.push_back(u);
    tree_size += hg.node_size(u);
    weighted_dist += hg.node_size(u) * top.dist;
    if (visitor(GrowState{u, top.dist, tree_size, weighted_dist,
                          out.order.size()}) == GrowAction::kStop)
      break;
    for (NetId e : hg.nets(u)) {
      if (relaxed[e]) continue;  // relaxed from an earlier-settled pin
      relaxed[e] = true;
      const double cand = top.dist + net_length[e];
      for (NodeId x : hg.pins(e)) {
        if (out.settled(x) || cand >= tentative[x]) continue;
        tentative[x] = cand;
        staged[x] = {e, u};
        heap.push_back({cand, x});
        std::push_heap(heap.begin(), heap.end(), after);
        ++relaxations;
      }
    }
  }
  if (stats) {
    stats->pops += pops;
    stats->relaxations += relaxations;
    stats->settled += out.order.size();
  }
  return out;
}

/// Full reference growth (no early stop).
inline ShortestPathTree ReferenceDijkstra(const Hypergraph& hg, NodeId source,
                                          std::span<const double> net_length) {
  return ReferenceGrow(hg, source, net_length, [](const GrowState&) {
    return GrowAction::kContinue;
  });
}

/// One growth on the library engine: a fresh workspace over `view`.
template <typename Visitor>
ShortestPathTree GrowOnView(const CsrView& view, NodeId source,
                            std::span<const double> net_length,
                            Visitor&& visitor) {
  DijkstraWorkspace workspace;
  ShortestPathTree tree;
  workspace.Grow(view, source, net_length, std::forward<Visitor>(visitor),
                 tree);
  return tree;
}

/// Full growth on the library engine over `view` (no early stop).
inline ShortestPathTree CsrDijkstra(const CsrView& view, NodeId source,
                                    std::span<const double> net_length) {
  return GrowOnView(view, source, net_length, [](const GrowState&) {
    return GrowAction::kContinue;
  });
}

}  // namespace htp::testutil
