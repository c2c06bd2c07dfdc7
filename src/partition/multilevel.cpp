#include "partition/multilevel.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/build_partition.hpp"
#include "netlist/subhypergraph.hpp"

namespace htp {
namespace {

// One randomized heavy-edge matching pass: returns the cluster id per node
// (matched pairs share an id; singletons keep their own) and the cluster
// count. Connectivity between u and v is sum over shared nets of
// c(e)/(|e|-1), the standard hyperedge weight split.
std::vector<BlockId> HeavyEdgeMatching(const Hypergraph& hg,
                                       double max_cluster_size, Rng& rng,
                                       BlockId& num_clusters) {
  const NodeId n = hg.num_nodes();
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  rng.shuffle(order);

  std::vector<NodeId> match(n, kInvalidNode);
  std::unordered_map<NodeId, double> connectivity;
  for (NodeId v : order) {
    if (match[v] != kInvalidNode) continue;
    connectivity.clear();
    for (NetId e : hg.nets(v)) {
      const double w =
          hg.net_capacity(e) / static_cast<double>(hg.net_degree(e) - 1);
      for (NodeId u : hg.pins(e)) {
        if (u == v || match[u] != kInvalidNode) continue;
        if (hg.node_size(v) + hg.node_size(u) > max_cluster_size) continue;
        connectivity[u] += w;
      }
    }
    NodeId best = kInvalidNode;
    double best_w = 0.0;
    for (const auto& [u, w] : connectivity) {
      if (w > best_w || (w == best_w && (best == kInvalidNode || u < best))) {
        best = u;
        best_w = w;
      }
    }
    if (best != kInvalidNode) {
      match[v] = best;
      match[best] = v;
    }
  }

  std::vector<BlockId> cluster(n, kInvalidBlock);
  num_clusters = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (cluster[v] != kInvalidBlock) continue;
    cluster[v] = num_clusters;
    if (match[v] != kInvalidNode) cluster[match[v]] = num_clusters;
    ++num_clusters;
  }
  return cluster;
}

}  // namespace

Bipartition MultilevelBipartition(const Hypergraph& hg,
                                  const FmBipartitionParams& window, Rng& rng,
                                  const VCycleParams& params) {
  HTP_CHECK(hg.num_nodes() >= 2);
  HTP_CHECK(params.min_shrink > 0.0 && params.min_shrink < 1.0);

  // Coarsening phase: keep the contraction maps for projection.
  std::vector<Hypergraph> levels;  // levels[0] = input
  std::vector<std::vector<BlockId>> cluster_maps;  // node@i -> node@i+1
  levels.push_back(hg);  // copy; levels are owned here
  const double max_cluster =
      std::max(params.max_cluster_fraction * hg.total_size(),
               2.0 * hg.total_size() / static_cast<double>(hg.num_nodes()));
  while (levels.back().num_nodes() > params.coarsest_nodes) {
    const Hypergraph& current = levels.back();
    BlockId num_clusters = 0;
    std::vector<BlockId> cluster =
        HeavyEdgeMatching(current, max_cluster, rng, num_clusters);
    if (static_cast<double>(num_clusters) >
        (1.0 - params.min_shrink) * static_cast<double>(current.num_nodes()))
      break;  // matching stalled
    SubHypergraph coarse = ContractClusters(current, cluster, num_clusters);
    cluster_maps.push_back(std::move(cluster));
    levels.push_back(std::move(coarse.hg));
  }

  // Initial solution at the coarsest level, then project-and-refine up.
  FmBipartitionParams fm = window;
  fm.max_passes = params.fm_passes;
  Bipartition part = FmBipartition(levels.back(), fm, rng);
  for (std::size_t level = levels.size() - 1; level-- > 0;) {
    std::vector<char> side(levels[level].num_nodes());
    for (NodeId v = 0; v < levels[level].num_nodes(); ++v)
      side[v] = part.side[cluster_maps[level][v]];
    Bipartition projected;
    projected.side = std::move(side);
    part = FmRefineBipartition(levels[level], std::move(projected), fm);
  }
  return part;
}

CarveFn MultilevelCarver(VCycleParams params) {
  return [params](const Hypergraph& hg, std::span<const double>, double lb,
                  double ub, Rng& rng) {
    CarveResult result;
    if (hg.total_size() <= ub) {
      for (NodeId v = 0; v < hg.num_nodes(); ++v) result.nodes.push_back(v);
      result.size = hg.total_size();
      result.in_window = hg.total_size() >= lb;
      return result;
    }
    FmBipartitionParams window;
    window.min_size0 = lb;
    window.max_size0 = ub;
    window.max_passes = params.fm_passes;
    Bipartition part;
    try {
      part = MultilevelBipartition(hg, window, rng, params);
    } catch (const Error&) {
      // Coarse supernodes can be too chunky for a narrow window; fall back
      // to the flat FM bipartitioner on the original hypergraph.
      part = FmBipartition(hg, window, rng);
    }
    for (NodeId v = 0; v < hg.num_nodes(); ++v)
      if (part.side[v] == 0) result.nodes.push_back(v);
    result.cut_value = part.cut;
    result.size = part.size0;
    result.in_window =
        part.size0 >= lb - 1e-9 && part.size0 <= ub + 1e-9;
    return result;
  };
}

TreePartition RunMlfm(const Hypergraph& hg, const HierarchySpec& spec,
                      const MlfmParams& params) {
  Rng rng(params.seed);
  const SpreadingMetric zero(hg.num_nets(), 0.0);
  return BuildPartitionTopDown(hg, spec, zero,
                               MultilevelCarver(params.multilevel), rng);
}

}  // namespace htp
