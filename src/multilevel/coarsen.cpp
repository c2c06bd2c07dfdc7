#include "multilevel/coarsen.hpp"

#include <algorithm>

#include "netlist/subhypergraph.hpp"
#include "obs/obs.hpp"

namespace htp {
namespace {

// Coarsening telemetry (docs/observability.md). The coarsener is serial and
// RNG-free, so totals are invariant across every thread knob by
// construction.
obs::Counter c_passes("coarsen.passes");
obs::Counter c_nodes_merged("coarsen.nodes_merged");
obs::Counter c_stalled("coarsen.stalled_passes");
obs::Timer t_pass("coarsen.pass");

// Safety cap on coarsening passes.
constexpr std::size_t kMaxLevels = 64;

// The cluster rating: connection / (size * size) — KaHyPar's heavy-edge
// rating, which prefers tightly connected *small* partners and so keeps
// supernode sizes balanced. `connection` is the accumulated weight between
// a node and a candidate (sum over shared nets of c(e)/(|e|-1)). Higher
// wins; ties fall to the smaller candidate id.
double HeavyEdgeRating(double connection, double node_size,
                       double candidate_size) {
  return connection / (node_size * candidate_size);
}

// Accumulates the connection weight between `v` and each eligible neighbor
// (matching) or neighbor cluster (label propagation) into `conn`, recording
// the touched keys in `touched`. `key_of(u)` maps a pin to its scoring key
// or kInvalidNode for "skip". Weights are c(e)/(|e|-1), the standard
// hypergraph-to-graph expansion.
template <typename KeyOf>
void AccumulateConnections(const Hypergraph& hg, NodeId v,
                           std::size_t max_degree, const KeyOf& key_of,
                           std::vector<double>& conn,
                           std::vector<NodeId>& touched) {
  touched.clear();
  for (NetId e : hg.nets(v)) {
    const auto pins = hg.pins(e);
    if (pins.size() > max_degree) continue;
    const double w =
        hg.net_capacity(e) / static_cast<double>(pins.size() - 1);
    for (NodeId u : pins) {
      if (u == v) continue;
      const NodeId key = key_of(u);
      if (key == kInvalidNode) continue;
      if (conn[key] == 0.0) touched.push_back(key);  // capacities are > 0
      conn[key] += w;
    }
  }
  // First-touch order depends only on CSR layout, but sort anyway so the
  // tie-break ("smallest key wins") is explicit rather than incidental.
  std::sort(touched.begin(), touched.end());
}

std::vector<BlockId> HeavyEdgeMatchingPass(const Hypergraph& hg,
                                           const CoarsenParams& params,
                                           BlockId& num_clusters) {
  const NodeId n = hg.num_nodes();
  std::vector<BlockId> cluster_of(n, kInvalidBlock);
  std::vector<double> conn(n, 0.0);
  std::vector<NodeId> touched;
  BlockId next = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (cluster_of[v] != kInvalidBlock) continue;
    const double sv = hg.node_size(v);
    AccumulateConnections(
        hg, v, params.max_rating_net_degree,
        [&](NodeId u) {
          return cluster_of[u] == kInvalidBlock ? u : kInvalidNode;
        },
        conn, touched);
    NodeId best = kInvalidNode;
    double best_rating = 0.0;
    for (NodeId u : touched) {
      if (params.max_cluster_size > 0.0 &&
          sv + hg.node_size(u) > params.max_cluster_size)
        continue;
      const double r = HeavyEdgeRating(conn[u], sv, hg.node_size(u));
      if (r > best_rating) {  // strict: ties keep the smallest id
        best = u;
        best_rating = r;
      }
    }
    for (NodeId u : touched) conn[u] = 0.0;
    cluster_of[v] = next;
    if (best != kInvalidNode) cluster_of[best] = next;
    ++next;
  }
  num_clusters = next;
  return cluster_of;
}

std::vector<BlockId> LabelPropagationPass(const Hypergraph& hg,
                                          const CoarsenParams& params,
                                          BlockId& num_clusters) {
  const NodeId n = hg.num_nodes();
  std::vector<BlockId> cluster_of(n, kInvalidBlock);
  std::vector<double> cluster_size;
  std::vector<double> conn;  // indexed by cluster id
  std::vector<NodeId> touched;
  for (NodeId v = 0; v < n; ++v) {
    const double sv = hg.node_size(v);
    conn.resize(cluster_size.size(), 0.0);
    AccumulateConnections(
        hg, v, params.max_rating_net_degree,
        [&](NodeId u) {
          return cluster_of[u];  // kInvalidBlock == kInvalidNode: skip
        },
        conn, touched);
    BlockId best = kInvalidBlock;
    double best_rating = 0.0;
    for (BlockId c : touched) {
      if (params.max_cluster_size > 0.0 &&
          cluster_size[c] + sv > params.max_cluster_size)
        continue;
      const double r = HeavyEdgeRating(conn[c], sv, cluster_size[c]);
      if (r > best_rating) {  // strict: ties keep the smallest cluster id
        best = c;
        best_rating = r;
      }
    }
    for (BlockId c : touched) conn[c] = 0.0;
    if (best == kInvalidBlock) {
      cluster_of[v] = static_cast<BlockId>(cluster_size.size());
      cluster_size.push_back(sv);
    } else {
      cluster_of[v] = best;
      cluster_size[best] += sv;
    }
  }
  num_clusters = static_cast<BlockId>(cluster_size.size());
  return cluster_of;
}

}  // namespace

CoarsenLevel CoarsenOnce(const Hypergraph& fine, const CoarsenParams& params) {
  HTP_CHECK_MSG(fine.num_nodes() > 0, "cannot coarsen an empty hypergraph");
  obs::PhaseScope obs_span(t_pass);
  c_passes.Add();
  CoarsenLevel level;
  switch (params.scheme) {
    case CoarsenScheme::kHeavyEdgeMatching:
      level.cluster_of =
          HeavyEdgeMatchingPass(fine, params, level.num_clusters);
      break;
    case CoarsenScheme::kLabelPropagation:
      level.cluster_of =
          LabelPropagationPass(fine, params, level.num_clusters);
      break;
  }
  level.coarse =
      ContractClustersMerged(fine, level.cluster_of, level.num_clusters);
  c_nodes_merged.Add(fine.num_nodes() - level.num_clusters);
  if (level.num_clusters == fine.num_nodes()) c_stalled.Add();
  return level;
}

std::vector<CoarsenLevel> CoarsenToThreshold(const Hypergraph& hg,
                                             NodeId threshold,
                                             const CoarsenParams& params) {
  std::vector<CoarsenLevel> stack;
  stack.reserve(kMaxLevels);
  const Hypergraph* cur = &hg;
  while (cur->num_nodes() > threshold && stack.size() < kMaxLevels) {
    CoarsenLevel level = CoarsenOnce(*cur, params);
    // Stall guard: a pass that shrinks by < 5% is not worth stacking —
    // whatever blocked it (isolated nodes, the size cap) will block the
    // next pass too.
    if (std::uint64_t{level.num_clusters} * 20 >=
        std::uint64_t{cur->num_nodes()} * 19)
      break;
    stack.push_back(std::move(level));
    cur = &stack.back().coarse;
  }
  return stack;
}

}  // namespace htp
