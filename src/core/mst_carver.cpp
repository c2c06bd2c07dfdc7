#include "core/mst_carver.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "obs/obs.hpp"

namespace htp {
namespace {

obs::Counter c_calls("carve.mst_split.calls");
obs::Counter c_in_window("carve.mst_split.in_window");
obs::Counter c_candidates("carve.mst_split.candidates");
obs::Counter c_fallbacks("carve.mst_split.fallbacks");
obs::Timer t_mst_split("carve.mst_split");

struct QueueEntry {
  double key;
  std::uint64_t rank;
  NodeId node;
  bool operator>(const QueueEntry& other) const {
    if (key != other.key) return key > other.key;
    if (rank != other.rank) return rank > other.rank;
    return node > other.node;
  }
};

// Prim spanning forest with explicit parent nodes (the settled pin that
// first scanned the attaching net). Random start per component.
struct Forest {
  std::vector<NodeId> order;        // settle order, roots first per tree
  std::vector<NodeId> parent;       // kInvalidNode for roots
};

Forest GrowForest(const Hypergraph& hg, std::span<const double> net_length,
                  Rng& rng) {
  const NodeId n = hg.num_nodes();
  Forest forest;
  forest.parent.assign(n, kInvalidNode);
  std::vector<std::uint64_t> rank(n);
  for (NodeId v = 0; v < n; ++v) rank[v] = rng.next_u64();
  std::vector<char> in_tree(n, 0);
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<NodeId> offer_parent(n, kInvalidNode);
  std::vector<char> net_scanned(hg.num_nets(), 0);
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> q;

  NodeId seed = static_cast<NodeId>(rng.next_below(n));
  for (NodeId settled = 0; settled < n;) {
    NodeId u = kInvalidNode;
    while (!q.empty()) {
      const QueueEntry top = q.top();
      q.pop();
      if (!in_tree[top.node] && top.key <= best[top.node]) {
        u = top.node;
        break;
      }
    }
    if (u == kInvalidNode) {  // new component root
      while (in_tree[seed]) seed = (seed + 1) % n;
      u = seed;
      offer_parent[u] = kInvalidNode;
    }
    in_tree[u] = 1;
    ++settled;
    forest.order.push_back(u);
    forest.parent[u] = offer_parent[u];
    for (NetId e : hg.nets(u)) {
      if (net_scanned[e]) continue;
      net_scanned[e] = 1;
      const double key = net_length[e];
      for (NodeId x : hg.pins(e)) {
        if (in_tree[x] || key >= best[x]) continue;
        best[x] = key;
        offer_parent[x] = u;
        q.push({key, rank[x], x});
      }
    }
  }
  return forest;
}

// Exact capacity-weighted hypergraph cut of a node set.
double ExactCut(const Hypergraph& hg, const std::vector<NodeId>& nodes,
                std::vector<std::size_t>& inside_scratch,
                std::vector<NetId>& touched_scratch) {
  touched_scratch.clear();
  for (NodeId v : nodes) {
    for (NetId e : hg.nets(v)) {
      if (inside_scratch[e]++ == 0) touched_scratch.push_back(e);
    }
  }
  double cut = 0.0;
  for (NetId e : touched_scratch) {
    if (inside_scratch[e] < hg.net_degree(e)) cut += hg.net_capacity(e);
    inside_scratch[e] = 0;
  }
  return cut;
}

}  // namespace

CarveResult MstSplitCarve(const Hypergraph& hg,
                          std::span<const double> net_length, double lb,
                          double ub, Rng& rng) {
  HTP_CHECK(net_length.size() == hg.num_nets());
  HTP_CHECK(hg.num_nodes() > 0);
  obs::ScopedTimer obs_timer(t_mst_split);
  c_calls.Add();
  const NodeId n = hg.num_nodes();
  const Forest forest = GrowForest(hg, net_length, rng);

  // Subtree sizes bottom-up (settle order is topological).
  std::vector<double> subtree(n, 0.0);
  for (NodeId v = 0; v < n; ++v) subtree[v] = hg.node_size(v);
  for (auto it = forest.order.rbegin(); it != forest.order.rend(); ++it)
    if (forest.parent[*it] != kInvalidNode)
      subtree[forest.parent[*it]] += subtree[*it];

  // Children lists for subtree extraction.
  std::vector<std::vector<NodeId>> children(n);
  for (NodeId v : forest.order)
    if (forest.parent[v] != kInvalidNode) children[forest.parent[v]].push_back(v);

  // Candidate roots whose subtree size lands in the window; cap the exact
  // evaluations to keep the carve near-linear.
  std::vector<NodeId> candidates;
  for (NodeId v : forest.order)
    if (subtree[v] >= lb - 1e-9 && subtree[v] <= ub + 1e-9)
      candidates.push_back(v);
  constexpr std::size_t kMaxEvaluations = 128;
  if (candidates.size() > kMaxEvaluations) {
    rng.shuffle(candidates);
    candidates.resize(kMaxEvaluations);
  }
  c_candidates.Add(candidates.size());

  CarveResult best;
  std::vector<std::size_t> inside(hg.num_nets(), 0);
  std::vector<NetId> touched;
  std::vector<NodeId> stack, nodes;
  for (NodeId root : candidates) {
    nodes.clear();
    stack.assign(1, root);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      nodes.push_back(v);
      stack.insert(stack.end(), children[v].begin(), children[v].end());
    }
    const double cut = ExactCut(hg, nodes, inside, touched);
    if (!best.in_window || cut < best.cut_value) {
      best.nodes = nodes;
      best.cut_value = cut;
      best.size = subtree[root];
      best.in_window = true;
    }
  }
  if (best.in_window) {
    c_in_window.Add();
    return best;
  }
  // No 1-respecting subtree hits the window (e.g. star topologies): fall
  // back to the prefix-growth carver.
  c_fallbacks.Add();
  return MetricFindCut(hg, net_length, lb, ub, rng);
}

}  // namespace htp
