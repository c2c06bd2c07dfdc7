#include "partition/gfm.hpp"

#include <algorithm>
#include <map>

#include "netlist/subhypergraph.hpp"
#include "partition/rfm.hpp"

namespace htp {
namespace {

// Greedy agglomerative grouping of `k` items (current blocks) into parents
// with at most `max_items` children and total size at most `capacity`.
// Heaviest feasible connectivity merge first; returns the parent index per
// item.
std::vector<std::size_t> AgglomerateGroups(
    const std::vector<double>& sizes,
    const std::map<std::pair<std::size_t, std::size_t>, double>& weights,
    std::size_t max_items, double capacity) {
  const std::size_t k = sizes.size();
  std::vector<std::size_t> group(k);
  std::vector<double> group_size = sizes;
  std::vector<std::size_t> group_items(k, 1);
  for (std::size_t i = 0; i < k; ++i) group[i] = i;

  // Group-to-group accumulated weights, updated on merge.
  std::map<std::pair<std::size_t, std::size_t>, double> w = weights;
  auto feasible = [&](std::size_t a, std::size_t b) {
    return group_items[a] + group_items[b] <= max_items &&
           group_size[a] + group_size[b] <= capacity + 1e-9;
  };

  for (;;) {
    double best_w = -1.0;
    std::pair<std::size_t, std::size_t> best{0, 0};
    for (const auto& [pair, weight] : w) {
      if (!feasible(pair.first, pair.second)) continue;
      if (weight > best_w) {
        best_w = weight;
        best = pair;
      }
    }
    if (best_w < 0.0) {
      // No connected feasible merge left; also merge disconnected groups
      // (smallest first) so the count keeps shrinking toward the root.
      std::vector<std::size_t> alive;
      for (std::size_t i = 0; i < k; ++i)
        if (group[i] == i) alive.push_back(i);
      std::sort(alive.begin(), alive.end(), [&](std::size_t a, std::size_t b) {
        return group_size[a] < group_size[b];
      });
      bool merged = false;
      for (std::size_t i = 0; i < alive.size() && !merged; ++i)
        for (std::size_t j = i + 1; j < alive.size() && !merged; ++j)
          if (feasible(alive[i], alive[j])) {
            best = {alive[i], alive[j]};
            merged = true;
          }
      if (!merged) break;
    }

    // Merge best.second into best.first.
    const auto [a, b] = best;
    for (std::size_t i = 0; i < k; ++i)
      if (group[i] == b) group[i] = a;
    group_size[a] += group_size[b];
    group_items[a] += group_items[b];
    std::map<std::pair<std::size_t, std::size_t>, double> nw;
    for (const auto& [pair, weight] : w) {
      std::size_t x = pair.first == b ? a : pair.first;
      std::size_t y = pair.second == b ? a : pair.second;
      if (x == y) continue;
      if (x > y) std::swap(x, y);
      nw[{x, y}] += weight;
    }
    w = std::move(nw);
  }

  // Compact parent ids to [0, #groups).
  std::vector<std::size_t> compact(k, static_cast<std::size_t>(-1));
  std::size_t next = 0;
  std::vector<std::size_t> parents(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t rep = group[i];
    if (compact[rep] == static_cast<std::size_t>(-1)) compact[rep] = next++;
    parents[i] = compact[rep];
  }
  return parents;
}

}  // namespace

TreePartition RunGfm(const Hypergraph& hg, const HierarchySpec& spec,
                     const GfmParams& params) {
  HTP_CHECK(hg.num_nodes() > 0);
  Rng rng(params.seed);
  const Level root_level = spec.LevelForSize(hg.total_size());

  // Leaf-slot budget: the tree can host at most prod_l K_l leaves.
  double slots = 1.0;
  for (Level l = 1; l <= root_level; ++l)
    slots *= static_cast<double>(spec.max_branches(l));

  // Phase 1: carve the bottom-level multiway partition (capacity C_0 with
  // an FM min-cut carve per block), optimizing level-0 cuts only.
  std::vector<BlockId> leaf_of(hg.num_nodes(), kInvalidBlock);
  std::vector<NodeId> remaining(hg.num_nodes());
  for (NodeId v = 0; v < hg.num_nodes(); ++v) remaining[v] = v;
  BlockId num_leaves = 0;
  double granularity = 1e-12;
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    granularity = std::max(granularity, hg.node_size(v));
  const double c0 = spec.AchievableCapacity(0, hg.unit_sizes(), granularity);
  double slots_left = slots;
  while (!remaining.empty()) {
    double rem_size = 0.0;
    for (NodeId v : remaining) rem_size += hg.node_size(v);
    std::vector<NodeId> block_nodes;
    if (rem_size <= c0 || slots_left <= 1.0) {
      block_nodes = remaining;
      remaining.clear();
    } else {
      const double margin =
          hg.unit_sizes() ? 0.0
                          : std::max(0.0, slots_left - 2.0) * granularity;
      const double lb = std::min(
          c0, std::max(rem_size - ((slots_left - 1.0) * c0 - margin),
                       rem_size / slots_left));
      SubHypergraph sub = InducedSubHypergraph(hg, remaining);
      // Safepoint: before each phase-1 carve — degrade, never abort (see
      // GfmParams::cancel).
      const std::size_t passes =
          params.cancel.Cancelled() ? 1 : kFmCarvePasses;
      const CarveResult cut = FmCarve(sub.hg, lb, c0, rng, passes);
      std::vector<char> taken(sub.hg.num_nodes(), 0);
      for (NodeId local : cut.nodes) {
        taken[local] = 1;
        block_nodes.push_back(sub.node_to_parent[local]);
      }
      std::vector<NodeId> rest;
      for (NodeId local = 0; local < sub.hg.num_nodes(); ++local)
        if (!taken[local]) rest.push_back(sub.node_to_parent[local]);
      remaining = std::move(rest);
    }
    for (NodeId v : block_nodes) leaf_of[v] = num_leaves;
    ++num_leaves;
    slots_left -= 1.0;
  }

  // Phase 2: bottom-up grouping. childmap[l] = parent index of each
  // level-(l-1) block at level l.
  std::vector<std::vector<std::size_t>> parent_of_child(root_level + 1);
  std::vector<BlockId> cluster_of(leaf_of.begin(), leaf_of.end());
  std::size_t num_clusters = num_leaves;
  for (Level l = 1; l <= root_level; ++l) {
    // Sizes and pairwise connectivity of the current blocks.
    std::vector<double> sizes(num_clusters, 0.0);
    for (NodeId v = 0; v < hg.num_nodes(); ++v)
      sizes[cluster_of[v]] += hg.node_size(v);
    // Merged parallel nets carry the sum of their capacities, so each pair
    // weight is the same capacity sum over the nets spanning both blocks.
    const Hypergraph contracted = ContractClustersMerged(
        hg, cluster_of, static_cast<BlockId>(num_clusters));
    std::map<std::pair<std::size_t, std::size_t>, double> weights;
    for (NetId e = 0; e < contracted.num_nets(); ++e) {
      const auto pins = contracted.pins(e);
      for (std::size_t i = 0; i < pins.size(); ++i)
        for (std::size_t j = i + 1; j < pins.size(); ++j)
          weights[{std::min(pins[i], pins[j]), std::max(pins[i], pins[j])}] +=
              contracted.net_capacity(e);
    }
    // At the root level the grouping must collapse to a single group so the
    // tree has one root; feasibility overruns there (more than K_L children)
    // are surfaced by ValidatePartition rather than breaking assembly.
    const std::size_t max_items =
        l == root_level ? hg.num_nodes() : spec.max_branches(l);
    const double cap = l == root_level ? hg.total_size() : spec.capacity(l);
    parent_of_child[l] = AgglomerateGroups(sizes, weights, max_items, cap);
    std::size_t next_count = 0;
    for (std::size_t p : parent_of_child[l])
      next_count = std::max(next_count, p + 1);
    for (NodeId v = 0; v < hg.num_nodes(); ++v)
      cluster_of[v] = static_cast<BlockId>(parent_of_child[l][cluster_of[v]]);
    num_clusters = next_count;
  }
  HTP_CHECK_MSG(num_clusters == 1, "bottom-up grouping did not reach a root");

  // Assemble the TreePartition top-down: walk the grouping levels downward,
  // creating one child block per group.
  TreePartition tp(hg, root_level);
  std::vector<BlockId> current{TreePartition::kRoot};
  for (Level l = root_level; l >= 1; --l) {
    // parent_of_child[l] maps level-(l-1) groups to level-l groups.
    const std::vector<std::size_t>& parents = parent_of_child[l];
    std::size_t child_count = parents.size();
    std::vector<BlockId> next(child_count);
    for (std::size_t c = 0; c < child_count; ++c) {
      BlockId parent_block = current[parents[c]];
      // Descend single-child chains when the parent block sits above l.
      while (tp.level(parent_block) > l) parent_block = tp.AddChild(parent_block);
      next[c] = tp.AddChild(parent_block);
    }
    current = std::move(next);
  }
  // `current` now holds the level-0 leaf block per bottom block index.
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    tp.AssignNode(v, current[leaf_of[v]]);
  return tp;
}

}  // namespace htp
