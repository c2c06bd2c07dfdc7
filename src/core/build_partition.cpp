#include "core/build_partition.hpp"

#include <algorithm>

#include "netlist/subhypergraph.hpp"
#include "obs/obs.hpp"

namespace htp {
namespace {

obs::Counter c_builds("build.partitions");
obs::Counter c_carves("build.carves");
obs::Counter c_blocks("build.blocks");
obs::Counter c_max_depth("build.max_depth", obs::CounterKind::kMax);
obs::Timer t_build("build.partition");
// Per-level carve counts, `build.carves.l1` .. `build.carves.l8+` (carves
// only happen at levels >= 1; everything above 8 shares the last bucket).
obs::Counter& CarvesAtLevel(Level level) {
  static obs::Counter counters[] = {
      obs::Counter("build.carves.l1"),  obs::Counter("build.carves.l2"),
      obs::Counter("build.carves.l3"),  obs::Counter("build.carves.l4"),
      obs::Counter("build.carves.l5"),  obs::Counter("build.carves.l6"),
      obs::Counter("build.carves.l7"),  obs::Counter("build.carves.l8+")};
  return counters[std::min<std::size_t>(level >= 1 ? level - 1 : 0, 7)];
}

double SetSize(const Hypergraph& hg, const std::vector<NodeId>& nodes) {
  double s = 0.0;
  for (NodeId v : nodes) s += hg.node_size(v);
  return s;
}

double MaxNodeSize(const Hypergraph& hg) {
  double g = 0.0;
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    g = std::max(g, hg.node_size(v));
  return std::max(g, 1e-12);
}

class Builder {
 public:
  Builder(const Hypergraph& hg, const HierarchySpec& spec,
          const SpreadingMetric& metric, const CarveFn& carve, Rng& rng,
          TreePartition& tp, const CancellationToken& cancel)
      : hg_(hg), spec_(spec), metric_(metric), carve_(carve), rng_(rng),
        tp_(tp), cancel_(cancel), integral_(hg.unit_sizes()),
        granularity_(MaxNodeSize(hg)) {
    HTP_CHECK(metric.size() == hg.num_nets());
  }

  // Populates block `q` with `nodes` (ids in the root hypergraph);
  // `depth` counts recursion levels from the root call (telemetry only).
  void Build(BlockId q, std::vector<NodeId> nodes, std::size_t depth = 1) {
    c_max_depth.Add(depth);
    const double s = SetSize(hg_, nodes);
    // Descend a single-child chain while the whole set fits in one child,
    // so every leaf ends up at level 0 (Algorithm 3 step 2: the effective
    // top level is decided by the set's size).
    while (tp_.level(q) > 0 &&
           s <= spec_.AchievableCapacity(tp_.level(q) - 1, integral_,
                                         granularity_))
      q = tp_.AddChild(q);
    if (tp_.level(q) == 0) {
      HTP_CHECK_MSG(s <= spec_.capacity(0) + 1e-9,
                    "node set does not fit a leaf (is some node > C_0?)");
      for (NodeId v : nodes) tp_.AssignNode(v, q);
      return;
    }

    const Level l = tp_.level(q);
    // Carve against the achievable subtree capacity, not C_{l-1} directly:
    // a child the recursion cannot legally subdivide must never be created.
    const double ub = spec_.AchievableCapacity(l - 1, integral_, granularity_);
    const double lb =
        s / static_cast<double>(spec_.max_branches(l));  // Algorithm 3 step 2
    const std::size_t max_children = spec_.max_branches(l);

    std::vector<NodeId> remaining = std::move(nodes);
    std::size_t children = 0;
    while (!remaining.empty()) {
      const double rem_size = SetSize(hg_, remaining);
      const std::size_t children_left = max_children - children;
      if (rem_size <= ub || children_left <= 1) {
        // Final child takes everything still here; an over-capacity final
        // child means the instance (or a carve fallback) was infeasible and
        // is caught by validation.
        c_blocks.Add();
        Build(tp_.AddChild(q), std::move(remaining), depth + 1);
        ++children;
        break;
      }
      // Raise the lower bound so the leftover still fits the remaining
      // child slots. Slots(j) is the largest leftover j further carves can
      // absorb: j*ub exactly for unit sizes, minus a (j-1)*granularity
      // bin-packing margin otherwise (so every later window stays at least
      // one node wide and prefix growth cannot step over it).
      const double j = static_cast<double>(children_left - 1);
      const double slots =
          integral_ ? j * ub : j * ub - std::max(0.0, j - 1.0) * granularity_;
      const double lb_eff = std::max(lb, rem_size - slots);

      // Safepoint: between carve steps (never inside one). A partition
      // under construction cannot be returned partially, so a fired token
      // unwinds via CancelledError to the caller's catch.
      if (cancel_.Cancelled()) throw CancelledError();

      SubHypergraph sub = InducedSubHypergraph(hg_, remaining);
      std::vector<double> sub_metric(sub.hg.num_nets());
      for (NetId e = 0; e < sub.hg.num_nets(); ++e)
        sub_metric[e] = metric_[sub.net_to_parent[e]];

      c_carves.Add();
      CarvesAtLevel(l).Add();
      const CarveResult cut =
          carve_(sub.hg, sub_metric, std::min(lb_eff, ub), ub, rng_);
      HTP_CHECK_MSG(!cut.nodes.empty(), "carver returned an empty block");

      std::vector<char> taken(sub.hg.num_nodes(), 0);
      std::vector<NodeId> carved;
      carved.reserve(cut.nodes.size());
      for (NodeId local : cut.nodes) {
        taken[local] = 1;
        carved.push_back(sub.node_to_parent[local]);
      }
      std::vector<NodeId> rest;
      rest.reserve(remaining.size() - carved.size());
      for (NodeId local = 0; local < sub.hg.num_nodes(); ++local)
        if (!taken[local]) rest.push_back(sub.node_to_parent[local]);

      c_blocks.Add();
      Build(tp_.AddChild(q), std::move(carved), depth + 1);
      ++children;
      remaining = std::move(rest);
    }
  }

 private:
  const Hypergraph& hg_;
  const HierarchySpec& spec_;
  const SpreadingMetric& metric_;
  const CarveFn& carve_;
  Rng& rng_;
  TreePartition& tp_;
  const CancellationToken& cancel_;
  bool integral_;
  double granularity_;
};

}  // namespace

void BuildPartitionSubtree(TreePartition& tp, BlockId q,
                           std::vector<NodeId> nodes,
                           const HierarchySpec& spec,
                           const SpreadingMetric& metric, const CarveFn& carve,
                           Rng& rng, const CancellationToken& cancel) {
  HTP_CHECK(!nodes.empty());
  HTP_CHECK_MSG(tp.children(q).empty(),
                "subtree build target must not already have children");
  obs::PhaseScope obs_span(t_build);
  Builder builder(tp.hypergraph(), spec, metric, carve, rng, tp, cancel);
  builder.Build(q, std::move(nodes));
}

TreePartition BuildPartitionTopDown(const Hypergraph& hg,
                                    const HierarchySpec& spec,
                                    const SpreadingMetric& metric,
                                    const CarveFn& carve, Rng& rng,
                                    const CancellationToken& cancel) {
  HTP_CHECK(hg.num_nodes() > 0);
  obs::PhaseScope obs_span(t_build);
  c_builds.Add();
  TreePartition tp(hg, spec.LevelForSize(hg.total_size()));
  std::vector<NodeId> all(hg.num_nodes());
  for (NodeId v = 0; v < hg.num_nodes(); ++v) all[v] = v;
  Builder builder(hg, spec, metric, carve, rng, tp, cancel);
  builder.Build(TreePartition::kRoot, std::move(all));
  HTP_CHECK(tp.fully_assigned());
  return tp;
}

}  // namespace htp
