#include "incremental/eco_repartition.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "core/cost.hpp"
#include "obs/obs.hpp"
#include "partition/htp_fm.hpp"

namespace htp {
namespace {

// ECO telemetry (docs/incremental.md has the counter table). Every total is
// a pure function of (state, delta, knobs), so the whole family shares the
// thread-invariance guarantee.
obs::Counter c_runs("eco.runs");
obs::Counter c_reused("eco.blocks_reused");
obs::Counter c_recarved("eco.blocks_recarved");
obs::Counter c_rebuilds("eco.full_rebuilds");
obs::Counter c_warm_rounds("eco.warm_rounds");
obs::Counter c_warm_injections("eco.warm_injections");
obs::Counter c_touched_nodes("eco.touched_nodes");
obs::Counter c_touched_nets("eco.touched_nets");
obs::Timer t_repartition("eco.repartition");
obs::Timer t_stitch("eco.stitch");
// One journal record per root subtree cloned verbatim from the prior
// partition; `block` is the subtree's root id in the PRIOR partition.
obs::Event e_reused("eco.block_reused");

// Mirrors the old subtree rooted at `q_old` into the new partition under
// `q_new`: children are recreated in stored (id) order — the depth-first
// order the original construction issued them in — so a whole-tree clone
// reproduces the prior partition's block numbering exactly.
void CloneSubtree(const TreePartition& old_tp, BlockId q_old,
                  TreePartition& tp, BlockId q_new,
                  const std::vector<std::vector<NodeId>>& leaf_members,
                  const std::vector<NodeId>& node_to_new) {
  if (old_tp.level(q_old) == 0) {
    for (const NodeId v : leaf_members[q_old])
      tp.AssignNode(node_to_new[v], q_new);
    return;
  }
  for (const BlockId child : old_tp.children(q_old))
    CloneSubtree(old_tp, child, tp, tp.AddChild(q_new), leaf_members,
                 node_to_new);
}

}  // namespace

EcoResult RunEcoRepartition(const DeltaApplication& app,
                            const HierarchySpec& spec,
                            const TreePartition& old_tp,
                            const SpreadingMetric& warm,
                            const EcoParams& params) {
  HTP_CHECK(app.hg != nullptr);
  const Hypergraph& hg = *app.hg;
  const Hypergraph& old_hg = old_tp.hypergraph();
  HTP_CHECK_MSG(warm.size() == hg.num_nets(),
                "warm metric must span the edited netlist's nets");
  HTP_CHECK_MSG(app.node_to_new.size() == old_hg.num_nodes(),
                "delta application does not match the prior partition");
  HTP_CHECK_MSG(old_tp.fully_assigned(),
                "prior partition must be fully assigned");
  obs::PhaseScope run_span(t_repartition);
  c_runs.Add();
  c_touched_nodes.Add(static_cast<std::uint64_t>(
      std::count(app.node_touched.begin(), app.node_touched.end(), 1)));
  c_touched_nets.Add(static_cast<std::uint64_t>(
      std::count(app.net_touched.begin(), app.net_touched.end(), 1)));

  const CancellationToken cancel =
      StartBudget(params.flow.budget, params.flow.cancel);

  // RNG streams mirror RunHtpFlow's iteration 0 draw for draw, so an
  // empty-delta ECO run resumes exactly where the converged run left off.
  // Construction replica r draws fork(1000 + r): replica 0 is the exact
  // cold iteration-0 construct stream.
  Rng master(params.flow.seed);
  const std::uint64_t injection_seed = master.fork(0).next_u64();
  Rng metric_rng = master.fork(2000);
  const std::size_t replicas =
      std::max<std::size_t>(1, params.construction_replicas);

  // --- 1. Warm metric re-convergence (the only budget-scoped stage). ---
  FlowInjectionParams inj = FlowMetricInjection(params.flow, cancel);
  inj.seed = injection_seed;
  inj.warm_metric = std::make_shared<const SpreadingMetric>(warm);
  const FlowInjectionResult converged =
      ComputeFlowMetric(params.flow, hg, spec, inj);

  // FLOW's own carver: per-subproblem local metrics inject cold (a warm
  // seed never fits a subgraph's net set).
  const CarveFn carve = FlowCarver(hg, spec, params.flow, cancel, metric_rng);

  // Boundary-seeded FM polish for anything the carver touched; each
  // replica is polished before the cost comparison, so the best-of pick
  // sees post-refinement basins, not raw carves.
  const auto polish = [&](TreePartition& candidate) {
    HtpFmParams fm;
    fm.boundary_only = true;
    fm.seed = params.flow.seed;
    fm.cancel = cancel;
    RefineHtpFm(candidate, spec, fm);
  };

  // --- 2. Classify the prior partition's root subtrees. ---
  const Level l_new = spec.LevelForSize(hg.total_size());
  const Level l_old = old_tp.root_level();
  bool rebuild = l_new != l_old || l_old == 0;

  const std::span<const BlockId> old_children_span =
      old_tp.children(TreePartition::kRoot);
  const std::vector<BlockId> old_children(old_children_span.begin(),
                                          old_children_span.end());
  if (old_children.empty()) rebuild = true;

  std::size_t reused = 0;
  std::size_t recarved = 0;
  std::optional<TreePartition> stitched;
  std::vector<BlockId> cloned_blocks;
  if (!rebuild) {
    std::vector<std::size_t> child_slot(old_tp.num_blocks(), SIZE_MAX);
    for (std::size_t i = 0; i < old_children.size(); ++i)
      child_slot[old_children[i]] = i;

    std::vector<char> touched(old_children.size(), 0);
    std::vector<std::size_t> slot_of_old(old_hg.num_nodes());
    for (NodeId v = 0; v < old_hg.num_nodes(); ++v) {
      const std::size_t slot = child_slot[old_tp.block_at(v, l_old - 1)];
      slot_of_old[v] = slot;
      const NodeId mapped = app.node_to_new[v];
      if (mapped == kInvalidNode || app.node_touched[mapped])
        touched[slot] = 1;
    }

    // Added nodes anchor to the touched subtree of their first surviving
    // neighbor (every net of an added node is an added net, so every
    // neighbor's subtree is already touched); isolated additions fall back
    // to the lowest touched — or lowest — slot.
    std::vector<NodeId> old_of_new(hg.num_nodes(), kInvalidNode);
    for (NodeId v = 0; v < old_hg.num_nodes(); ++v)
      if (app.node_to_new[v] != kInvalidNode)
        old_of_new[app.node_to_new[v]] = v;
    std::vector<std::size_t> anchor(app.added_node_ids.size(), SIZE_MAX);
    for (std::size_t i = 0; i < app.added_node_ids.size(); ++i) {
      const NodeId w = app.added_node_ids[i];
      for (const NetId e : hg.nets(w)) {
        for (const NodeId p : hg.pins(e)) {
          if (old_of_new[p] == kInvalidNode) continue;
          anchor[i] = slot_of_old[old_of_new[p]];
          break;
        }
        if (anchor[i] != SIZE_MAX) break;
      }
      if (anchor[i] != SIZE_MAX) touched[anchor[i]] = 1;
    }
    if (!app.added_node_ids.empty()) {
      std::size_t fallback = SIZE_MAX;
      for (std::size_t s = 0; s < touched.size(); ++s)
        if (touched[s]) {
          fallback = s;
          break;
        }
      if (fallback == SIZE_MAX) {
        fallback = 0;
        touched[0] = 1;
      }
      for (std::size_t& a : anchor)
        if (a == SIZE_MAX) a = fallback;
    }

    const std::size_t touched_count = static_cast<std::size_t>(
        std::count(touched.begin(), touched.end(), 1));
    if (touched_count == old_children.size()) rebuild = true;

    // Touched regions: surviving members in id order, then anchored
    // additions. Every region must still fit one root-child subtree.
    std::vector<std::vector<NodeId>> regions(old_children.size());
    double granularity = 1e-12;
    for (NodeId v = 0; v < hg.num_nodes(); ++v)
      granularity = std::max(granularity, hg.node_size(v));
    if (!rebuild) {
      for (NodeId v = 0; v < old_hg.num_nodes(); ++v) {
        const NodeId mapped = app.node_to_new[v];
        if (mapped != kInvalidNode && touched[slot_of_old[v]])
          regions[slot_of_old[v]].push_back(mapped);
      }
      for (std::size_t i = 0; i < app.added_node_ids.size(); ++i)
        regions[anchor[i]].push_back(app.added_node_ids[i]);
      const double subtree_cap =
          spec.AchievableCapacity(l_new - 1, hg.unit_sizes(), granularity);
      for (std::size_t s = 0; s < regions.size() && !rebuild; ++s) {
        double size = 0.0;
        for (const NodeId v : regions[s]) size += hg.node_size(v);
        if (size > subtree_cap) rebuild = true;
      }
    }

    // --- 3. Stitch: clone untouched subtrees, re-carve touched ones. ---
    if (!rebuild) {
      std::vector<std::vector<NodeId>> leaf_members(old_tp.num_blocks());
      for (NodeId v = 0; v < old_hg.num_nodes(); ++v)
        leaf_members[old_tp.leaf_of(v)].push_back(v);
      obs::PhaseScope stitch_span(t_stitch);
      std::size_t planned_recarves = 0;
      for (std::size_t s = 0; s < old_children.size(); ++s)
        if (touched[s] && !regions[s].empty()) ++planned_recarves;
      // A pure clone run has nothing the carve RNG can vary: one replica,
      // bit-identical to the prior partition.
      const std::size_t stitch_replicas = planned_recarves == 0 ? 1 : replicas;
      double best_cost = 0.0;
      for (std::size_t r = 0; r < stitch_replicas; ++r) {
        Rng construct_rng = master.fork(1000 + r);
        TreePartition tp(hg, l_new);
        try {
          for (std::size_t s = 0; s < old_children.size(); ++s) {
            const BlockId q_old = old_children[s];
            if (!touched[s]) {
              CloneSubtree(old_tp, q_old, tp,
                           tp.AddChild(TreePartition::kRoot), leaf_members,
                           app.node_to_new);
            } else if (!regions[s].empty()) {
              // Construction is the anytime floor: an inert token, like the
              // FLOW driver's guaranteed first construction.
              std::vector<NodeId> region = regions[s];
              BuildPartitionSubtree(tp, tp.AddChild(TreePartition::kRoot),
                                    std::move(region), spec, converged.metric,
                                    carve, construct_rng, CancellationToken{});
            }
          }
          RequireValidPartition(tp, spec);
          if (planned_recarves > 0) polish(tp);
          const double c = PartitionCost(tp, spec);
          if (!stitched || c < best_cost) {
            best_cost = c;
            stitched.emplace(std::move(tp));
          }
        } catch (const Error&) {
          // This replica's stitch misjudged feasibility (e.g. a region
          // needed more branches than one subtree offers); the others may
          // still land, otherwise the full rebuild below is always feasible
          // when the instance is.
        }
        if (cancel.Cancelled() && stitched) break;
      }
      if (stitched) {
        reused = static_cast<std::size_t>(
            std::count(touched.begin(), touched.end(), 0));
        recarved = planned_recarves;
        for (std::size_t s = 0; s < old_children.size(); ++s)
          if (!touched[s]) cloned_blocks.push_back(old_children[s]);
      } else {
        rebuild = true;
      }
    }
  }

  // The prior partition itself, carried onto the edited netlist (removed
  // nodes skipped) and polished, competes in every rebuild: for deltas that
  // keep the node set this is the classic incremental answer — keep the
  // placement, refine locally — and it is the one candidate that inherits
  // the prior root split when the stitcher could not.
  const auto carry_over = [&]() -> std::optional<TreePartition> {
    if (l_new != l_old || old_children.empty() ||
        !app.added_node_ids.empty())
      return std::nullopt;
    std::vector<std::vector<NodeId>> leaf_members(old_tp.num_blocks());
    for (NodeId v = 0; v < old_hg.num_nodes(); ++v)
      if (app.node_to_new[v] != kInvalidNode)
        leaf_members[old_tp.leaf_of(v)].push_back(v);
    TreePartition tp(hg, l_new);
    for (const BlockId child : old_children)
      CloneSubtree(old_tp, child, tp, tp.AddChild(TreePartition::kRoot),
                   leaf_members, app.node_to_new);
    try {
      RequireValidPartition(tp, spec);
    } catch (const Error&) {
      return std::nullopt;  // e.g. a resize-up overflowed a block
    }
    polish(tp);
    return tp;
  };

  const auto rebuild_best = [&] {
    std::optional<TreePartition> best;
    double best_cost = 0.0;
    if (std::optional<TreePartition> kept = carry_over()) {
      best_cost = PartitionCost(*kept, spec);
      best = std::move(kept);
    }
    for (std::size_t r = 0; r < replicas; ++r) {
      Rng construct_rng = master.fork(1000 + r);
      TreePartition cand = BuildPartitionTopDown(
          hg, spec, converged.metric, carve, construct_rng,
          CancellationToken{});
      polish(cand);
      const double c = PartitionCost(cand, spec);
      if (!best || c < best_cost) {
        best_cost = c;
        best.emplace(std::move(cand));
      }
      if (cancel.Cancelled()) break;
    }
    return std::move(*best);
  };

  TreePartition tp = [&]() -> TreePartition {
    if (stitched && !rebuild) {
      // The stitch is pinned to the prior root split; race it against full
      // warm-metric rebuilds and keep the cheaper result (stitch wins
      // ties). Pure clone runs (recarved == 0) never reach here with a
      // race: bit-identity first.
      if (params.race_rebuild && recarved > 0 && !cancel.Cancelled()) {
        TreePartition contender = rebuild_best();
        if (PartitionCost(contender, spec) < PartitionCost(*stitched, spec)) {
          rebuild = true;
          reused = 0;
          recarved = 0;
          cloned_blocks.clear();
          return contender;
        }
      }
      return std::move(*stitched);
    }
    return rebuild_best();
  }();
  if (rebuild) c_rebuilds.Add();
  for (const BlockId q_old : cloned_blocks)
    e_reused.Record({{"block", static_cast<double>(q_old)},
                     {"size", old_tp.block_size(q_old)}});
  c_reused.Add(reused);
  c_recarved.Add(recarved);
  c_warm_rounds.Add(converged.rounds);
  c_warm_injections.Add(converged.injections);

  const double cost = PartitionCost(tp, spec);
  EcoResult result{std::move(tp),
                   cost,
                   converged.metric,
                   converged.rounds,
                   converged.injections,
                   converged.converged,
                   reused,
                   recarved,
                   rebuild,
                   converged.cancelled};
  return result;
}

}  // namespace htp
