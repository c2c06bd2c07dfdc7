#include "multilevel/multilevel_flow.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "multilevel/coarsen.hpp"
#include "obs/obs.hpp"
#include "partition/htp_fm.hpp"

namespace htp {
namespace {

// Multilevel telemetry (docs/observability.md). The pipeline is serial
// outside RunHtpFlow — whose totals are thread-invariant already — so every
// counter here shares that guarantee.
obs::Counter c_runs("multilevel.runs");
obs::Counter c_levels("multilevel.levels");
obs::Counter c_flat_runs("multilevel.flat_runs");
obs::Counter c_fallbacks("multilevel.feasibility_fallbacks");
obs::Counter c_projections("uncoarsen.projections");
obs::Counter c_refine_gain_milli("uncoarsen.refine_gain_milli");
obs::Timer t_run("multilevel.run");
obs::Timer t_level("multilevel.level");
obs::Timer t_project("uncoarsen.project");
// One journal record per uncoarsening level; `level` leads the payload so
// the drained journal walks the uncoarsening coarsest-first (highest level
// index first in execution, but sorted ascending in the journal).
obs::Event e_level("multilevel.level");
// Refinement gain per projection, in milli-cost units (Equation (1) costs
// are capacity sums, integral on integer-capacity inputs).
obs::Histogram h_refine_gain_milli("uncoarsen.refine_gain_milli_per_level");

// FM passes per uncoarsening level.
constexpr std::size_t kRefinePasses = 4;

double MaxNodeSize(const Hypergraph& hg) {
  double m = 0.0;
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    m = std::max(m, hg.node_size(v));
  return m;
}

// Conservative feasibility probe: with node granularity `granularity`, can
// the root's children absorb the whole graph? AchievableCapacity already
// recurses the per-level bin-packing margins; the root-level slots formula
// (K * ub - (K-1) * g >= total) is the same window argument one level up.
bool CapFeasible(const HierarchySpec& spec, double total, double granularity) {
  try {
    const Level root = spec.LevelForSize(total);
    if (root == 0) return true;
    const double ub =
        spec.AchievableCapacity(root - 1, /*integral=*/false, granularity);
    const double k = static_cast<double>(spec.max_branches(root));
    return k * ub - (k - 1.0) * granularity >= total;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace

double FeasibleClusterCap(const Hypergraph& hg, const HierarchySpec& spec) {
  const double total = hg.total_size();
  const double fine = MaxNodeSize(hg);
  double cap = std::max(total / 64.0, 2.0 * fine);
  while (cap > fine && !CapFeasible(spec, total, cap)) cap /= 2.0;
  return std::max(cap, fine);
}

TreePartition ProjectPartition(const TreePartition& coarse_tp,
                               const Hypergraph& fine_hg,
                               std::span<const BlockId> cluster_of) {
  HTP_CHECK(cluster_of.size() == fine_hg.num_nodes());
  HTP_CHECK_MSG(coarse_tp.fully_assigned(),
                "projection needs a complete coarse partition");
  obs::PhaseScope obs_span(t_project);
  c_projections.Add();
  TreePartition fine_tp(fine_hg, coarse_tp.root_level());
  // Blocks are created parent-before-child, so replaying AddChild in id
  // order reproduces the tree with identical ids (including single-child
  // chains).
  for (BlockId q = 1; q < coarse_tp.num_blocks(); ++q) {
    const BlockId replica = fine_tp.AddChild(coarse_tp.parent(q));
    HTP_CHECK(replica == q);
  }
  for (NodeId v = 0; v < fine_hg.num_nodes(); ++v)
    fine_tp.AssignNode(v, coarse_tp.leaf_of(cluster_of[v]));
  return fine_tp;
}

MultilevelResult RunMultilevelFlow(const Hypergraph& hg,
                                   const HierarchySpec& spec,
                                   const MultilevelParams& params) {
  obs::PhaseScope obs_span(t_run);
  c_runs.Add();

  // Arm the wall-clock budget ONCE; every stage below shares the token (a
  // second StartBudget on the same Budget would restart the deadline).
  HtpFlowParams flow = params.flow;
  const CancellationToken token = StartBudget(flow.budget, flow.cancel);
  flow.cancel = token;
  flow.budget.time_budget_seconds = Budget::kNoTimeLimit;

  const CoarsenParams coarsen{CoarsenScheme::kLabelPropagation,
                              FeasibleClusterCap(hg, spec)};
  std::vector<CoarsenLevel> stack =
      CoarsenToThreshold(hg, params.coarsen_threshold, coarsen);

  // Solve the coarsest level. Supernodes raise the node granularity, and a
  // spec can be too tight for it (AchievableCapacity throws); retry one
  // level finer each time — the flat graph reproduces whatever the flat
  // pipeline would do, including a genuine infeasibility error.
  std::size_t fallbacks = 0;
  std::optional<HtpFlowResult> coarse;
  while (true) {
    const Hypergraph& g = stack.empty() ? hg : stack.back().coarse;
    try {
      coarse = RunHtpFlow(g, spec, flow);
      break;
    } catch (const Error&) {
      if (stack.empty()) throw;
      stack.pop_back();
      ++fallbacks;
      c_fallbacks.Add();
    }
  }
  c_levels.Add(stack.size());
  if (stack.empty()) c_flat_runs.Add();

  const NodeId coarsest_nodes =
      (stack.empty() ? hg : stack.back().coarse).num_nodes();
  bool completed = coarse->completed;
  StopReason stop_reason = coarse->stop_reason;

  // Uncoarsen: project level by level, refining the projected boundary at
  // each stop. The projection is cost-exact, so `stats.initial_cost` at
  // level i equals the previous level's final cost. On a projected
  // partition almost every node is interior, so FM seeds only the boundary
  // (full seeding would cost O(n) per pass for nothing).
  HtpFmParams refine;
  refine.max_passes = kRefinePasses;
  refine.boundary_only = true;
  refine.cancel = token;
  TreePartition tp = std::move(coarse->partition);
  double cost = coarse->cost;
  std::vector<MultilevelLevelStats> level_stats;
  for (std::size_t i = stack.size(); i-- > 0;) {
    obs::PhaseScope level_span(t_level, "level", i);
    const Hypergraph& fine = (i == 0) ? hg : stack[i - 1].coarse;
    TreePartition projected = ProjectPartition(tp, fine, stack[i].cluster_of);
    const HtpFmStats stats = RefineHtpFm(projected, spec, refine);
    const std::uint64_t gain_milli = static_cast<std::uint64_t>(
        std::llround((stats.initial_cost - stats.final_cost) * 1000.0));
    c_refine_gain_milli.Add(gain_milli);
    h_refine_gain_milli.Record(gain_milli);
    e_level.Record({{"level", static_cast<double>(i)},
                    {"nodes", static_cast<double>(fine.num_nodes())},
                    {"projected_cost", stats.initial_cost},
                    {"refined_cost", stats.final_cost},
                    {"fm_passes", static_cast<double>(stats.passes)},
                    {"gain", stats.initial_cost - stats.final_cost}});
    level_stats.push_back({fine.num_nodes(), stats.initial_cost,
                           stats.final_cost, stats.passes});
    if (!stats.completed) completed = false;
    cost = stats.final_cost;
    tp = std::move(projected);
  }
  if (!completed && stop_reason == StopReason::kCompleted)
    stop_reason = token.FiredReason();

  MultilevelResult result{std::move(tp)};
  result.cost = cost;
  result.coarsen_levels = stack.size();
  result.feasibility_fallbacks = fallbacks;
  result.coarsest_nodes = coarsest_nodes;
  result.coarse_cost = coarse->cost;
  result.level_stats = std::move(level_stats);
  result.completed = completed;
  result.stop_reason = stop_reason;
  return result;
}

}  // namespace htp
