// Multilevel FLOW: coarsen -> partition -> uncoarsen (docs/scaling.md).
//
// The flat FLOW pipeline's separation oracle checks constraint family (5)
// from every source, so one injection round costs O(n^2 log n) — the
// scaling wall of ROADMAP item 1. This driver takes the classic multilevel
// route around it (hMETIS / KaHyPar lineage): contract the hypergraph to a
// few hundred supernodes with a deterministic coarsener, run the *existing*
// RunHtpFlow on the coarsest level where n is small enough for the exact
// oracle, then project the partition back up level by level, fixing the
// local damage with the existing FM refiner seeded only on projected
// boundary nodes.
//
// Because ContractClustersMerged sums the capacities of merged parallel
// nets and Equation (1) is additive in capacity, projection is cost-exact:
// the projected partition costs exactly what the coarse one did, before
// refinement makes it strictly cheaper. Every stage is deterministic and
// the coarse FLOW run keeps its bit-identity across `threads` x
// `metric_threads`, so the whole pipeline does too
// (tests/multilevel/multilevel_flow_test.cpp asserts the cross product).
#pragma once

#include "core/htp_flow.hpp"

namespace htp {

/// Parameters of the multilevel driver.
struct MultilevelParams {
  /// Algorithm-1 parameters for the coarsest-level run. `budget` and
  /// `cancel` are armed ONCE by RunMultilevelFlow and shared by every
  /// stage (coarse flow + each refinement), so a deadline bounds the whole
  /// pipeline, not just the coarse solve. The thread knobs inherit their
  /// RunHtpFlow semantics wholesale: `threads`/`metric_threads` apply to
  /// the coarse solve (see docs/parallelism.md).
  HtpFlowParams flow;
  /// Stop coarsening once the graph has at most this many supernodes; the
  /// exact O(n^2 log n) oracle is affordable below it. Inputs already at or
  /// below the threshold run flat (identical to RunHtpFlow).
  NodeId coarsen_threshold = 800;
};

/// What happened at one uncoarsening level (coarsest first).
struct MultilevelLevelStats {
  NodeId nodes = 0;           ///< fine-side node count of the projection
  double projected_cost = 0.0;  ///< == the coarser level's final cost
  double refined_cost = 0.0;
  std::size_t fm_passes = 0;
};

/// Outcome of the multilevel pipeline. The partition lives on the *input*
/// hypergraph and always passes ValidatePartition.
struct MultilevelResult {
  TreePartition partition;
  double cost = 0.0;                 ///< Equation (1) on the input graph
  std::size_t coarsen_levels = 0;    ///< levels actually used
  /// Levels discarded because the coarse instance was infeasible for the
  /// spec (AchievableCapacity too tight for the supernode granularity);
  /// the driver retries one level finer, down to the flat graph.
  std::size_t feasibility_fallbacks = 0;
  NodeId coarsest_nodes = 0;         ///< node count RunHtpFlow actually saw
  double coarse_cost = 0.0;          ///< best coarse-level cost
  std::vector<MultilevelLevelStats> level_stats;  ///< coarsest-first
  bool completed = true;
  StopReason stop_reason = StopReason::kCompleted;
};

/// Largest cluster size for which a coarse graph with that node granularity
/// still admits a top-down construction under `spec` (conservative slots
/// check at the root over AchievableCapacity). Starts from
/// max(total/64, 2 * max fine node size) and halves until feasible, never
/// below the fine granularity (existing nodes cannot be split). The driver
/// coarsens under this cap; exposed for tests.
double FeasibleClusterCap(const Hypergraph& hg, const HierarchySpec& spec);

/// Replicates `coarse_tp`'s block tree over `fine_hg` and assigns every
/// fine node to the leaf of its supernode. Exact: block ids, levels, and
/// sizes all transfer unchanged, and the projected partition's cost equals
/// the coarse one's (the merged-net invariant). Exposed for tests.
TreePartition ProjectPartition(const TreePartition& coarse_tp,
                               const Hypergraph& fine_hg,
                               std::span<const BlockId> cluster_of);

/// Runs the multilevel pipeline. Throws htp::Error only when the *flat*
/// instance is infeasible (an infeasible coarse level silently falls back
/// one level finer).
MultilevelResult RunMultilevelFlow(const Hypergraph& hg,
                                   const HierarchySpec& spec,
                                   const MultilevelParams& params = {});

}  // namespace htp
