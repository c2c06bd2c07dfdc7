// Generalized Fiduccia–Mattheyses iterative improvement for HTP.
//
// [9] proposes "an iterative improvement algorithm based on the
// Fiduccia-Mattheyses method ... to improve an existing initial partition
// with a fixed tree hierarchy"; Table 3 applies it to the GFM/RFM/FLOW
// partitions (the "+" variants). This implementation generalizes classic FM
// to the hierarchical cost of Equation (1):
//
//  * a move relocates one node from its leaf to any other leaf whose whole
//    ancestor chain (up to the LCA) has capacity for it;
//  * the gain is the exact change of the total cost, computed from
//    per-net-per-level span tables maintained incrementally; every push
//    re-evaluates the node against every feasible leaf, except that an
//    interior node (all nets inside its own leaf) is evaluated once per
//    LCA level, since its gain depends on nothing else; until a pass
//    applies its first move, each (leaf, node size)'s feasible leaves are
//    found once (docs/algorithms.md);
//  * passes follow FM discipline: each node moves at most once per pass,
//    and moves are applied best-gain-first (lazy max-heap with version
//    stamps). A pass ends when its heap empties or once 300 consecutive
//    applied moves have not beaten its best prefix, and then rolls back to
//    that best prefix;
//  * passes repeat until one yields no improvement.
#pragma once

#include <cstdint>

#include "core/cost.hpp"
#include "core/tree_partition.hpp"
#include "runtime/budget.hpp"

namespace htp {

/// Parameters of the hierarchical FM refiner.
struct HtpFmParams {
  std::size_t max_passes = 12;
  /// When true, a pass seeds its move heap with boundary nodes only (nodes
  /// touching a net that spans >= 2 leaves) instead of every node. Interior
  /// nodes still enter the heap as soon as a neighbor's move makes them
  /// relevant (the neighborhood refresh is unchanged), so the usual FM
  /// hill-climb is preserved where the action is — but a pass over a mostly
  /// settled partition costs O(boundary) instead of O(n). This is the
  /// localization the multilevel uncoarsening uses on projected partitions,
  /// where almost every node is interior (docs/scaling.md). Deterministic:
  /// the boundary set is a pure function of the current partition.
  bool boundary_only = false;
  /// Unused: refinement draws no random numbers. Kept for callers that
  /// set it.
  std::uint64_t seed = 1;
  /// Cooperative cancellation, polled between passes (a pass always
  /// finishes its best-prefix rollback, so the partition stays valid and
  /// never worse than the input). Inert by default.
  CancellationToken cancel;
};

/// Statistics of a refinement run.
struct HtpFmStats {
  double initial_cost = 0.0;
  double final_cost = 0.0;
  std::size_t passes = 0;
  std::size_t moves_kept = 0;  ///< moves surviving the best-prefix rollbacks
  /// False iff params.cancel fired and cut the pass loop short.
  bool completed = true;
};

/// Refines `tp` in place; the result never costs more than the input and
/// respects every capacity bound the input respected. The partition must be
/// fully assigned.
HtpFmStats RefineHtpFm(TreePartition& tp, const HierarchySpec& spec,
                       const HtpFmParams& params = {});

}  // namespace htp
