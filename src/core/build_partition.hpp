// Algorithm 3: top-down construction of a hierarchical tree partition.
//
// Starting from the whole node set, each tree vertex at level l repeatedly
// carves off a child block of size within [LB..UB] = [s(V)/K_l .. C_{l-1}]
// using a CarveFn, then recurses on the carved subgraph. The carve function
// is the only pluggable part: MetricCarver() (Prim over the spreading
// metric) yields the paper's FLOW construction, FmCarve (in
// src/partition/rfm.hpp) yields the RFM baseline.
//
// Robustness extensions over the pseudo-code (documented in DESIGN.md):
//  * when a whole set already fits one child (s <= C_{l-1}), a single-child
//    chain descends instead of carving, so leaves always sit at level 0;
//  * the carve lower bound is raised to s - (children_left - 1) * UB so the
//    branch bound K_l can always be honored;
//  * disconnected sets are handled inside the carvers.
#pragma once

#include "core/find_cut.hpp"
#include "runtime/budget.hpp"

namespace htp {

/// Builds a partition of `hg` with respect to `spec` from a spreading
/// metric, using `carve` to separate the children of every vertex.
/// The partition root sits at spec.LevelForSize(total size).
/// Throws htp::Error when the instance is infeasible (e.g. a single node
/// larger than C_0).
///
/// `cancel` is polled before every carve step (a construction is
/// all-or-nothing, so there is no partial result to hand back): a fired
/// token throws CancelledError, which callers that guarantee a result
/// (RunHtpFlow's floor construction) avoid by passing the default inert
/// token. The poll is read-only, so results with an unfired token are
/// bit-identical to an un-cancellable build.
TreePartition BuildPartitionTopDown(const Hypergraph& hg,
                                    const HierarchySpec& spec,
                                    const SpreadingMetric& metric,
                                    const CarveFn& carve, Rng& rng,
                                    const CancellationToken& cancel = {});

/// Runs the serial Algorithm-3 recursion below block `q` of an existing
/// partition, populating it with `nodes` (ids in `tp.hypergraph()`; the
/// block must be childless). Exactly the recursion BuildPartitionTopDown
/// applies below its root — same chain descent, carve windows, and RNG
/// draw order — just entered at an interior block, so the delta-scoped ECO
/// re-carver (src/incremental/eco_repartition.cpp) can rebuild only the
/// subtrees a netlist delta touched while cloning untouched siblings from
/// the prior partition. `metric` spans the nets of `tp.hypergraph()`.
void BuildPartitionSubtree(TreePartition& tp, BlockId q,
                           std::vector<NodeId> nodes,
                           const HierarchySpec& spec,
                           const SpreadingMetric& metric, const CarveFn& carve,
                           Rng& rng, const CancellationToken& cancel = {});

}  // namespace htp
