// MST-split carver — the paper's future-work construction.
//
// "In constructing the partition, more sophisticated algorithms, such as
// the one in a recent paper by Karger [7], may also be applied to find a
// minimum cut from a minimum spanning tree." (Conclusions.)
//
// Karger's near-linear min-cut algorithm scores cuts by how few spanning-
// tree edges they cross. This carver adopts the 1-respecting special case,
// which is exact for cuts crossing the MST once and a strong heuristic
// otherwise: grow a Prim MST of the (metric-weighted) hypergraph, then
// evaluate the hypergraph cut of every subtree whose size lies in
// [LB..UB] — each tree edge removal proposes one candidate block — and
// return the cheapest. Subtree cuts are evaluated exactly (not by tree
// weight), in O(sum of candidate sizes) overall.
#pragma once

#include "core/find_cut.hpp"

namespace htp {

/// Carves the min-cut subtree of a metric MST with size within [lb..ub].
/// Falls back to MetricFindCut when no subtree hits the window (e.g. a
/// star-shaped tree whose subtrees are all tiny).
CarveResult MstSplitCarve(const Hypergraph& hg,
                          std::span<const double> net_length, double lb,
                          double ub, Rng& rng);

}  // namespace htp
