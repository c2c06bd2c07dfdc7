// Interconnection cost of a hierarchical tree partition — Equation (1).
//
//   span(e, l) = number f of distinct level-l blocks containing pins of e,
//                counted as 0 when f == 1;
//   cost(e)    = sum_{l=0}^{L-1} w_l * span(e, l) * c(e);
//   cost(P)    = sum_e cost(e).
//
// All algorithms in this library (FLOW, GFM, RFM, and the FM refiner) are
// scored by this one implementation, so Table 2/3 comparisons are apples to
// apples.
#pragma once

#include <cstddef>
#include <vector>

#include "core/tree_partition.hpp"

namespace htp {

/// One level's term of cost(e): w_l * f * c(e) for a net whose pins touch
/// f >= 2 level-l blocks. PartitionCost sums it over l = 0, 1, ... per net
/// and then over nets in id order; HtpMoveOracle::Cost sums it in the same
/// order from its span tables, so the two agree bit for bit.
inline double SpanCost(double weight, std::size_t f, double capacity) {
  return weight * static_cast<double>(f) * capacity;
}

/// span(e, l) for one net at one level (0 when the net stays in one block).
std::size_t NetSpan(const TreePartition& tp, NetId e, Level l);

/// cost(e): the weighted multi-level span cost of one net.
double NetCost(const TreePartition& tp, const HierarchySpec& spec, NetId e);

/// cost(P): total interconnection cost of the partition (Equation (1)).
double PartitionCost(const TreePartition& tp, const HierarchySpec& spec);

/// Per-level cost breakdown: entry l = sum_e w_l * span(e, l) * c(e).
std::vector<double> PartitionCostByLevel(const TreePartition& tp,
                                         const HierarchySpec& spec);

/// Number of nets cut (span >= 2) at each level — a secondary statistic
/// handy in benches and examples.
std::vector<std::size_t> CutNetsByLevel(const TreePartition& tp);

/// The modern "connectivity minus one" objective at one level:
/// sum_e (lambda(e, l) - 1) * c(e), where lambda is the number of distinct
/// level-l blocks touched (hMETIS/KaHyPar's km1 metric). Not the paper's
/// objective — provided so partitions can be scored the way today's tools
/// score them. Relation per net: (lambda - 1) = span - 1 when span >= 2,
/// else 0.
double ConnectivityCost(const TreePartition& tp, Level l);

}  // namespace htp
