// Fiduccia–Mattheyses two-way hypergraph partitioning with a size window.
//
// The workhorse behind the RFM baseline's find_cut and GFM's bottom-level
// multiway partition (via recursive bisection). Classic FM: passes of
// single-node moves in best-gain-first order with every node moved at most
// once per pass, tracking the best prefix and rolling the tail back.
// Selection uses two lazy max-heaps (one per source side) with per-node
// version stamps instead of gain buckets, which supports real-valued net
// capacities.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/hypergraph.hpp"
#include "netlist/rng.hpp"

namespace htp {

/// A two-way partition: side[v] in {0,1}.
struct Bipartition {
  std::vector<char> side;
  double cut = 0.0;    ///< total capacity of nets with pins on both sides
  double size0 = 0.0;  ///< total node size on side 0
};

/// Computes the cut and side-0 size of an assignment.
Bipartition EvaluateBipartition(const Hypergraph& hg, std::vector<char> side);

/// Parameters of the FM refinement.
struct FmBipartitionParams {
  double min_size0 = 0.0;  ///< hard lower bound on s(side 0)
  double max_size0 = 0.0;  ///< hard upper bound on s(side 0)
  std::size_t max_passes = 16;
};

/// Refines an initial bipartition (which must respect the size window) by
/// FM passes until a pass yields no improvement. Returns the refined
/// partition; never worse than the input.
Bipartition FmRefineBipartition(const Hypergraph& hg, Bipartition initial,
                                const FmBipartitionParams& params);

/// Grows a random-seeded initial side 0 of size within [min_size0 ..
/// max_size0] (breadth-first over nets, min-cut prefix), then FM-refines it.
/// Falls back to whatever window-respecting split it can make on degenerate
/// inputs.
Bipartition FmBipartition(const Hypergraph& hg,
                          const FmBipartitionParams& params, Rng& rng);

}  // namespace htp
