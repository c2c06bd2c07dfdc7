// Multilevel hypergraph bipartitioning (hMETIS/KaHyPar-style), as a
// modern-baseline substrate.
//
// The reproduction context notes that multilevel tools made flat
// partitioners obsolete; this module provides the canonical V-cycle so the
// paper's 1997 algorithms can be compared against it on equal footing:
//
//   1. coarsen by randomized heavy-edge matching (contracting matched
//      pairs via ContractClusters) until the graph is small,
//   2. bipartition the coarsest hypergraph with the FM engine,
//   3. uncoarsen, projecting the side assignment and FM-refining at every
//      level under the same absolute size window (contraction preserves
//      total size, so windows transfer unchanged).
//
// Exposed both as a standalone bipartitioner and as a CarveFn, so the
// Algorithm-3 skeleton can run with a multilevel find_cut ("MLFM" in the
// benches).
#pragma once

#include "core/find_cut.hpp"
#include "partition/fm_bipartition.hpp"

namespace htp {

/// V-cycle parameters.
struct VCycleParams {
  /// Stop coarsening at or below this node count.
  std::size_t coarsest_nodes = 64;
  /// Give up when a matching pass shrinks the graph by less than 10%.
  double min_shrink = 0.10;
  /// Matched-pair size cap as a fraction of total size (keeps the coarsest
  /// instance balance-feasible).
  double max_cluster_fraction = 0.08;
  /// FM passes per refinement level.
  std::size_t fm_passes = 8;
};

/// Multilevel bipartition with side-0 size in
/// [window.min_size0, window.max_size0].
Bipartition MultilevelBipartition(const Hypergraph& hg,
                                  const FmBipartitionParams& window, Rng& rng,
                                  const VCycleParams& params = {});

/// CarveFn adapter: carve a [lb..ub] min-cut block via the V-cycle
/// (ignores the metric argument, like the flat FM carver).
CarveFn MultilevelCarver(VCycleParams params = {});

/// The Algorithm-3 skeleton driven by the multilevel carver — the modern
/// top-down baseline ("MLFM") compared in bench/modern_baseline.
struct MlfmParams {
  VCycleParams multilevel;
  std::uint64_t seed = 1;
};
TreePartition RunMlfm(const Hypergraph& hg, const HierarchySpec& spec,
                      const MlfmParams& params = {});

}  // namespace htp
