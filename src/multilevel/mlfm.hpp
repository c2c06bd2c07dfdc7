// Multilevel hypergraph bipartitioning (hMETIS/KaHyPar-style), as a
// modern-baseline substrate.
//
// The reproduction context notes that multilevel tools made flat
// partitioners obsolete; this module provides the canonical V-cycle so the
// paper's 1997 algorithms can be compared against it on equal footing:
//
//   1. coarsen with the shared deterministic coarsener (coarsen.hpp) by
//      heavy-edge matching until the graph is small,
//   2. bipartition the coarsest hypergraph with the FM engine,
//   3. uncoarsen, projecting the side assignment through each level's
//      cluster map and FM-refining at every level under the same absolute
//      size window (contraction preserves total size, so windows transfer
//      unchanged).
//
// RunMlfm drives Algorithm 3's skeleton with the V-cycle as its find_cut
// ("MLFM" in bench/modern_baseline).
#pragma once

#include "core/tree_partition.hpp"
#include "partition/fm_bipartition.hpp"

namespace htp {

/// Multilevel bipartition with side-0 size in
/// [window.min_size0, window.max_size0]. `window.max_passes` is ignored:
/// every level runs the V-cycle's own FM pass budget. `rng` seeds only the
/// coarsest-level bipartition; the coarsening is deterministic.
Bipartition MultilevelBipartition(const Hypergraph& hg,
                                  const FmBipartitionParams& window, Rng& rng);

/// The Algorithm-3 skeleton driven by the V-cycle carver — the modern
/// top-down baseline ("MLFM") compared in bench/modern_baseline.
struct MlfmParams {
  std::uint64_t seed = 1;
};
TreePartition RunMlfm(const Hypergraph& hg, const HierarchySpec& spec,
                      const MlfmParams& params = {});

}  // namespace htp
