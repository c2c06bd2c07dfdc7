// The GFM baseline (Kuo–Liu–Cheng, DAC'96 [9]): bottom-up construction
// "from a multiway partition at the bottom level".
//
// Phase 1 carves the netlist into level-0 blocks (capacity C_0) with
// FM min-cut carving — optimizing only the bottom-level cut, which is
// exactly the myopia the paper attributes to GFM ("optimize the partition
// at one level ... without considering the global cost").
// Phase 2 groups blocks bottom-up: at each level the current blocks are
// contracted into supernodes and greedily agglomerated by connectivity
// weight under the K_l / C_l bounds, yielding the parents of the next
// level, until the root.
//
// [9]'s exact procedure is not available; this reconstruction follows the
// paper's description of its structure and failure mode (see DESIGN.md).
#pragma once

#include "core/tree_partition.hpp"
#include "netlist/rng.hpp"
#include "runtime/budget.hpp"

namespace htp {

/// Parameters of the GFM baseline.
struct GfmParams {
  std::uint64_t seed = 1;
  /// Cooperative cancellation. Like RFM, GFM cannot return a partial
  /// construction, so a fired token degrades the remaining phase-1 FM
  /// carves to a single pass; phase 2 (agglomeration) is cheap and always
  /// runs. The returned partition is always complete. Inert by default.
  CancellationToken cancel;
};

/// Runs the GFM baseline on `hg` with respect to `spec`.
TreePartition RunGfm(const Hypergraph& hg, const HierarchySpec& spec,
                     const GfmParams& params = {});

}  // namespace htp
