// The RFM baseline (Kuo–Liu–Cheng, DAC'96 [9]): top-down recursive
// partitioning with a direct min-cut find_cut.
//
// RFM shares Algorithm 3's skeleton with FLOW; the only difference
// (Section 4) is the carver: "RFM calls a min-cut algorithm directly on
// hypergraph H to find a subset V' with minimum cut(V', V - V')". Here the
// min-cut carve is an FM bipartition constrained to the [LB..UB] window.
#pragma once

#include "core/build_partition.hpp"
#include "partition/fm_bipartition.hpp"

namespace htp {

/// Carves a min-cut block of size within [lb..ub] using FM (ignores the
/// metric argument of the CarveFn interface).
CarveResult FmCarve(const Hypergraph& hg, double lb, double ub, Rng& rng,
                    std::size_t fm_passes = 16);

/// CarveFn adapter for FmCarve.
CarveFn FmCarver(std::size_t fm_passes = 16);

/// Parameters of the RFM baseline.
struct RfmParams {
  std::size_t fm_passes = 16;
  std::uint64_t seed = 1;
  /// Cooperative cancellation. A construction cannot be returned partially,
  /// so instead of aborting, a fired token degrades every remaining FM
  /// carve to a single pass — the fastest valid construction. The returned
  /// partition is always complete and valid. Inert by default.
  CancellationToken cancel;
};

/// Runs the RFM baseline: Algorithm 3 with the FM carver.
TreePartition RunRfm(const Hypergraph& hg, const HierarchySpec& spec,
                     const RfmParams& params = {});

}  // namespace htp
