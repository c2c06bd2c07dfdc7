#include "multilevel/mlfm.hpp"

#include <algorithm>

#include "multilevel/coarsen.hpp"
#include "partition/rfm.hpp"

namespace htp {
namespace {

// Stop coarsening at or below this many supernodes.
constexpr NodeId kCoarsestNodes = 64;
// FM passes at the coarsest level and at every refinement level.
constexpr std::size_t kFmPasses = 8;

}  // namespace

Bipartition MultilevelBipartition(const Hypergraph& hg,
                                  const FmBipartitionParams& window,
                                  Rng& rng) {
  HTP_CHECK(hg.num_nodes() >= 2);
  // Matched pairs are capped at 8% of the total size (2 average nodes on
  // tiny inputs) so the coarsest instance stays balance-feasible.
  const CoarsenParams coarsen{
      CoarsenScheme::kHeavyEdgeMatching,
      std::max(0.08 * hg.total_size(),
               2.0 * hg.total_size() / static_cast<double>(hg.num_nodes()))};
  const std::vector<CoarsenLevel> stack =
      CoarsenToThreshold(hg, kCoarsestNodes, coarsen);

  // Initial solution at the coarsest level, then project-and-refine up.
  FmBipartitionParams fm = window;
  fm.max_passes = kFmPasses;
  Bipartition part =
      FmBipartition(stack.empty() ? hg : stack.back().coarse, fm, rng);
  for (std::size_t i = stack.size(); i-- > 0;) {
    const Hypergraph& fine = (i == 0) ? hg : stack[i - 1].coarse;
    Bipartition projected;
    projected.side.resize(fine.num_nodes());
    for (NodeId v = 0; v < fine.num_nodes(); ++v)
      projected.side[v] = part.side[stack[i].cluster_of[v]];
    part = FmRefineBipartition(fine, std::move(projected), fm);
  }
  return part;
}

TreePartition RunMlfm(const Hypergraph& hg, const HierarchySpec& spec,
                      const MlfmParams& params) {
  Rng rng(params.seed);
  // MLFM uses no spreading metric; the carver ignores the zero metric.
  const SpreadingMetric zero(hg.num_nets(), 0.0);
  const CarveFn carve = [](const Hypergraph& sub, std::span<const double>,
                           double lb, double ub, Rng& r) {
    if (sub.total_size() > ub) {
      FmBipartitionParams window;
      window.min_size0 = lb;
      window.max_size0 = ub;
      try {
        const Bipartition part = MultilevelBipartition(sub, window, r);
        CarveResult result;
        for (NodeId v = 0; v < sub.num_nodes(); ++v)
          if (part.side[v] == 0) result.nodes.push_back(v);
        result.cut_value = part.cut;
        result.size = part.size0;
        result.in_window = part.size0 >= lb - 1e-9 && part.size0 <= ub + 1e-9;
        return result;
      } catch (const Error&) {
        // Coarse supernodes can be too chunky for a narrow window; fall
        // back to flat FM on the original hypergraph.
      }
    }
    // FmCarve also takes a set that fits whole without cutting it.
    return FmCarve(sub, lb, ub, r, kFmPasses);
  };
  return BuildPartitionTopDown(hg, spec, zero, carve, rng);
}

}  // namespace htp
