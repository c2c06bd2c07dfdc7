#include "partition/rfm.hpp"

namespace htp {

CarveResult FmCarve(const Hypergraph& hg, double lb, double ub, Rng& rng,
                    std::size_t fm_passes) {
  CarveResult result;
  if (hg.total_size() <= ub) {  // everything fits: no cut needed
    for (NodeId v = 0; v < hg.num_nodes(); ++v) result.nodes.push_back(v);
    result.size = hg.total_size();
    result.in_window = hg.total_size() >= lb;
    return result;
  }
  FmBipartitionParams params;
  params.min_size0 = lb;
  params.max_size0 = ub;
  params.max_passes = fm_passes;
  const Bipartition part = FmBipartition(hg, params, rng);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    if (part.side[v] == 0) result.nodes.push_back(v);
  result.cut_value = part.cut;
  result.size = part.size0;
  result.in_window = part.size0 >= lb - 1e-9 && part.size0 <= ub + 1e-9;
  return result;
}

CarveFn FmCarver(std::size_t fm_passes) {
  return [fm_passes](const Hypergraph& hg, std::span<const double>, double lb,
                     double ub, Rng& rng) {
    return FmCarve(hg, lb, ub, rng, fm_passes);
  };
}

TreePartition RunRfm(const Hypergraph& hg, const HierarchySpec& spec,
                     const RfmParams& params) {
  Rng rng(params.seed);
  // RFM uses no spreading metric; Algorithm 3 receives a zero metric that
  // the FM carver ignores.
  const SpreadingMetric zero(hg.num_nets(), 0.0);
  // Safepoint: before each carve. RFM has no best-so-far to fall back on,
  // so a fired token degrades the remaining carves to one FM pass instead
  // of aborting — the fastest construction that is still valid.
  const CarveFn carve = [&params](const Hypergraph& sub,
                                  std::span<const double>, double lb,
                                  double ub, Rng& r) {
    const std::size_t passes =
        params.cancel.Cancelled() ? 1 : params.fm_passes;
    return FmCarve(sub, lb, ub, r, passes);
  };
  return BuildPartitionTopDown(hg, spec, zero, carve, rng);
}

}  // namespace htp
