#include "core/cost.hpp"

#include <cstdint>

namespace htp {
namespace {

// Counts the distinct blocks a net's pins touch, level by level upward: the
// level-(l+1) blocks are the parents of the level-l ones, so each level
// dedupes only the previous level's distinct blocks. Stamps replace
// sorting, and the buffers live as long as the counter, so a pass over
// every net allocates nothing per net.
class SpanCounter {
 public:
  explicit SpanCounter(const TreePartition& tp)
      : tp_(tp), stamp_(tp.num_blocks(), 0) {}

  // Calls visit(l, f) for l = 0, 1, ... below `top` while the net's pins
  // touch f >= 2 distinct level-l blocks. Once they share one block they
  // share it at every level above, so the walk stops there.
  template <typename Visit>
  void ForEachSpan(NetId e, Level top, Visit&& visit) {
    blocks_.clear();
    ++tag_;
    for (NodeId v : tp_.hypergraph().pins(e)) Keep(tp_.leaf_of(v));
    for (Level l = 0; l < top && blocks_.size() >= 2; ++l) {
      visit(l, blocks_.size());
      below_.swap(blocks_);
      blocks_.clear();
      ++tag_;
      for (BlockId q : below_) Keep(tp_.parent(q));
    }
  }

 private:
  void Keep(BlockId q) {
    if (stamp_[q] == tag_) return;
    stamp_[q] = tag_;
    blocks_.push_back(q);
  }

  const TreePartition& tp_;
  std::vector<std::uint64_t> stamp_;  // per block: the tag_ it was kept at
  std::uint64_t tag_ = 0;
  std::vector<BlockId> blocks_;  // the current level's distinct blocks
  std::vector<BlockId> below_;   // the level below's, while lifting
};

// cost(e); NetCost and PartitionCost share it, so their sums agree bit for
// bit.
double NetCostWith(SpanCounter& counter, const TreePartition& tp,
                   const HierarchySpec& spec, NetId e) {
  const double capacity = tp.hypergraph().net_capacity(e);
  double cost = 0.0;
  counter.ForEachSpan(e, tp.root_level(), [&](Level l, std::size_t f) {
    cost += spec.weight(l) * static_cast<double>(f) * capacity;
  });
  return cost;
}

}  // namespace

std::size_t NetSpan(const TreePartition& tp, NetId e, Level l) {
  HTP_CHECK(l <= tp.root_level());
  SpanCounter counter(tp);
  std::size_t span = 0;
  counter.ForEachSpan(e, l + 1, [&](Level level, std::size_t f) {
    if (level == l) span = f;
  });
  return span;
}

double NetCost(const TreePartition& tp, const HierarchySpec& spec, NetId e) {
  SpanCounter counter(tp);
  return NetCostWith(counter, tp, spec, e);
}

double PartitionCost(const TreePartition& tp, const HierarchySpec& spec) {
  SpanCounter counter(tp);
  double total = 0.0;
  for (NetId e = 0; e < tp.hypergraph().num_nets(); ++e)
    total += NetCostWith(counter, tp, spec, e);
  return total;
}

std::vector<double> PartitionCostByLevel(const TreePartition& tp,
                                         const HierarchySpec& spec) {
  const Hypergraph& hg = tp.hypergraph();
  std::vector<double> by_level(tp.root_level(), 0.0);
  SpanCounter counter(tp);
  for (NetId e = 0; e < hg.num_nets(); ++e)
    counter.ForEachSpan(e, tp.root_level(), [&](Level l, std::size_t f) {
      by_level[l] +=
          spec.weight(l) * static_cast<double>(f) * hg.net_capacity(e);
    });
  return by_level;
}

double ConnectivityCost(const TreePartition& tp, Level l) {
  HTP_CHECK(l <= tp.root_level());
  const Hypergraph& hg = tp.hypergraph();
  SpanCounter counter(tp);
  double total = 0.0;
  for (NetId e = 0; e < hg.num_nets(); ++e)
    counter.ForEachSpan(e, l + 1, [&](Level level, std::size_t lambda) {
      if (level == l)
        total += static_cast<double>(lambda - 1) * hg.net_capacity(e);
    });
  return total;
}

std::vector<std::size_t> CutNetsByLevel(const TreePartition& tp) {
  const Hypergraph& hg = tp.hypergraph();
  std::vector<std::size_t> by_level(tp.root_level(), 0);
  SpanCounter counter(tp);
  for (NetId e = 0; e < hg.num_nets(); ++e)
    counter.ForEachSpan(e, tp.root_level(),
                        [&](Level l, std::size_t) { ++by_level[l]; });
  return by_level;
}

}  // namespace htp
