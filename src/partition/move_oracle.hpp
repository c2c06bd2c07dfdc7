// Shared incremental move evaluation for HTP refiners.
//
// Both the generalized FM improver and the simulated-annealing refiner
// need the same three primitives over a TreePartition:
//   * Delta(v, leaf)    — exact Equation-(1) cost change of moving v,
//   * Feasible(v, leaf) — capacity feasibility along the target's chain,
//   * Apply(v, leaf)    — perform the move keeping span tables in sync.
// The oracle maintains per-net-per-level pin counts per block (tiny flat
// maps bounded by net degree), so Delta costs O(deg(v) * LCA-level).
// InteriorDeltas is Delta's shortcut for a node whose nets all lie inside
// its own leaf: such a gain depends only on the target's LCA level, so one
// evaluation per level replaces one per leaf.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost.hpp"
#include "core/tree_partition.hpp"

namespace htp {

/// Incremental span bookkeeping + move evaluation over one partition.
/// The partition must be fully assigned at construction and may be mutated
/// ONLY through Apply() while the oracle is alive.
class HtpMoveOracle {
 public:
  HtpMoveOracle(TreePartition& tp, const HierarchySpec& spec);

  /// Exact change of cost(P) if `v` moved to `target` (0 when target is
  /// v's current leaf).
  double Delta(NodeId v, BlockId target) const;

  /// The interior shortcut. Returns false unless v is interior: every net
  /// of v lies inside v's leaf. Otherwise sets by_lca[L], for L = 1 ..
  /// root level, to Delta(v, t) for any leaf t at LCA level L from v's
  /// leaf, bit for bit.
  bool InteriorDeltas(NodeId v, std::vector<double>& by_lca) const;

  /// True when every ancestor of `target` below the LCA has room for v.
  bool Feasible(NodeId v, BlockId target) const;

  /// Moves v to `target`, updating the partition and the span tables.
  void Apply(NodeId v, BlockId target);

  const TreePartition& partition() const { return *tp_; }

 private:
  std::size_t Slot(NetId e, Level l) const { return e * levels_ + l; }
  std::size_t Distinct(NetId e, Level l) const;
  std::size_t Count(NetId e, Level l, BlockId q) const;
  void Inc(NetId e, Level l, BlockId q);
  void Dec(NetId e, Level l, BlockId q);

  TreePartition* tp_;
  const HierarchySpec* spec_;
  const Hypergraph* hg_;
  std::size_t levels_;
  using SlotVec = std::vector<std::pair<BlockId, std::uint32_t>>;
  std::vector<SlotVec> counts_;
};

}  // namespace htp
