// Shared incremental move evaluation for HTP refiners.
//
// Both the generalized FM improver and the simulated-annealing refiner
// need the same three primitives over a TreePartition:
//   * Delta(v, leaf)    — exact Equation-(1) cost change of moving v,
//   * Feasible(v, leaf) — capacity feasibility along the target's chain,
//   * Apply(v, leaf)    — perform the move keeping span tables in sync.
// The oracle keeps, per net and level, the distinct blocks holding the
// net's pins with their pin counts, all in one flat array (a net's slot
// has room for deg(e) pairs), so Delta costs O(deg(v) * LCA-level). The
// tables are filled in one pass per net, and Cost() reads Equation (1)
// off them. The tree does not change while the oracle lives, so each
// leaf's ancestors and every leaf pair's LCA level are tabled once at
// construction. InteriorDeltas is Delta's shortcut for a node whose nets
// all lie inside its own leaf: such a gain depends only on the target's
// LCA level, so one evaluation per level replaces one per leaf.
#pragma once

#include <cstdint>
#include <memory>
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

  /// cost(P) of the current partition, read from the span tables. Equal
  /// to PartitionCost bit for bit: both sum SpanCost in the same order.
  double Cost() const;

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

  /// The partition's leaves, in id order.
  const std::vector<BlockId>& leaves() const { return leaves_; }

  /// LCA level of two leaves, from the table.
  Level LcaLevel(BlockId a, BlockId b) const {
    return lca_[LeafIndex(a) * leaves_.size() + LeafIndex(b)];
  }

  /// True when net e has pins in two or more leaves.
  bool CutAtLeaves(NetId e) const {
    return levels_ > 0 && Distinct(e, 0) >= 2;
  }

  const TreePartition& partition() const { return *tp_; }

 private:
  struct BlockCount {
    BlockId block;
    std::uint32_t count;
  };

  // The pairs of net e at level l start at slot_begin_[e] + l * deg(e).
  BlockCount* Slot(NetId e, Level l);
  const BlockCount* Slot(NetId e, Level l) const;
  std::size_t Distinct(NetId e, Level l) const {
    return distinct_[e * levels_ + l];
  }
  std::size_t Count(NetId e, Level l, BlockId q) const;
  void Add(NetId e, Level l, BlockId q, std::uint32_t count);
  void Dec(NetId e, Level l, BlockId q);
  // Position of leaf q in leaves_; throws unless q is a leaf.
  std::size_t LeafIndex(BlockId q) const {
    HTP_CHECK_MSG(q < leaf_index_.size() && leaf_index_[q] != kNotLeaf,
                  "move target must be a leaf");
    return leaf_index_[q];
  }
  // Leaf q's ancestors at levels 0 .. root level.
  const BlockId* Ancestors(BlockId q) const {
    return &ancestors_[LeafIndex(q) * (levels_ + 1)];
  }

  TreePartition* tp_;
  const Hypergraph* hg_;
  std::size_t levels_;          // levels with span tables: 0 .. root - 1
  std::vector<double> weight_;  // w_l
  std::vector<double> room_;    // C_l + 1e-9, Feasible's bound
  std::vector<BlockId> leaves_;
  static constexpr std::size_t kNotLeaf = ~std::size_t{0};
  std::vector<std::size_t> leaf_index_;  // per block; kNotLeaf above level 0
  std::vector<BlockId> ancestors_;       // per leaf, levels 0 .. root
  std::vector<Level> lca_;               // per ordered leaf pair
  std::vector<std::size_t> slot_begin_;  // per net
  // Per (net, level), and the pairs. Neither is zero-filled: construction
  // writes every count, and only a slot's first Distinct(e, l) pairs are
  // ever read.
  std::unique_ptr<std::uint32_t[]> distinct_;
  std::unique_ptr<BlockCount[]> pairs_;
};

}  // namespace htp
