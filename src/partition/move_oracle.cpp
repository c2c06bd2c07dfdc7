#include "partition/move_oracle.hpp"

namespace htp {
namespace {

double SpanValue(std::size_t f) {
  return f >= 2 ? static_cast<double>(f) : 0.0;
}

}  // namespace

HtpMoveOracle::HtpMoveOracle(TreePartition& tp, const HierarchySpec& spec)
    : tp_(&tp), hg_(&tp.hypergraph()), levels_(tp.root_level()),
      leaves_(tp.Leaves()) {
  HTP_CHECK_MSG(tp.fully_assigned(), "oracle needs a complete partition");
  for (Level l = 0; l < levels_; ++l) {
    weight_.push_back(spec.weight(l));
    room_.push_back(spec.capacity(l) + 1e-9);
  }

  const std::size_t num_leaves = leaves_.size();
  leaf_index_.assign(tp.num_blocks(), kNotLeaf);
  ancestors_.resize(num_leaves * (levels_ + 1));
  for (std::size_t i = 0; i < num_leaves; ++i) {
    leaf_index_[leaves_[i]] = i;
    BlockId q = leaves_[i];
    for (Level l = 0; l <= levels_; ++l, q = tp.parent(q))
      ancestors_[i * (levels_ + 1) + l] = q;
  }
  lca_.resize(num_leaves * num_leaves);
  for (std::size_t i = 0; i < num_leaves; ++i)
    for (std::size_t j = 0; j < num_leaves; ++j) {
      const BlockId* a = &ancestors_[i * (levels_ + 1)];
      const BlockId* b = &ancestors_[j * (levels_ + 1)];
      Level l = 0;
      while (a[l] != b[l]) ++l;
      lca_[i * num_leaves + j] = l;
    }

  // One pass per net: level 0 counts the pins' leaves, and level l + 1
  // lifts level l's pairs to their parents, summing the counts. A block's
  // pair is found through per-block stamps, so a net costs
  // O(deg(e) * levels) however many blocks it touches.
  if (levels_ == 0) return;
  const NetId m = hg_->num_nets();
  slot_begin_.resize(m);
  distinct_ = std::make_unique_for_overwrite<std::uint32_t[]>(
      static_cast<std::size_t>(m) * levels_);
  pairs_ = std::make_unique_for_overwrite<BlockCount[]>(levels_ *
                                                         hg_->num_pins());
  std::vector<std::uint64_t> stamp(tp.num_blocks(), 0);
  std::vector<std::uint32_t> index(tp.num_blocks());  // its pair, if stamped
  std::uint64_t tag = 0;
  std::size_t begin = 0;
  for (NetId e = 0; e < m; ++e) {
    const std::size_t degree = hg_->net_degree(e);
    slot_begin_[e] = begin;
    BlockCount* slot = &pairs_[begin];
    begin += levels_ * degree;
    std::uint32_t n = 0;
    const auto keep = [&](BlockId q, std::uint32_t count) {
      if (stamp[q] == tag) {
        slot[index[q]].count += count;
      } else {
        stamp[q] = tag;
        index[q] = n;
        slot[n++] = {q, count};
      }
    };
    ++tag;
    for (NodeId v : hg_->pins(e)) keep(tp.leaf_of(v), 1);
    distinct_[e * levels_] = n;
    for (Level l = 1; l < levels_; ++l) {
      const BlockCount* below = slot;
      const std::uint32_t below_n = n;
      slot += degree;
      n = 0;
      ++tag;
      for (std::uint32_t i = 0; i < below_n; ++i)
        keep(tp.parent(below[i].block), below[i].count);
      distinct_[e * levels_ + l] = n;
    }
  }
}

double HtpMoveOracle::Cost() const {
  double total = 0.0;
  for (NetId e = 0; e < hg_->num_nets(); ++e) {
    const double capacity = hg_->net_capacity(e);
    double cost = 0.0;
    for (Level l = 0; l < levels_ && Distinct(e, l) >= 2; ++l)
      cost += SpanCost(weight_[l], Distinct(e, l), capacity);
    total += cost;
  }
  return total;
}

HtpMoveOracle::BlockCount* HtpMoveOracle::Slot(NetId e, Level l) {
  return &pairs_[slot_begin_[e] + l * hg_->net_degree(e)];
}

const HtpMoveOracle::BlockCount* HtpMoveOracle::Slot(NetId e, Level l) const {
  return &pairs_[slot_begin_[e] + l * hg_->net_degree(e)];
}

std::size_t HtpMoveOracle::Count(NetId e, Level l, BlockId q) const {
  const BlockCount* slot = Slot(e, l);
  for (std::size_t i = 0, n = Distinct(e, l); i < n; ++i)
    if (slot[i].block == q) return slot[i].count;
  return 0;
}

void HtpMoveOracle::Add(NetId e, Level l, BlockId q, std::uint32_t count) {
  BlockCount* slot = Slot(e, l);
  std::uint32_t& n = distinct_[e * levels_ + l];
  for (std::uint32_t i = 0; i < n; ++i) {
    if (slot[i].block == q) {
      slot[i].count += count;
      return;
    }
  }
  slot[n++] = {q, count};  // a net has at most deg(e) distinct blocks
}

void HtpMoveOracle::Dec(NetId e, Level l, BlockId q) {
  BlockCount* slot = Slot(e, l);
  std::uint32_t& n = distinct_[e * levels_ + l];
  for (std::uint32_t i = 0; i < n; ++i) {
    if (slot[i].block == q) {
      if (--slot[i].count == 0) slot[i] = slot[--n];
      return;
    }
  }
  HTP_CHECK_MSG(false, "span table underflow");
}

double HtpMoveOracle::Delta(NodeId v, BlockId target) const {
  const BlockId from = tp_->leaf_of(v);
  if (from == target) return 0.0;
  const Level lca = LcaLevel(from, target);
  const BlockId* old_chain = Ancestors(from);
  const BlockId* new_chain = Ancestors(target);
  double delta = 0.0;
  for (NetId e : hg_->nets(v)) {
    for (Level l = 0; l < lca; ++l) {
      const std::size_t f = Distinct(e, l);
      const std::size_t cnt_old = Count(e, l, old_chain[l]);
      const std::size_t cnt_new = Count(e, l, new_chain[l]);
      const std::size_t f_after =
          f - (cnt_old == 1 ? 1 : 0) + (cnt_new == 0 ? 1 : 0);
      delta += weight_[l] * hg_->net_capacity(e) *
               (SpanValue(f_after) - SpanValue(f));
    }
  }
  return delta;
}

bool HtpMoveOracle::InteriorDeltas(NodeId v,
                                   std::vector<double>& by_lca) const {
  const auto nets = hg_->nets(v);
  for (NetId e : nets)
    if (CutAtLeaves(e)) return false;
  // Every net has >= 2 distinct pins, so v's block keeps one: each net
  // goes from span 0 (f = 1) to span 2 at every level below the LCA.
  // Delta's loop order and expression then give the same double.
  const double span_change = SpanValue(2) - SpanValue(1);
  by_lca.assign(levels_ + 1, 0.0);
  for (Level lca = 1; lca <= levels_; ++lca) {
    double delta = 0.0;
    for (NetId e : nets)
      for (Level l = 0; l < lca; ++l)
        delta += weight_[l] * hg_->net_capacity(e) * span_change;
    by_lca[lca] = delta;
  }
  return true;
}

bool HtpMoveOracle::Feasible(NodeId v, BlockId target) const {
  const BlockId from = tp_->leaf_of(v);
  if (from == target) return false;
  const Level lca = LcaLevel(from, target);
  const double s = hg_->node_size(v);
  const BlockId* chain = Ancestors(target);
  for (Level l = 0; l < lca; ++l)
    if (tp_->block_size(chain[l]) + s > room_[l]) return false;
  return true;
}

void HtpMoveOracle::Apply(NodeId v, BlockId target) {
  const BlockId from = tp_->leaf_of(v);
  if (from == target) return;
  tp_->MoveNode(v, target);  // checks that target is a leaf
  const Level lca = LcaLevel(from, target);
  const BlockId* old_chain = Ancestors(from);
  const BlockId* new_chain = Ancestors(target);
  for (NetId e : hg_->nets(v)) {
    for (Level l = 0; l < lca; ++l) {
      Dec(e, l, old_chain[l]);
      Add(e, l, new_chain[l], 1);
    }
  }
}

}  // namespace htp
