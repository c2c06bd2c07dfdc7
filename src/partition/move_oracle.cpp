#include "partition/move_oracle.hpp"

namespace htp {
namespace {

double SpanValue(std::size_t f) {
  return f >= 2 ? static_cast<double>(f) : 0.0;
}

}  // namespace

HtpMoveOracle::HtpMoveOracle(TreePartition& tp, const HierarchySpec& spec)
    : tp_(&tp), spec_(&spec), hg_(&tp.hypergraph()),
      levels_(tp.root_level()) {
  HTP_CHECK_MSG(tp.fully_assigned(), "oracle needs a complete partition");
  counts_.resize(static_cast<std::size_t>(hg_->num_nets()) * levels_);
  for (NetId e = 0; e < hg_->num_nets(); ++e)
    for (NodeId v : hg_->pins(e))
      for (Level l = 0; l < levels_; ++l) Inc(e, l, tp.block_at(v, l));
}

std::size_t HtpMoveOracle::Distinct(NetId e, Level l) const {
  return counts_[Slot(e, l)].size();
}

std::size_t HtpMoveOracle::Count(NetId e, Level l, BlockId q) const {
  for (const auto& [block, count] : counts_[Slot(e, l)])
    if (block == q) return count;
  return 0;
}

void HtpMoveOracle::Inc(NetId e, Level l, BlockId q) {
  SlotVec& vec = counts_[Slot(e, l)];
  for (auto& [block, count] : vec) {
    if (block == q) {
      ++count;
      return;
    }
  }
  vec.emplace_back(q, 1);
}

void HtpMoveOracle::Dec(NetId e, Level l, BlockId q) {
  SlotVec& vec = counts_[Slot(e, l)];
  for (std::size_t i = 0; i < vec.size(); ++i) {
    if (vec[i].first == q) {
      if (--vec[i].second == 0) {
        vec[i] = vec.back();
        vec.pop_back();
      }
      return;
    }
  }
  HTP_CHECK_MSG(false, "span table underflow");
}

double HtpMoveOracle::Delta(NodeId v, BlockId target) const {
  const BlockId from = tp_->leaf_of(v);
  if (from == target) return 0.0;
  const Level lca = tp_->LcaLevel(from, target);
  double delta = 0.0;
  for (NetId e : hg_->nets(v)) {
    for (Level l = 0; l < lca; ++l) {
      const BlockId oldb = tp_->ancestor(from, l);
      const BlockId newb = tp_->ancestor(target, l);
      const std::size_t f = Distinct(e, l);
      const std::size_t cnt_old = Count(e, l, oldb);
      const std::size_t cnt_new = Count(e, l, newb);
      const std::size_t f_after =
          f - (cnt_old == 1 ? 1 : 0) + (cnt_new == 0 ? 1 : 0);
      delta += spec_->weight(l) * hg_->net_capacity(e) *
               (SpanValue(f_after) - SpanValue(f));
    }
  }
  return delta;
}

bool HtpMoveOracle::InteriorDeltas(NodeId v,
                                   std::vector<double>& by_lca) const {
  const auto nets = hg_->nets(v);
  for (NetId e : nets)
    if (Distinct(e, 0) != 1) return false;
  // Every net has >= 2 distinct pins, so v's block keeps one: each net
  // goes from span 0 (f = 1) to span 2 at every level below the LCA.
  // Delta's loop order and expression then give the same double.
  const double span_change = SpanValue(2) - SpanValue(1);
  by_lca.assign(levels_ + 1, 0.0);
  for (Level lca = 1; lca <= levels_; ++lca) {
    double delta = 0.0;
    for (NetId e : nets)
      for (Level l = 0; l < lca; ++l)
        delta += spec_->weight(l) * hg_->net_capacity(e) * span_change;
    by_lca[lca] = delta;
  }
  return true;
}

bool HtpMoveOracle::Feasible(NodeId v, BlockId target) const {
  const BlockId from = tp_->leaf_of(v);
  if (from == target) return false;
  const Level lca = tp_->LcaLevel(from, target);
  const double s = hg_->node_size(v);
  for (Level l = 0; l < lca; ++l) {
    const BlockId q = tp_->ancestor(target, l);
    if (tp_->block_size(q) + s > spec_->capacity(l) + 1e-9) return false;
  }
  return true;
}

void HtpMoveOracle::Apply(NodeId v, BlockId target) {
  const BlockId from = tp_->leaf_of(v);
  if (from == target) return;
  const Level lca = tp_->LcaLevel(from, target);
  for (NetId e : hg_->nets(v)) {
    for (Level l = 0; l < lca; ++l) {
      Dec(e, l, tp_->ancestor(from, l));
      Inc(e, l, tp_->ancestor(target, l));
    }
  }
  tp_->MoveNode(v, target);
}

}  // namespace htp
