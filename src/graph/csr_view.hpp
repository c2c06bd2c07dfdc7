// CsrView: an immutable CSR lowering of the hypergraph star expansion for
// the Dijkstra hot path.
//
// Hypergraph already stores both incidence directions in CSR form, but a
// Dijkstra growth walking it pays three indirections per relaxed
// net — node -> incident-net list, net -> pin offset, offset -> pins — plus
// a bounds-checked span construction (HTP_CHECK is active in Release) for
// every one of them. This is the hot loop of the spreading metric, which a
// traced perfbench flat_iscas run puts at about 95% of flat FLOW CPU:
// Algorithm 2 runs it millions of times per metric.
//
// CsrView flattens the walk once per metric computation into two arrays the
// loop streams through with raw pointers:
//
//   arc_offset_[v] .. arc_offset_[v+1]   the arcs of node v
//   arcs_[a] = {net, pin_begin, pin_end} one incident net of v, with the
//                                        pins it reaches as a range of
//   pins_[...]                           node ids
//
// Two layouts share that contract (the growth loop cannot tell them apart):
//
//   * kDuplicated — each arc owns a private copy of its net's pins with the
//     arc's own node removed, so a full relaxation is one forward stream
//     over memory. Costs sum_e |e|*(|e|-1) entries — the star/clique
//     expansion — which is ~2x the pin count for short-net netlists.
//   * kShared — each net's pin list is stored once and every arc points at
//     it (the owning node stays in the list; the growth's settled-node test
//     skips it). Costs |pins| entries.
//
// kAuto picks kDuplicated unless a hub net blows the expansion past
// kDuplicationLimit times the pin count. Results are bit-identical across
// layouts and with the reference walk over the Hypergraph itself
// (tests/test_util.hpp): arcs preserve the node -> nets order and pins
// preserve the per-net pin order, so relaxations happen in the same
// sequence with the same tie-breaks.
//
// Scale limit: pin offsets are 32-bit, so the chosen layout's pin-entry
// count (sum_e |e|*(|e|-1) duplicated, |pins| shared) must fit in uint32 —
// the constructor throws "hypergraph too large for 32-bit CSR pin offsets"
// otherwise. kAuto stays comfortably inside that for the 100k-node circuits
// the multilevel driver targets (docs/scaling.md); generators.cpp itself
// indexes with std::size_t and has no sub-32-bit assumptions.
//
// Thread safety: immutable after construction; shared read-only by all
// DijkstraWorkspace instances of a ViolationScanner.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/hypergraph.hpp"

namespace htp {

/// One (node, net) incidence of the lowered star expansion.
struct CsrArc {
  NetId net = kInvalidNet;       ///< index into net_length / relax marks
  std::uint32_t pin_begin = 0;   ///< range of reachable pins in pins()
  std::uint32_t pin_end = 0;
};

/// Pin-storage strategy (see the header comment).
enum class CsrLayout { kAuto, kDuplicated, kShared };

class CsrView {
 public:
  /// Expansion cap for kAuto: fall back to kShared when the duplicated
  /// layout would exceed this many entries per original pin.
  static constexpr std::size_t kDuplicationLimit = 8;

  explicit CsrView(const Hypergraph& hg, CsrLayout layout = CsrLayout::kAuto);

  NodeId num_nodes() const { return static_cast<NodeId>(num_nodes_); }
  NetId num_nets() const { return static_cast<NetId>(num_nets_); }
  /// Process-wide unique, nonzero identity of this view. DijkstraWorkspace
  /// keys its per-view caches (node sizes staged inside the scratch records)
  /// on it, so the tag must never repeat even after a view is destroyed and
  /// another is allocated at the same address.
  std::uint64_t id() const { return id_; }
  /// True when the duplicated (fully streamed) layout was materialized.
  bool duplicated() const { return duplicated_; }
  /// Pin entries materialized (the layout's memory footprint).
  std::size_t pin_entries() const { return pins_.size(); }

  /// Checked convenience accessor (tests, non-hot callers).
  std::span<const CsrArc> arcs_of(NodeId v) const {
    HTP_CHECK(v < num_nodes());
    return {arcs_.data() + arc_offset_[v], arc_offset_[v + 1] - arc_offset_[v]};
  }

  // Raw accessors for the growth loop: no bounds checks, no span objects.
  const std::uint32_t* arc_offsets() const { return arc_offset_.data(); }
  const CsrArc* arcs() const { return arcs_.data(); }
  const NodeId* pins() const { return pins_.data(); }
  const double* node_sizes() const { return node_size_.data(); }

 private:
  std::size_t num_nodes_ = 0;
  std::size_t num_nets_ = 0;
  std::uint64_t id_ = 0;
  bool duplicated_ = false;
  std::vector<std::uint32_t> arc_offset_;  // size n+1
  std::vector<CsrArc> arcs_;               // size = total incidences
  std::vector<NodeId> pins_;
  std::vector<double> node_size_;          // size n
};

}  // namespace htp
