// Dijkstra shortest paths over a hypergraph with net length functions.
//
// Both the flow-injection heuristic (Algorithm 2) and the LP separation
// oracle need single-source shortest paths where the "edges" are nets of
// length d(e) >= 0: a path may enter a net at any pin and leave at any other
// pin, paying d(e) once. Settling proceeds in nondecreasing distance, and
// each net needs to be relaxed only from its first settled pin (any later
// settled pin offers a distance at least as large), giving O((n+p) log n).
//
// DijkstraWorkspace::Grow additionally exposes the incremental S(v,k) trees
// of constraint family (5): after the k-th node is settled the visitor sees
// the prefix sums needed to evaluate the spreading constraint and may stop
// the growth early, which is what makes Algorithm 2 affordable.
//
// Growth runs over a prebuilt CsrView (graph/csr_view.hpp), whose one-time
// lowering is amortized across the many growths of a metric computation,
// on a caller-owned DijkstraWorkspace: scratch state is reused across calls
// with epoch-stamped validity (no per-call allocation, no O(nets)
// clearing), one workspace per worker makes growth re-entrant for parallel
// candidate scans, and telemetry is *returned* via DijkstraStats instead of
// recorded, so speculative work can be discarded without perturbing the
// deterministic counter totals (see docs/observability.md). In the library
// the one caller is ViolationScanner (core/spreading_metric.hpp), the
// family-(5) oracle. tests/graph/csr_dijkstra_diff_test.cpp checks the
// engine bit for bit (distances, parents, settling (pop) order, and work
// counts) against the plain binary-heap walk over the Hypergraph that
// tests/test_util.hpp keeps as the reference.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/csr_view.hpp"
#include "netlist/hypergraph.hpp"

namespace htp {

inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// Parent edge of one settled node: the net through which it was first
/// reached and the settled pin the relaxation came from. Stored as one
/// 8-byte record so settling writes a single output slot for both.
struct TreeParent {
  NetId net = kInvalidNet;
  NodeId node = kInvalidNode;

  friend bool operator==(const TreeParent&, const TreeParent&) = default;
};

/// Result of a (possibly truncated) Dijkstra run.
struct ShortestPathTree {
  NodeId source = kInvalidNode;
  /// Per node: shortest distance from the source (kInfDist if not settled).
  std::vector<double> dist;
  /// Per node: parent edge ({kInvalidNet, kInvalidNode} for the source and
  /// unsettled nodes).
  std::vector<TreeParent> parent;
  /// Settled nodes in settling (nondecreasing distance) order; order[0] is
  /// the source.
  std::vector<NodeId> order;

  bool settled(NodeId v) const { return dist[v] != kInfDist; }
};

/// Visitor outcome after each settled node.
enum class GrowAction { kContinue, kStop };

/// State handed to the visitor after settling the k-th node (k = order.size()).
struct GrowState {
  NodeId node;             ///< the node just settled
  double distance;         ///< its distance from the source
  double tree_size;        ///< s(S(v,k)): total node size of settled nodes
  double weighted_dist;    ///< sum over settled u of s(u) * dist(v,u)
  std::size_t tree_nodes;  ///< k
};

/// Work done by one growth, batched for a single counter flush. The scan
/// engine commits stats only for candidates the serial order would have
/// visited, keeping dijkstra.* totals schedule-independent.
struct DijkstraStats {
  std::uint64_t pops = 0;
  std::uint64_t relaxations = 0;
  std::uint64_t settled = 0;

  DijkstraStats& operator+=(const DijkstraStats& other) {
    pops += other.pops;
    relaxations += other.relaxations;
    settled += other.settled;
    return *this;
  }
};

/// Reusable scratch state for Dijkstra growths: tentative distances, the
/// per-net relaxed marks, and the frontier storage. Validity of the
/// tentative/relaxed cells is tracked by an epoch stamp, so starting a new
/// growth costs O(1) besides sizing the arrays on first use (or after the
/// graph grows). Not thread-safe: use one workspace per worker thread.
class DijkstraWorkspace {
 public:
  /// Runs Dijkstra from `source` over `view` with lengths `net_length`
  /// (size = num_nets, entries >= 0), writing the (possibly truncated) tree
  /// into `out` — the caller owns and may reuse it; its previous contents
  /// are discarded. The visitor is called after every settled node
  /// (including the source) and may stop the growth; the tree then holds
  /// exactly the settled prefix, the shortest-path tree S(v,k) of the paper.
  /// When `stats` is non-null the growth's work counts are *added* to it;
  /// nothing is recorded into the obs counters (that is the caller's
  /// decision — see RecordDijkstraCounters).
  ///
  /// The frontier has three levels instead of one binary heap: a one-entry
  /// hot register, an ascending sorted run popped from a drifting head, and
  /// a 4-ary heap that absorbs deep inserts (see the loop comments). All
  /// frontier keys (dist, node) are distinct (a node is re-pushed only with
  /// a strictly smaller distance), so ANY exact min-priority structure pops
  /// them in the one sorted order; each pop takes the minimum of the three
  /// levels' minima, which is the global frontier minimum. Distances,
  /// parents, settling order, and work counts therefore equal those of the
  /// binary-heap reference walk, as tests/graph/csr_dijkstra_diff_test.cpp
  /// asserts.
  template <typename Visitor>
  void Grow(const CsrView& view, NodeId source,
            std::span<const double> net_length, Visitor&& visitor,
            ShortestPathTree& out, DijkstraStats* stats = nullptr) {
    HTP_CHECK(source < view.num_nodes());
    HTP_CHECK(net_length.size() == view.num_nets());
    const std::size_t num_nodes = view.num_nodes();
    const std::size_t num_nets = view.num_nets();
    BeginEpoch(num_nodes, num_nets);

    // Stage the per-view node sizes inside the scratch records: the settle
    // step then reads the record the stale test already loaded instead of a
    // second random array. Keyed by the view's unique id, so the O(n) fill
    // is paid once per (workspace, view) pairing, not per growth.
    if (sizes_view_id_ != view.id()) {
      const double* sizes = view.node_sizes();
      for (std::size_t v = 0; v < num_nodes; ++v)
        node_scratch_[v].size = sizes[v];
      sizes_view_id_ = view.id();
    }
    // Stage the net lengths next to the per-net relaxed marks: the
    // first-relaxation step then touches one record instead of two random
    // arrays. Lengths are caller-owned and may change between calls, so
    // this fill is per growth — a sequential stream over m entries, cheaper
    // than the ~m random reads it replaces.
    {
      const double* len = net_length.data();
      for (std::size_t e = 0; e < num_nets; ++e)
        net_scratch_[e].length = len[e];
    }

    out.source = source;
    out.dist.assign(num_nodes, kInfDist);
    out.parent.assign(num_nodes, TreeParent{});
    out.order.clear();

    // The sorted run's tail only ever advances (the head drifts after it),
    // and every frontier insert advances it by at most one. Inserts happen
    // only on improving relaxations, of which there is at most one per pin
    // entry scanned, so pin_entries() + 1 slots can never overflow.
    if (run_.size() < view.pin_entries() + 1)
      run_.resize(view.pin_entries() + 1);

    const std::uint32_t* arc_offset = view.arc_offsets();
    const CsrArc* arcs = view.arcs();
    const NodeId* pins = view.pins();
    double* dist = out.dist.data();
    TreeParent* parent = out.parent.data();
    // Scratch as locals: member accesses inside the loop would have to be
    // re-loaded around every store through `dist`/`scratch` (the compiler
    // must assume the arrays alias).
    NodeScratch* scratch = node_scratch_.data();
    NetScratch* nets = net_scratch_.data();
    HeapEntry* run = run_.data();
    const std::uint32_t epoch = epoch_;

    scratch[source].tentative = 0.0;
    scratch[source].epoch = epoch;
    scratch[source].parent_net = kInvalidNet;
    scratch[source].parent_node = kInvalidNode;

    // Three-level frontier, cheapest level first:
    //
    //  * `hot` — a one-entry register holding the smallest entry inserted
    //    since the last pop that found it smallest. Dijkstra often settles
    //    the best child of the node it just settled ("chain following"),
    //    and those entries never touch memory at all.
    //  * run_[run_head, run_tail) — ascending (dist, node) sorted run.
    //    Pops read the head and advance it; inserts sift linearly from the
    //    tail, where almost all of them land within a few slots (the new
    //    candidate's key exceeds the settled radius by one net length).
    //    The shift loop's compare predicts perfectly until the final
    //    iteration, unlike heap sift-downs that mispredict at every level.
    //  * heap_ — a 4-ary min-heap absorbing the rare deep inserts. One
    //    probe at depth kRunSiftDepth decides run-vs-heap BEFORE any
    //    shifting, bounding the linear sift and keeping the worst-case
    //    insert at O(kRunSiftDepth + log frontier) instead of the pure
    //    sorted run's O(frontier).
    //
    // Every pop takes the minimum of the three levels' minima (the run is
    // ascending, so its head is its minimum) — the global frontier minimum.
    // All keys are distinct, so the pop sequence is the one sorted order
    // any exact priority queue would produce: results and work counts are
    // bit-identical to a binary heap's.
    HeapEntry hot{0.0, source};
    bool has_hot = true;
    std::size_t run_head = 0, run_tail = 0;

    double tree_size = 0.0;
    double weighted_dist = 0.0;
    std::uint64_t pops = 0, relaxations = 0;

    while (has_hot || run_head != run_tail || !heap_.empty()) {
      HeapEntry top;
      int source_level = -1;
      if (has_hot) {
        top = hot;
        source_level = 0;
      }
      if (run_head != run_tail &&
          (source_level < 0 || HeapBefore(run[run_head], top))) {
        top = run[run_head];
        source_level = 1;
      }
      if (!heap_.empty() &&
          (source_level < 0 || HeapBefore(heap_.front(), top))) {
        top = heap_.front();
        source_level = 2;
      }
      if (source_level == 0) {
        has_hot = false;
      } else if (source_level == 1) {
        // Reset the drift whenever the run empties so the tail stays far
        // from the buffer's end.
        if (++run_head == run_tail) run_head = run_tail = 0;
      } else {
        HeapPop4();
      }
      ++pops;
      const NodeId u = top.node;
      const NodeScratch su = scratch[u];
      // Stale test against the best-known distance alone: lengths are
      // nonnegative, so once u settles every remaining frontier entry for
      // it is strictly larger (a node is re-pushed only with a strictly
      // smaller tentative) — no separate settled check needed here.
      if (top.dist > su.tentative) continue;

      dist[u] = top.dist;
      parent[u] = {su.parent_net, su.parent_node};
      out.order.push_back(u);
      tree_size += su.size;
      weighted_dist += su.size * top.dist;

      const GrowState state{u, top.dist, tree_size, weighted_dist,
                            out.order.size()};
      if (visitor(state) == GrowAction::kStop) break;

      const std::uint32_t arc_end = arc_offset[u + 1];
      for (std::uint32_t a = arc_offset[u]; a != arc_end; ++a) {
        const CsrArc arc = arcs[a];
        const NetScratch net = nets[arc.net];
        if (net.epoch == epoch) continue;  // already relaxed
        nets[arc.net].epoch = epoch;
        const double cand = top.dist + net.length;
        for (std::uint32_t p = arc.pin_begin; p != arc.pin_end; ++p) {
          const NodeId x = pins[p];
          // One comparison folds the settled and the no-improvement tests:
          // cand >= dist(u) >= dist(x) for every settled x (lengths >= 0),
          // so settled pins can never pass. Epoch-stale cells read as +inf,
          // and the packed scratch record costs one cache line per probe.
          if (scratch[x].epoch == epoch ? cand >= scratch[x].tentative : false)
            continue;
          scratch[x].tentative = cand;
          scratch[x].epoch = epoch;
          scratch[x].parent_net = arc.net;
          scratch[x].parent_node = u;
          ++relaxations;
          HeapEntry entry{cand, x};
          if (!has_hot) {
            hot = entry;
            has_hot = true;
            continue;
          }
          if (HeapBefore(entry, hot)) std::swap(entry, hot);
          if (run_tail == run_head || !HeapBefore(entry, run[run_tail - 1])) {
            run[run_tail++] = entry;  // at or above the run max: append
          } else if (run_tail - run_head > kRunSiftDepth &&
                     HeapBefore(entry, run[run_tail - 1 - kRunSiftDepth])) {
            HeapPush4(entry);  // deep insert: spill to the heap unshifted
          } else {
            std::size_t i = run_tail;
            while (i > run_head && HeapBefore(entry, run[i - 1])) {
              run[i] = run[i - 1];
              --i;
            }
            run[i] = entry;
            ++run_tail;
          }
        }
      }
    }
    heap_.clear();
    if (stats) {
      stats->pops += pops;
      stats->relaxations += relaxations;
      stats->settled += out.order.size();
    }
  }

 private:
  struct HeapEntry {
    double dist;
    NodeId node;
  };
  /// Strict (dist, node) min order of frontier entries, shared by the sorted
  /// run and the 4-ary heap below. The node tie-break pins the settling
  /// order of equidistant nodes, part of the library-wide determinism
  /// contract. Written with non-short-circuit operators on purpose: both sides compile to setcc and
  /// the result feeds conditional moves in the sift-down, where a
  /// short-circuit branch on effectively random doubles would mispredict
  /// half the time.
  static bool HeapBefore(const HeapEntry& a, const HeapEntry& b) {
    return (a.dist < b.dist) |
           ((a.dist == b.dist) & (a.node < b.node));
  }

  // 4-ary implicit heap over heap_ (children of i at 4i+1 .. 4i+4): half
  // the tree height of a binary heap, and the four siblings compared on the
  // way down share a cache line (HeapEntry is 16 bytes). Both sifts move
  // the hole instead of swapping.
  void HeapPush4(HeapEntry entry) {
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!HeapBefore(entry, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = entry;
  }
  HeapEntry HeapPop4() {
    const HeapEntry top = heap_.front();
    const HeapEntry tail = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n) break;
        const std::size_t limit = std::min(first + 4, n);
        // Branchless min-of-siblings: the keys are effectively random, so a
        // compare-and-branch scan would mispredict ~half the time; tracking
        // (best index, best entry) through ternaries compiles to cmovs.
        std::size_t best = first;
        HeapEntry best_entry = heap_[first];
        for (std::size_t c = first + 1; c < limit; ++c) {
          const HeapEntry entry = heap_[c];
          const bool before = HeapBefore(entry, best_entry);
          best = before ? c : best;
          best_entry.dist = before ? entry.dist : best_entry.dist;
          best_entry.node = before ? entry.node : best_entry.node;
        }
        if (!HeapBefore(best_entry, tail)) break;
        heap_[i] = best_entry;
        i = best;
      }
      heap_[i] = tail;
    }
    return top;
  }

  /// Tentative distance + validity stamp + staged parent pointers of one
  /// node, packed so the hot relaxation probe-and-update touches a single
  /// record per pin instead of scattering across separate arrays; the
  /// winning parents reach the output once per SETTLED node, at settle time
  /// (settled <= relaxations, and losers never reach the output at all).
  /// The trailing `size` is the per-view node-size cache (see Grow);
  /// updates must write the other fields individually to preserve it.
  struct NodeScratch {
    double tentative;
    std::uint32_t epoch;
    NetId parent_net;
    NodeId parent_node;
    double size;
  };

  /// Per-net relaxed mark + the growth's staged net length, packed for the
  /// same one-record-per-probe reason as NodeScratch.
  struct NetScratch {
    std::uint32_t epoch;
    double length;
  };

  /// Sizes the arrays for (num_nodes, num_nets) and invalidates every cell
  /// by bumping the epoch (O(1) except on first use, growth, or the ~4e9th
  /// call when the stamp wraps and the arrays are re-zeroed).
  void BeginEpoch(std::size_t num_nodes, std::size_t num_nets) {
    if (node_scratch_.size() < num_nodes) {
      node_scratch_.resize(num_nodes,
                           NodeScratch{0.0, 0, kInvalidNet, kInvalidNode, 0.0});
      sizes_view_id_ = 0;  // the staged sizes no longer cover every node
    }
    if (net_scratch_.size() < num_nets)
      net_scratch_.resize(num_nets, NetScratch{0, 0.0});
    if (++epoch_ == 0) {
      for (NodeScratch& s : node_scratch_) s.epoch = 0;
      for (NetScratch& s : net_scratch_) s.epoch = 0;
      epoch_ = 1;
    }
    heap_.clear();
  }

  /// Bound on the sorted run's linear insert sift. Deeper inserts go to the
  /// 4-ary heap instead: one probe at this depth decides before anything is
  /// shifted. Tuned on the micro-benchmarks — past ~32, longer shifts cost
  /// more than a push into the (small) spill heap.
  static constexpr std::size_t kRunSiftDepth = 32;

  std::vector<NodeScratch> node_scratch_;
  std::vector<NetScratch> net_scratch_;
  std::vector<HeapEntry> heap_;
  std::vector<HeapEntry> run_;  ///< sorted-run storage of the CSR frontier
  std::uint32_t epoch_ = 0;
  /// CsrView::id() whose node sizes are currently staged in node_scratch_
  /// (0 = none; view ids are never 0).
  std::uint64_t sizes_view_id_ = 0;
};

/// Credits `calls` growths worth `stats` to the dijkstra.* counters.
/// Workspace callers use it to commit exactly the deterministic
/// (serial-order) portion of a speculative scan.
void RecordDijkstraCounters(const DijkstraStats& stats, std::uint64_t calls);

/// Distinct nets used as parent edges by the settled nodes of `tree` —
/// the edge set of S(v,k) that Algorithm 2 injects flow on.
std::vector<NetId> TreeNets(const ShortestPathTree& tree);

/// In-place TreeNets: fills `nets` (cleared first, capacity reused) with the
/// sorted distinct parent nets of `tree`.
void TreeNetsInto(const ShortestPathTree& tree, std::vector<NetId>& nets);

/// delta(S(v,k), e) of Equation (6): for every net e in the tree, the total
/// node size of the subtree hanging below e (the side not containing the
/// source). Returned as (net, delta) pairs aligned with TreeNets(tree).
/// Identity checked in tests: sum_e d(e)*delta(e) == sum_u s(u)*dist(v,u).
std::vector<std::pair<NetId, double>> TreeSubtreeSizes(
    const Hypergraph& hg, const ShortestPathTree& tree);

}  // namespace htp
