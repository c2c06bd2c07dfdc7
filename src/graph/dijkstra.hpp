// Dijkstra shortest paths over a hypergraph with net length functions.
//
// Both the flow-injection heuristic (Algorithm 2) and the LP separation
// oracle need single-source shortest paths where the "edges" are nets of
// length d(e) >= 0: a path may enter a net at any pin and leave at any other
// pin, paying d(e) once. Settling proceeds in nondecreasing distance, and
// each net needs to be relaxed only from its first settled pin (any later
// settled pin offers a distance at least as large). Because lengths are
// nonnegative, every frontier push is at least the last pop, so the
// frontier is a monotone radix heap over the distances' bit patterns: each
// entry moves through at most 63 buckets, O(p + 63n) per growth, with the
// entries at the current minimum popped in node order (docs/algorithms.md,
// "The CSR hot-path engine").
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
#include <array>
#include <bit>
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
  /// (size = num_nets, entries >= 0; a negative or NaN entry throws
  /// htp::Error), writing the (possibly truncated) tree
  /// into `out` — the caller owns and may reuse it; its previous contents
  /// are discarded. The visitor is called after every settled node
  /// (including the source) and may stop the growth; the tree then holds
  /// exactly the settled prefix, the shortest-path tree S(v,k) of the paper.
  /// When `stats` is non-null the growth's work counts are *added* to it;
  /// nothing is recorded into the obs counters (that is the caller's
  /// decision — see RecordDijkstraCounters).
  ///
  /// The frontier is a monotone radix heap over the bit patterns of the
  /// distances (see the loop comments): a pop takes the least key, and among
  /// the entries at that key the least node. All frontier keys (dist, node)
  /// are distinct (a node is re-pushed only with a strictly smaller
  /// distance), so any exact min-priority structure pops them in the one
  /// sorted order. Distances, parents, settling order, and work counts
  /// therefore equal those of the binary-heap reference walk, as
  /// tests/graph/csr_dijkstra_diff_test.cpp asserts.
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
    // than the ~m random reads it replaces. The same pass enforces the
    // precondition the frontier relies on: a negative (or NaN) length would
    // push a key below the last pop.
    {
      const double* len = net_length.data();
      bool nonnegative = true;
      for (std::size_t e = 0; e < num_nets; ++e) {
        net_scratch_[e].length = len[e];
        nonnegative &= len[e] >= 0.0;
      }
      HTP_CHECK_MSG(nonnegative, "net lengths must be >= 0");
    }

    out.source = source;
    out.dist.assign(num_nodes, kInfDist);
    out.parent.assign(num_nodes, TreeParent{});
    out.order.clear();

    // The ties never hold more entries than the growth pushes: at most one
    // per pin entry (each net is relaxed once) plus the source.
    if (ties_.size() < view.pin_entries() + 1)
      ties_.resize(view.pin_entries() + 1);

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
    std::vector<RadixEntry>* buckets = buckets_.data();
    std::uint64_t* bucket_min = bucket_min_.data();
    RadixEntry* ties = ties_.data();
    const std::uint32_t epoch = epoch_;

    scratch[source].tentative = 0.0;
    scratch[source].epoch = epoch;
    scratch[source].parent_net = kInvalidNet;
    scratch[source].parent_node = kInvalidNode;

    // Monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan). A
    // nonnegative double's bit pattern, read as an unsigned integer, orders
    // like the double itself (+0.0 is 0), and lengths are >= 0, so every
    // push is at least `last`, the key of the latest pop. The frontier is
    //
    //  * ties[head, tie_end), bucket 0: the entries whose key equals `last`,
    //    exactly the frontier's minimum distance, sorted by node and popped
    //    from the head. Entries pushed at `last` itself (a zero-length net,
    //    or a length lost to rounding: d + len == d) are sifted in among
    //    them, so a smaller node id still pops first. FLOW's lengths
    //    exp(α·f/c) − 1 with f >= ε make no such push.
    //  * buckets[b], 0 <= b < 63: the entries whose highest bit differing
    //    from `last` is bit b, unordered, with their least key cached in
    //    bucket_min[b]. Bit b of `occupied` marks buckets[b] nonempty.
    //
    // When the ties run dry, the lowest nonempty bucket holds the least
    // keys. Its cached minimum becomes `last` and its entries are
    // redistributed: each agrees with the new `last` on bit b and above, so
    // it joins the ties or a strictly lower bucket, and moves at most 63
    // times over its life. Pops thus follow the one sorted (dist, node)
    // order. The pins relaxed through one net share one key, so ties are
    // common on hypergraphs.
    std::uint64_t last = 0;  // the source's key, +0.0
    std::uint64_t occupied = 0;
    ties[0] = {last, source};
    std::size_t head = 0, tie_end = 1;

    double tree_size = 0.0;
    double weighted_dist = 0.0;
    std::uint64_t pops = 0, relaxations = 0;

    for (;;) {
      NodeId u;
      if (head != tie_end) {
        u = ties[head++].node;
      } else if (occupied != 0) {
        const int b = std::countr_zero(occupied);
        occupied &= occupied - 1;
        std::vector<RadixEntry>& bucket = buckets[b];
        last = bucket_min[b];
        head = tie_end = 0;
        if (bucket.size() == 1) {  // a lone minimum pops straight away
          u = bucket.front().node;
        } else {
          for (const RadixEntry& entry : bucket) {
            if (entry.key == last) {
              ties[tie_end++] = entry;
            } else {
              PushBucket(buckets, bucket_min, occupied,
                         std::bit_width(entry.key ^ last) - 1, entry);
            }
          }
          SortTies(ties, tie_end);
          u = ties[head++].node;
        }
        bucket.clear();
        bucket_min[b] = kNoKey;
      } else {
        break;
      }
      const double top_dist = std::bit_cast<double>(last);
      ++pops;
      const NodeScratch su = scratch[u];
      // Stale test against the best-known distance alone: lengths are
      // nonnegative, so once u settles every remaining frontier entry for
      // it is strictly larger (a node is re-pushed only with a strictly
      // smaller tentative) — no separate settled check needed here.
      if (top_dist > su.tentative) continue;

      dist[u] = top_dist;
      parent[u] = {su.parent_net, su.parent_node};
      out.order.push_back(u);
      tree_size += su.size;
      weighted_dist += su.size * top_dist;

      const GrowState state{u, top_dist, tree_size, weighted_dist,
                            out.order.size()};
      if (visitor(state) == GrowAction::kStop) break;

      const std::uint32_t arc_end = arc_offset[u + 1];
      for (std::uint32_t a = arc_offset[u]; a != arc_end; ++a) {
        const CsrArc arc = arcs[a];
        const NetScratch net = nets[arc.net];
        if (net.epoch == epoch) continue;  // already relaxed
        nets[arc.net].epoch = epoch;
        const double cand = top_dist + net.length;
        // An infinite candidate improves nothing: every tentative distance,
        // stale ones included, reads as at most +inf.
        if (cand == kInfDist) continue;
        const std::uint64_t key = std::bit_cast<std::uint64_t>(cand);
        const int b = std::bit_width(key ^ last) - 1;  // -1: a tie
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
          if (b < 0) {
            SiftTie(ties, head, tie_end, {key, x});
          } else {
            PushBucket(buckets, bucket_min, occupied, b, {key, x});
          }
        }
      }
    }
    // A truncated growth leaves entries behind: empty just those buckets.
    for (; occupied != 0; occupied &= occupied - 1) {
      const int b = std::countr_zero(occupied);
      buckets[b].clear();
      bucket_min[b] = kNoKey;
    }
    frontier_dirty_ = false;
    if (stats) {
      stats->pops += pops;
      stats->relaxations += relaxations;
      stats->settled += out.order.size();
    }
  }

 private:
  /// A frontier entry: the distance's bit pattern and the node.
  struct RadixEntry {
    std::uint64_t key;
    NodeId node;
  };

  /// bucket_min of an empty bucket: above every key of a nonnegative double.
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};
  static constexpr std::array<std::uint64_t, 63> MakeEmptyMins() {
    std::array<std::uint64_t, 63> mins{};
    mins.fill(kNoKey);
    return mins;
  }

  /// Files `entry` in bucket `b`, keeping its cached minimum and the
  /// occupancy word current.
  static void PushBucket(std::vector<RadixEntry>* buckets,
                         std::uint64_t* bucket_min, std::uint64_t& occupied,
                         int b, RadixEntry entry) {
    buckets[b].push_back(entry);
    bucket_min[b] = std::min(bucket_min[b], entry.key);
    occupied |= std::uint64_t{1} << b;
  }

  /// Inserts `entry` into the node-sorted ties[head, end) and grows `end`.
  static void SiftTie(RadixEntry* ties, std::size_t head, std::size_t& end,
                      RadixEntry entry) {
    std::size_t i = end++;
    for (; i > head && ties[i - 1].node > entry.node; --i) ties[i] = ties[i - 1];
    ties[i] = entry;
  }

  /// Puts the `count` ties a redistribution gathered into node order. They
  /// mostly come as a few short sorted runs (the pins of a net), where
  /// insertion is cheapest; a whole BFS layer of equal lengths is sorted.
  static void SortTies(RadixEntry* ties, std::size_t count) {
    if (count > 64) {
      std::sort(ties, ties + count, [](const RadixEntry& a,
                                       const RadixEntry& b) {
        return a.node < b.node;
      });
      return;
    }
    for (std::size_t end = 1; end < count;) SiftTie(ties, 0, end, ties[end]);
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
    // A growth ends with every bucket empty and keeps its capacity, so
    // steady-state growths allocate nothing. Only a visitor that threw
    // mid-growth leaves entries behind.
    if (frontier_dirty_) {
      for (std::vector<RadixEntry>& bucket : buckets_) bucket.clear();
      bucket_min_.fill(kNoKey);
    }
    frontier_dirty_ = true;
  }

  std::vector<NodeScratch> node_scratch_;
  std::vector<NetScratch> net_scratch_;
  /// Radix-heap storage of the frontier (see Grow).
  std::array<std::vector<RadixEntry>, 63> buckets_;
  std::array<std::uint64_t, 63> bucket_min_ = MakeEmptyMins();
  std::vector<RadixEntry> ties_;
  bool frontier_dirty_ = false;
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
