#include "partition/htp_fm.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <utility>

#include "obs/obs.hpp"
#include "partition/move_oracle.hpp"

namespace htp {
namespace {

obs::Counter c_refines("fm.refines");
obs::Counter c_passes("fm.passes");
obs::Counter c_moves_applied("fm.moves_applied");
obs::Counter c_moves_kept("fm.moves_kept");
// Accepted (best-prefix) gain, in cost milli-units: gains are deterministic
// doubles, rounded once here so the counter stays an exact integer total.
obs::Counter c_gain_milli("fm.accepted_gain_milli");
// Nodes seeded into the heap by boundary-only passes; zero unless
// HtpFmParams::boundary_only is set, so full-pass totals are untouched.
obs::Counter c_boundary_seeds("fm.boundary_seeds");
obs::Timer t_refine("fm.refine");
obs::Timer t_pass("fm.pass");

struct HeapEntry {
  double gain;
  NodeId node;
  BlockId target;
  std::uint32_t stamp;
  bool operator<(const HeapEntry& other) const {
    return gain < other.gain || (gain == other.gain && node < other.node);
  }
};

class Refiner {
 public:
  Refiner(TreePartition& tp, const HierarchySpec& spec)
      : tp_(tp), hg_(tp.hypergraph()), oracle_(tp, spec),
        seed_table_(tp.num_blocks()), stamp_(hg_.num_nodes(), 0),
        locked_(hg_.num_nodes(), 0) {}

  // cost(P) of the current partition, from the oracle's span tables.
  double Cost() const { return oracle_.Cost(); }

  struct Best {
    double gain;
    BlockId target;
  };
  // The best feasible move of v: the first target in leaf order with the
  // largest gain. `seeding` is set while the pass has applied no move yet,
  // so the seeding table holds.
  std::optional<Best> BestMove(NodeId v, bool seeding) {
    const BlockId from = tp_.leaf_of(v);
    const bool interior = oracle_.InteriorDeltas(v, by_lca_);
    std::optional<Best> best;
    const auto consider = [&](BlockId leaf) {
      const double gain = -(interior ? by_lca_[oracle_.LcaLevel(from, leaf)]
                                     : oracle_.Delta(v, leaf));
      if (!best || gain > best->gain) best = Best{gain, leaf};
    };
    if (seeding) {
      const SeedTargets targets = SeedTargetsOf(v);
      const auto [begin, end] = interior ? targets.first : targets.all;
      for (std::size_t i = begin; i < end; ++i) consider(seed_targets_[i]);
    } else {
      for (BlockId leaf : oracle_.leaves())
        if (leaf != from && oracle_.Feasible(v, leaf)) consider(leaf);
    }
    return best;
  }

  // Before a pass applies its first move every block has its start size,
  // so Feasible(v, t) depends on v only through its leaf and its size. The
  // seeding loop therefore finds each (leaf, size)'s feasible targets once,
  // in leaf order: `all`, which BestMove visits for a node with a cut net,
  // exactly the leaves the unmemoized loop would not skip. An interior
  // node's gain depends only on the target's LCA level, so among targets
  // at one level only the first in leaf order can win; `first` holds those
  // targets, still in leaf order. Both are [begin, end) ranges of
  // seed_targets_.
  using Range = std::pair<std::size_t, std::size_t>;
  struct SeedTargets {
    double size;
    Range all;
    Range first;
  };
  SeedTargets SeedTargetsOf(NodeId v) {
    const BlockId from = tp_.leaf_of(v);
    const double size = hg_.node_size(v);
    std::vector<SeedTargets>& entries = seed_table_[from];  // by size
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), size,
        [](const SeedTargets& t, double s) { return t.size < s; });
    if (it != entries.end() && it->size == size) return *it;

    SeedTargets targets{size, {seed_targets_.size(), 0}, {}};
    for (BlockId leaf : oracle_.leaves())
      if (oracle_.Feasible(v, leaf)) seed_targets_.push_back(leaf);
    targets.all.second = targets.first.first = seed_targets_.size();
    std::vector<char> seen(tp_.root_level() + 1, 0);  // per LCA level
    for (std::size_t i = targets.all.first; i < targets.all.second; ++i) {
      const BlockId leaf = seed_targets_[i];
      char& level_seen = seen[oracle_.LcaLevel(from, leaf)];
      if (!level_seen) seed_targets_.push_back(leaf);
      level_seen = 1;
    }
    targets.first.second = seed_targets_.size();
    entries.insert(it, targets);
    return targets;
  }

  // Marks every node incident to a net spanning >= 2 leaves: one O(nets)
  // sweep of the span tables per pass, plus the pins of the cut nets. A
  // pure function of the current partition, so the boundary-seeded pass is
  // exactly as deterministic as the full one.
  void MarkBoundary(std::vector<char>& boundary) const {
    std::fill(boundary.begin(), boundary.end(), 0);
    for (NetId e = 0; e < hg_.num_nets(); ++e)
      if (oracle_.CutAtLeaves(e))
        for (NodeId u : hg_.pins(e)) boundary[u] = 1;
  }

  // A pass ends once this many consecutive applied moves have not beaten
  // its best prefix (skipped and infeasible pops do not count), then rolls
  // back to that prefix. 300 is the smallest window a seed sweep over the
  // benchmark job lists and Table 3 found to change no refined partition.
  // Random starts, which no workload refines, can need longer passes.
  static constexpr std::size_t kStopWindow = 300;

  // One FM pass; returns the realized (best-prefix) gain.
  double Pass(bool boundary_only, std::size_t& moves_kept) {
    std::fill(locked_.begin(), locked_.end(), 0);
    std::vector<HeapEntry> storage;
    storage.reserve(hg_.num_nodes());
    std::priority_queue<HeapEntry> heap({}, std::move(storage));
    auto push_best = [&](NodeId v, bool seeding = false) {
      if (auto best = BestMove(v, seeding))
        heap.push({best->gain, v, best->target, stamp_[v]});
    };
    std::vector<char> boundary;
    if (boundary_only) {
      boundary.resize(hg_.num_nodes());
      MarkBoundary(boundary);
      c_boundary_seeds.Add(static_cast<std::uint64_t>(
          std::count(boundary.begin(), boundary.end(), char{1})));
    }
    for (std::vector<SeedTargets>& entries : seed_table_) entries.clear();
    seed_targets_.clear();
    // One push per node, in node order, never one heapify: a re-pushed
    // stale entry can tie a valid one on (gain, node), and which pops first
    // depends on the heap's layout (docs/algorithms.md).
    for (NodeId v = 0; v < hg_.num_nodes(); ++v) {
      ++stamp_[v];
      if (!boundary_only || boundary[v]) push_best(v, true);
    }

    std::vector<std::pair<NodeId, BlockId>> log;  // (node, previous leaf)
    double cum = 0.0, best_cum = 0.0;
    std::size_t best_len = 0, since_best = 0;
    std::vector<std::uint8_t> requeues(hg_.num_nodes(), 0);

    while (!heap.empty()) {
      const HeapEntry entry = heap.top();
      heap.pop();
      const NodeId v = entry.node;
      if (locked_[v]) continue;
      if (entry.stamp != stamp_[v]) {
        // Stale: neighbors changed since this entry was pushed.
        push_best(v);
        continue;
      }
      if (!oracle_.Feasible(v, entry.target)) {
        // Sizes shifted under us; retry with a fresh best (bounded).
        if (++requeues[v] < 32) {
          ++stamp_[v];
          push_best(v);
        }
        continue;
      }
      const double gain = -oracle_.Delta(v, entry.target);  // authoritative
      const BlockId from = tp_.leaf_of(v);
      oracle_.Apply(v, entry.target);
      locked_[v] = 1;
      log.emplace_back(v, from);
      cum += gain;
      if (cum > best_cum + 1e-12) {
        best_cum = cum;
        best_len = log.size();
        since_best = 0;
      } else if (++since_best >= kStopWindow) {
        break;
      }
      // Refresh the neighborhood.
      for (NetId e : hg_.nets(v)) {
        for (NodeId u : hg_.pins(e)) {
          if (locked_[u]) continue;
          ++stamp_[u];
          push_best(u);
        }
      }
    }

    // Roll back the tail beyond the best prefix.
    for (std::size_t i = log.size(); i > best_len; --i)
      oracle_.Apply(log[i - 1].first, log[i - 1].second);
    moves_kept += best_len;
    c_moves_applied.Add(log.size());
    c_moves_kept.Add(best_len);
    c_gain_milli.Add(
        static_cast<std::uint64_t>(std::llround(best_cum * 1000.0)));
    return best_cum;
  }

 private:
  TreePartition& tp_;
  const Hypergraph& hg_;
  HtpMoveOracle oracle_;
  std::vector<double> by_lca_;  // BestMove's InteriorDeltas buffer
  // The seeding table: per leaf (by block id), its entries sorted by node
  // size.
  std::vector<std::vector<SeedTargets>> seed_table_;
  std::vector<BlockId> seed_targets_;
  std::vector<std::uint32_t> stamp_;
  std::vector<char> locked_;
};

}  // namespace

HtpFmStats RefineHtpFm(TreePartition& tp, const HierarchySpec& spec,
                       const HtpFmParams& params) {
  HTP_CHECK_MSG(tp.fully_assigned(), "refiner needs a complete partition");
  obs::PhaseScope obs_span(t_refine);
  c_refines.Add();
  HtpFmStats stats;
  Refiner refiner(tp, spec);
  stats.initial_cost = refiner.Cost();
  for (std::size_t pass = 0; pass < params.max_passes; ++pass) {
    // Safepoint: between passes. The best-prefix rollback has run, so the
    // partition is valid and no worse than the input here.
    if (params.cancel.Cancelled()) {
      stats.completed = false;
      break;
    }
    ++stats.passes;
    c_passes.Add();
    obs::PhaseScope pass_span(t_pass, "pass", pass);
    if (refiner.Pass(params.boundary_only, stats.moves_kept) <= 1e-12) break;
  }
  // Summed pass gains drift from Equation (1) under fractional capacities
  // or weights, so a changed partition is re-costed from the span tables.
  stats.final_cost =
      stats.moves_kept > 0 ? refiner.Cost() : stats.initial_cost;
  return stats;
}

}  // namespace htp
