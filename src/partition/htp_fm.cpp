#include "partition/htp_fm.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

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
        leaves_(tp.Leaves()), stamp_(hg_.num_nodes(), 0),
        locked_(hg_.num_nodes(), 0) {}

  struct Best {
    double gain;
    BlockId target;
  };
  std::optional<Best> BestMove(NodeId v) {
    const BlockId from = tp_.leaf_of(v);
    const bool interior = oracle_.InteriorDeltas(v, by_lca_);
    std::optional<Best> best;
    for (BlockId leaf : leaves_) {
      if (leaf == from || !oracle_.Feasible(v, leaf)) continue;
      const double gain = -(interior ? by_lca_[tp_.LcaLevel(from, leaf)]
                                     : oracle_.Delta(v, leaf));
      if (!best || gain > best->gain) best = Best{gain, leaf};
    }
    return best;
  }

  // Marks every node incident to a net spanning >= 2 leaves. One O(pins)
  // sweep per pass; a pure function of the current partition, so the
  // boundary-seeded pass is exactly as deterministic as the full one.
  void MarkBoundary(std::vector<char>& boundary) const {
    std::fill(boundary.begin(), boundary.end(), 0);
    for (NetId e = 0; e < hg_.num_nets(); ++e) {
      const auto pins = hg_.pins(e);
      const BlockId first = tp_.leaf_of(pins.front());
      bool spans = false;
      for (NodeId u : pins)
        if (tp_.leaf_of(u) != first) {
          spans = true;
          break;
        }
      if (!spans) continue;
      for (NodeId u : pins) boundary[u] = 1;
    }
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
    std::priority_queue<HeapEntry> heap;
    auto push_best = [&](NodeId v) {
      if (auto best = BestMove(v))
        heap.push({best->gain, v, best->target, stamp_[v]});
    };
    std::vector<char> boundary;
    if (boundary_only) {
      boundary.resize(hg_.num_nodes());
      MarkBoundary(boundary);
      c_boundary_seeds.Add(static_cast<std::uint64_t>(
          std::count(boundary.begin(), boundary.end(), char{1})));
    }
    for (NodeId v = 0; v < hg_.num_nodes(); ++v) {
      ++stamp_[v];
      if (!boundary_only || boundary[v]) push_best(v);
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
  std::vector<BlockId> leaves_;
  std::vector<double> by_lca_;  // BestMove's InteriorDeltas buffer
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
  stats.initial_cost = PartitionCost(tp, spec);
  Refiner refiner(tp, spec);
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
  // or weights, so a changed partition is re-costed.
  stats.final_cost =
      stats.moves_kept > 0 ? PartitionCost(tp, spec) : stats.initial_cost;
  return stats;
}

}  // namespace htp
