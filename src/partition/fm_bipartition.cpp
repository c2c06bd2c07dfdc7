#include "partition/fm_bipartition.hpp"

#include <algorithm>
#include <queue>

#include "core/find_cut.hpp"

namespace htp {
namespace {

struct HeapEntry {
  double gain;
  NodeId node;
  std::uint32_t stamp;
  bool operator<(const HeapEntry& other) const {
    return gain < other.gain || (gain == other.gain && node < other.node);
  }
};

// FM pass machinery shared across passes.
class FmState {
 public:
  FmState(const Hypergraph& hg, Bipartition& part)
      : hg_(hg), part_(part), pins0_(hg.num_nets(), 0),
        stamp_(hg.num_nodes(), 0), locked_(hg.num_nodes(), 0) {
    for (NetId e = 0; e < hg.num_nets(); ++e)
      for (NodeId v : hg.pins(e))
        if (part.side[v] == 0) ++pins0_[e];
  }

  double Gain(NodeId v) const {
    double gain = 0.0;
    const bool from0 = part_.side[v] == 0;
    for (NetId e : hg_.nets(v)) {
      const std::size_t deg = hg_.net_degree(e);
      const std::size_t cnt_from = from0 ? pins0_[e] : deg - pins0_[e];
      if (cnt_from == 1) gain += hg_.net_capacity(e);       // uncuts the net
      if (deg - cnt_from == 0) gain -= hg_.net_capacity(e); // newly cuts it
    }
    return gain;
  }

  // Applies the move of v to the other side, updating cut/size/pin counts.
  void Apply(NodeId v) {
    const bool from0 = part_.side[v] == 0;
    part_.cut -= Gain(v);
    part_.size0 += from0 ? -hg_.node_size(v) : hg_.node_size(v);
    part_.side[v] = from0 ? 1 : 0;
    for (NetId e : hg_.nets(v)) pins0_[e] += from0 ? -1 : 1;
  }

  // One FM pass; returns the realized (best-prefix) gain.
  double Pass(double min_size0, double max_size0) {
    std::fill(locked_.begin(), locked_.end(), 0);
    std::priority_queue<HeapEntry> heap[2];
    for (NodeId v = 0; v < hg_.num_nodes(); ++v) {
      ++stamp_[v];
      heap[static_cast<unsigned char>(part_.side[v])].push(
          {Gain(v), v, stamp_[v]});
    }

    std::vector<NodeId> log;
    double cum = 0.0, best_cum = 0.0;
    std::size_t best_len = 0;

    auto valid_top = [&](int s) -> bool {
      auto& h = heap[s];
      while (!h.empty()) {
        const HeapEntry top = h.top();
        if (locked_[top.node] || top.stamp != stamp_[top.node] ||
            part_.side[top.node] != s) {
          h.pop();
          continue;
        }
        return true;
      }
      return false;
    };

    auto deviation = [&](double sz) {
      if (sz < min_size0) return min_size0 - sz;
      if (sz > max_size0) return sz - max_size0;
      return 0.0;
    };

    for (;;) {
      const bool has0 = valid_top(0);
      const bool has1 = valid_top(1);
      // A move may step outside the window by at most its own node's size
      // (so exact windows still admit swap sequences); once outside, only
      // strictly restoring moves are allowed. Best prefixes are recorded
      // only at window-respecting states, so the pass result stays feasible.
      auto feasible = [&](int s) {
        if (!(s == 0 ? has0 : has1)) return false;
        const NodeId v = heap[s].top().node;
        const double sz = hg_.node_size(v);
        const double ns = part_.size0 + (s == 0 ? -sz : sz);
        const double dev_now = deviation(part_.size0);
        const double dev_next = deviation(ns);
        if (dev_next <= 1e-9) return true;
        if (dev_now <= 1e-9) return dev_next <= sz + 1e-9;
        return dev_next < dev_now - 1e-12;
      };
      const bool f0 = feasible(0);
      const bool f1 = feasible(1);
      int pick = -1;
      if (f0 && f1)
        pick = heap[0].top().gain >= heap[1].top().gain ? 0 : 1;
      else if (f0)
        pick = 0;
      else if (f1)
        pick = 1;
      if (pick < 0) break;

      const HeapEntry entry = heap[pick].top();
      heap[pick].pop();
      const NodeId v = entry.node;
      const double gain = Gain(v);  // authoritative (entry may round-trip)
      Apply(v);
      locked_[v] = 1;
      log.push_back(v);
      cum += gain;
      if (cum > best_cum + 1e-12 && deviation(part_.size0) <= 1e-9) {
        best_cum = cum;
        best_len = log.size();
      }
      // Refresh neighbors whose gains changed.
      for (NetId e : hg_.nets(v)) {
        for (NodeId u : hg_.pins(e)) {
          if (locked_[u]) continue;
          ++stamp_[u];
          heap[static_cast<unsigned char>(part_.side[u])].push(
              {Gain(u), u, stamp_[u]});
        }
      }
    }

    // Roll back the tail after the best prefix.
    for (std::size_t i = log.size(); i > best_len; --i) Apply(log[i - 1]);
    return best_cum;
  }

 private:
  const Hypergraph& hg_;
  Bipartition& part_;
  std::vector<std::size_t> pins0_;
  std::vector<std::uint32_t> stamp_;
  std::vector<char> locked_;
};

}  // namespace

Bipartition EvaluateBipartition(const Hypergraph& hg, std::vector<char> side) {
  HTP_CHECK(side.size() == hg.num_nodes());
  Bipartition part;
  part.side = std::move(side);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    if (part.side[v] == 0) part.size0 += hg.node_size(v);
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    std::size_t zero = 0;
    for (NodeId v : hg.pins(e)) zero += part.side[v] == 0;
    if (zero > 0 && zero < hg.net_degree(e)) part.cut += hg.net_capacity(e);
  }
  return part;
}

Bipartition FmRefineBipartition(const Hypergraph& hg, Bipartition initial,
                                const FmBipartitionParams& params) {
  HTP_CHECK(initial.side.size() == hg.num_nodes());
  Bipartition part = EvaluateBipartition(hg, std::move(initial.side));
  HTP_CHECK_MSG(part.size0 >= params.min_size0 - 1e-9 &&
                    part.size0 <= params.max_size0 + 1e-9,
                "initial bipartition violates the size window");
  FmState state(hg, part);
  for (std::size_t pass = 0; pass < params.max_passes; ++pass) {
    if (state.Pass(params.min_size0, params.max_size0) <= 1e-12) break;
  }
  return part;
}

Bipartition FmBipartition(const Hypergraph& hg,
                          const FmBipartitionParams& params, Rng& rng) {
  HTP_CHECK(hg.num_nodes() >= 2);
  HTP_CHECK(params.min_size0 <= params.max_size0);
  HTP_CHECK(params.max_size0 > 0.0);

  // Initial side 0: breadth-first growth under unit lengths with min-cut
  // prefix selection (the same engine as find_cut with a flat metric).
  const std::vector<double> unit(hg.num_nets(), 1.0);
  const CarveResult seed =
      MetricFindCut(hg, unit, params.min_size0, params.max_size0, rng);

  std::vector<char> side(hg.num_nodes(), 1);
  double size0 = 0.0;
  for (NodeId v : seed.nodes) {
    side[v] = 0;
    size0 += hg.node_size(v);
  }
  if (size0 < params.min_size0 - 1e-9 || size0 > params.max_size0 + 1e-9) {
    // Degenerate fallback: greedy fill in random order up to the window.
    std::fill(side.begin(), side.end(), 1);
    std::vector<NodeId> order(hg.num_nodes());
    for (NodeId v = 0; v < hg.num_nodes(); ++v) order[v] = v;
    rng.shuffle(order);
    size0 = 0.0;
    for (NodeId v : order) {
      if (size0 >= params.min_size0) break;
      if (size0 + hg.node_size(v) > params.max_size0 + 1e-9) continue;
      side[v] = 0;
      size0 += hg.node_size(v);
    }
    HTP_CHECK_MSG(size0 >= params.min_size0 - 1e-9,
                  "cannot satisfy the bipartition size window");
  }
  Bipartition initial;
  initial.side = std::move(side);
  return FmRefineBipartition(hg, std::move(initial), params);
}

}  // namespace htp
