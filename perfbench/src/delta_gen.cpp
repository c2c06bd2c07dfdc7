// Seeded, size-neutral ECO deltas for the serve_eco workload.
//
// The session fixes the hierarchy's root capacity to the base netlist's
// total size, so a delta that adds size is rejected by design
// (docs/incremental.md). Every edit here keeps the total size: a rewire
// replaces a net by one of equal capacity and degree near its source gate,
// a gate swap replaces a node by one of equal size wired to the old node's
// neighbours, and a capacity change only touches a net.
// Capacities stay integral, so the Equation (1) costs the checker compares
// stay exact.
#include <algorithm>

#include "bench.hpp"

namespace pb {
namespace {

/// Live nodes within two nets of `v` (with repeats), `v` excluded.
std::vector<htp::NodeId> TwoHop(const htp::Hypergraph& hg, htp::NodeId v,
                                const std::vector<char>& removed) {
  std::vector<htp::NodeId> near;
  for (htp::NetId f : hg.nets(v))
    for (htp::NodeId u : hg.pins(f))
      for (htp::NetId g : hg.nets(u))
        for (htp::NodeId w : hg.pins(g))
          if (w != v && !removed[w]) near.push_back(w);
  return near;
}

}  // namespace

/// One ECO is two edits: every delta touches about as much of the design,
/// so runs differ by what the code does rather than by delta size.
constexpr std::size_t kEditsPerDelta = 2;

htp::NetlistDelta MakeSizeNeutralDelta(const htp::Hypergraph& base,
                                       htp::Rng& rng) {
  using htp::NetId;
  using htp::NodeId;
  htp::NetlistDelta delta;
  // removed: node is deleted; pinned: an added net or a re-capacitated net
  // references it, so it must survive the whole delta.
  std::vector<char> removed(base.num_nodes(), 0), pinned(base.num_nodes(), 0);
  std::vector<char> net_used(base.num_nets(), 0);
  NodeId next_added = base.num_nodes();

  // All edits of one delta land in one region, the two-hop neighbourhood
  // of a random centre gate, as an ECO amends one logic cone. A pick falls
  // back to the whole netlist only if the region runs out.
  std::vector<NodeId> region;
  while (region.empty())  // a gate on no net has no neighbourhood
    region = TwoHop(
        base, static_cast<NodeId>(rng.next_below(base.num_nodes())), removed);
  auto pick_net = [&](bool avoid_removed_pins) {
    for (int attempt = 0;; ++attempt) {
      NetId e;
      if (attempt < 64) {
        const auto nets = base.nets(region[rng.next_below(region.size())]);
        if (nets.empty()) continue;
        e = nets[rng.next_below(nets.size())];
      } else {
        e = static_cast<NetId>(rng.next_below(base.num_nets()));
      }
      if (net_used[e]) continue;
      if (avoid_removed_pins) {
        const auto pins = base.pins(e);
        if (std::any_of(pins.begin(), pins.end(),
                        [&](NodeId v) { return removed[v] != 0; }))
          continue;
      }
      net_used[e] = 1;
      return e;
    }
  };
  auto pick_live_node = [&] {
    for (;;) {
      const auto v = static_cast<NodeId>(rng.next_below(base.num_nodes()));
      if (!removed[v]) return v;
    }
  };

  for (std::size_t k = 0; k < kEditsPerDelta; ++k) {
    switch (rng.next_below(3)) {
      case 0: {  // rewire: the net's source gate reaches other nearby sinks
        const NetId e = pick_net(false);
        delta.removed_nets.push_back(e);
        htp::NetlistDelta::AddedNet net;
        net.capacity = base.net_capacity(e);
        const auto pins = base.pins(e);
        NodeId source = pins[0];
        if (removed[source]) source = pick_live_node();
        // Sinks come from the source's two-hop neighbourhood, as an ECO
        // rewires locally; a random node only when that runs short.
        std::vector<NodeId> near = TwoHop(base, source, removed);
        rng.shuffle(near);
        net.pins.push_back(source);
        for (std::size_t i = 0; net.pins.size() < pins.size(); ++i) {
          const NodeId v = i < near.size() ? near[i] : pick_live_node();
          if (std::find(net.pins.begin(), net.pins.end(), v) == net.pins.end())
            net.pins.push_back(v);
        }
        for (NodeId v : net.pins) pinned[v] = 1;
        delta.added_nets.push_back(std::move(net));
        break;
      }
      case 1: {  // gate swap: same size, same neighbours
        NodeId v;
        int attempt = 0;
        do {
          v = attempt++ < 64
                  ? region[rng.next_below(region.size())]
                  : static_cast<NodeId>(rng.next_below(base.num_nodes()));
        } while (removed[v] || pinned[v]);
        removed[v] = 1;
        delta.removed_nodes.push_back(v);
        delta.added_nodes.push_back({base.node_size(v)});
        htp::NetlistDelta::AddedNet net;
        net.pins.push_back(next_added++);
        for (NetId e : base.nets(v)) {
          for (NodeId u : base.pins(e)) {
            if (net.pins.size() >= 4) break;
            if (u == v || removed[u] ||
                std::find(net.pins.begin(), net.pins.end(), u) !=
                    net.pins.end())
              continue;
            net.pins.push_back(u);
          }
        }
        if (net.pins.size() < 2) net.pins.push_back(pick_live_node());
        for (std::size_t i = 1; i < net.pins.size(); ++i)
          pinned[net.pins[i]] = 1;
        delta.added_nets.push_back(std::move(net));
        break;
      }
      default: {  // set-net-capacity: a unit net doubles, others drop to 1
        const NetId e = pick_net(true);
        const double capacity = base.net_capacity(e) == 1.0 ? 2.0 : 1.0;
        delta.net_capacity_changes.emplace_back(e, capacity);
        for (NodeId v : base.pins(e)) pinned[v] = 1;
        break;
      }
    }
  }
  return delta;
}

}  // namespace pb
