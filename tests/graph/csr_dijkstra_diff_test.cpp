// Differential tests for the CSR Dijkstra engine (graph/csr_view.hpp):
// the CsrView + radix-heap growth must be bit-identical to the reference
// binary-heap walk over the Hypergraph (testutil::ReferenceGrow) —
// distances, parents, settling (pop) order, and work counts — for every
// layout, including tie-heavy length functions that exercise the
// (dist, node) tie-break, and the radix heap's edge cases: pushes at the
// last popped key, keys spanning the whole double range, -0.0 and +inf
// lengths, truncated growths, and one workspace across many views. A
// negative or NaN length throws, and leaves the workspace usable.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/csr_view.hpp"
#include "graph/dijkstra.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

using testutil::CsrDijkstra;
using testutil::ReferenceDijkstra;
using testutil::ReferenceGrow;

void ExpectSameTree(const ShortestPathTree& a, const ShortestPathTree& b) {
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.parent, b.parent);
  ASSERT_EQ(a.dist.size(), b.dist.size());
  for (std::size_t v = 0; v < a.dist.size(); ++v)
    EXPECT_EQ(a.dist[v], b.dist[v]) << "node " << v;  // bitwise, incl. inf
}

std::vector<double> RandomLengths(const Hypergraph& hg, std::uint64_t seed,
                                  double scale) {
  Rng rng(seed);
  std::vector<double> len(hg.num_nets());
  for (double& d : len) d = rng.next_double() * scale;
  return len;
}

TEST(CsrView, ArcsMirrorIncidenceOrder) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(25, 20, 4, 11);
  for (CsrLayout layout : {CsrLayout::kDuplicated, CsrLayout::kShared}) {
    CsrView view(hg, layout);
    ASSERT_EQ(view.num_nodes(), hg.num_nodes());
    ASSERT_EQ(view.num_nets(), hg.num_nets());
    for (NodeId v = 0; v < hg.num_nodes(); ++v) {
      const auto nets = hg.nets(v);
      const auto arcs = view.arcs_of(v);
      ASSERT_EQ(arcs.size(), nets.size()) << "node " << v;
      for (std::size_t i = 0; i < nets.size(); ++i) {
        const CsrArc& arc = arcs[i];
        EXPECT_EQ(arc.net, nets[i]);
        // Pins preserve the net's pin order; the duplicated layout drops
        // the owning node, the shared layout keeps the full block.
        std::vector<NodeId> expect;
        for (NodeId x : hg.pins(nets[i]))
          if (layout == CsrLayout::kShared || x != v) expect.push_back(x);
        std::vector<NodeId> got(view.pins() + arc.pin_begin,
                                view.pins() + arc.pin_end);
        EXPECT_EQ(got, expect) << "node " << v << " net " << nets[i];
      }
    }
  }
}

TEST(CsrView, SharedLayoutStoresEachNetOnce) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(30, 25, 5, 3);
  CsrView view(hg, CsrLayout::kShared);
  EXPECT_FALSE(view.duplicated());
  EXPECT_EQ(view.pin_entries(), hg.num_pins());
}

TEST(CsrView, DuplicatedLayoutMatchesStarExpansionSize) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(30, 25, 5, 3);
  CsrView view(hg, CsrLayout::kDuplicated);
  EXPECT_TRUE(view.duplicated());
  std::size_t expect = 0;
  for (NetId e = 0; e < hg.num_nets(); ++e)
    expect += hg.net_degree(e) * (hg.net_degree(e) - 1);
  EXPECT_EQ(view.pin_entries(), expect);
}

TEST(CsrView, AutoFallsBackToSharedOnHubNets) {
  // One hub net touching all nodes blows the star expansion quadratic:
  // kAuto must refuse to duplicate it.
  HypergraphBuilder builder;
  constexpr NodeId n = 200;
  std::vector<NodeId> all;
  for (NodeId v = 0; v < n; ++v) {
    builder.add_node();
    all.push_back(v);
  }
  builder.add_net(all);
  for (NodeId v = 0; v + 1 < n; ++v) builder.add_net({v, v + 1});
  Hypergraph hg = builder.build();
  EXPECT_FALSE(CsrView(hg).duplicated());
  // Short-net graphs stay on the fast duplicated layout.
  EXPECT_TRUE(CsrView(testutil::RandomConnectedHypergraph(30, 10, 3, 1))
                  .duplicated());
}

class CsrDijkstraDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrDijkstraDiffTest, FullGrowthBitIdenticalEverySourceBothLayouts) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(
      20 + seed % 25, 12 + seed % 30, 2 + seed % 5, seed);
  const std::vector<double> len = RandomLengths(hg, seed * 13 + 5, 4.0);
  const CsrView dup(hg, CsrLayout::kDuplicated);
  const CsrView shared(hg, CsrLayout::kShared);
  for (NodeId source = 0; source < hg.num_nodes(); ++source) {
    const ShortestPathTree expect = ReferenceDijkstra(hg, source, len);
    ExpectSameTree(expect, CsrDijkstra(dup, source, len));
    ExpectSameTree(expect, CsrDijkstra(shared, source, len));
  }
}

TEST_P(CsrDijkstraDiffTest, TieHeavyLengthsPopInSameOrder) {
  // Constant and zero lengths force maximal ties: every settling decision
  // is made by the (dist, node) heap tie-break, which both heaps must
  // resolve identically.
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(
      25 + seed % 20, 20 + seed % 20, 3 + seed % 3, seed ^ 0xc0ffee);
  const CsrView view(hg);
  for (double c : {0.0, 1.0}) {
    const std::vector<double> len(hg.num_nets(), c);
    for (NodeId source = 0; source < hg.num_nodes(); source += 3)
      ExpectSameTree(ReferenceDijkstra(hg, source, len),
                     CsrDijkstra(view, source, len));
  }
}

TEST_P(CsrDijkstraDiffTest, TruncatedGrowthAndStatsMatch) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(
      30 + seed % 15, 25 + seed % 15, 4, seed + 17);
  const std::vector<double> len = RandomLengths(hg, seed, 2.0);
  const CsrView view(hg);
  DijkstraWorkspace csr_ws;
  ShortestPathTree csr_tree;
  for (std::size_t stop_k : {std::size_t{1}, std::size_t{5},
                             static_cast<std::size_t>(hg.num_nodes())}) {
    auto stop_at = [stop_k](const GrowState& s) {
      return s.tree_nodes >= stop_k ? GrowAction::kStop : GrowAction::kContinue;
    };
    DijkstraStats reference_stats, csr_stats;
    const ShortestPathTree reference_tree =
        ReferenceGrow(hg, 2, len, stop_at, &reference_stats);
    csr_ws.Grow(view, 2, len, stop_at, csr_tree, &csr_stats);
    ExpectSameTree(reference_tree, csr_tree);
    EXPECT_EQ(reference_stats.pops, csr_stats.pops);
    EXPECT_EQ(reference_stats.relaxations, csr_stats.relaxations);
    EXPECT_EQ(reference_stats.settled, csr_stats.settled);
  }
}

TEST_P(CsrDijkstraDiffTest, VisitorSeesIdenticalGrowStates) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg =
      testutil::RandomConnectedHypergraph(24, 20, 3, seed ^ 0x9e3779b9);
  const std::vector<double> len = RandomLengths(hg, seed * 7, 1.0);
  const CsrView view(hg);
  std::vector<GrowState> reference_states, csr_states;
  ReferenceGrow(hg, 0, len, [&](const GrowState& s) {
    reference_states.push_back(s);
    return GrowAction::kContinue;
  });
  testutil::GrowOnView(view, 0, len, [&](const GrowState& s) {
    csr_states.push_back(s);
    return GrowAction::kContinue;
  });
  ASSERT_EQ(reference_states.size(), csr_states.size());
  for (std::size_t i = 0; i < reference_states.size(); ++i) {  // bitwise
    EXPECT_EQ(reference_states[i].node, csr_states[i].node);
    EXPECT_EQ(reference_states[i].distance, csr_states[i].distance);
    EXPECT_EQ(reference_states[i].tree_size, csr_states[i].tree_size);
    EXPECT_EQ(reference_states[i].weighted_dist, csr_states[i].weighted_dist);
    EXPECT_EQ(reference_states[i].tree_nodes, csr_states[i].tree_nodes);
  }
}

// Grows from every `step`-th source over `hg` with lengths `len` on both
// layouts, full and truncated after 1, 2, 7 and 40 settled nodes, on one
// workspace per layout, checking trees and work counts against the
// reference.
void ExpectEveryGrowthMatches(const Hypergraph& hg,
                              const std::vector<double>& len,
                              NodeId step = 1) {
  const CsrView dup(hg, CsrLayout::kDuplicated);
  const CsrView shared(hg, CsrLayout::kShared);
  DijkstraWorkspace dup_ws, shared_ws;
  ShortestPathTree tree;
  for (NodeId source = 0; source < hg.num_nodes(); source += step) {
    for (std::size_t stop_k : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                               std::size_t{40}, std::size_t{0}}) {
      SCOPED_TRACE(testing::Message() << "source " << source << " stop at "
                                      << stop_k);
      auto stop_at = [stop_k](const GrowState& s) {
        return s.tree_nodes == stop_k ? GrowAction::kStop
                                      : GrowAction::kContinue;
      };
      DijkstraStats want;
      const ShortestPathTree expect =
          ReferenceGrow(hg, source, len, stop_at, &want);
      for (auto [view, ws] : {std::pair{&dup, &dup_ws},
                              std::pair{&shared, &shared_ws}}) {
        DijkstraStats got;
        ws->Grow(*view, source, len, stop_at, tree, &got);
        ExpectSameTree(expect, tree);
        EXPECT_EQ(want.pops, got.pops);
        EXPECT_EQ(want.relaxations, got.relaxations);
        EXPECT_EQ(want.settled, got.settled);
      }
    }
  }
}

TEST_P(CsrDijkstraDiffTest, AllEqualLengthsSettleLayersOfExactTies) {
  // Every distance is an exact multiple of the length, so each BFS layer
  // is one key: its ties pop in node order, dozens at a time on the larger
  // graph (beyond the tie sort's insertion cutoff).
  const std::uint64_t seed = GetParam();
  for (NodeId n : {NodeId{30}, NodeId{400}}) {
    const Hypergraph hg =
        testutil::RandomConnectedHypergraph(n, n, 5, seed * 31 + n);
    for (double c : {1.0, 0.1, 3e-7})
      ExpectEveryGrowthMatches(hg, std::vector<double>(hg.num_nets(), c),
                               n / 30);
  }
}

TEST_P(CsrDijkstraDiffTest, PushesAtTheLastPoppedDistance) {
  // Zero-length nets, and lengths below half an ulp of the distances they
  // are added to (d + len == d), push nodes at exactly the last popped key,
  // often with a smaller node id than the node just popped.
  const std::uint64_t seed = GetParam();
  const Hypergraph hg =
      testutil::RandomConnectedHypergraph(60, 70, 4, seed ^ 0x5eed);
  Rng rng(seed);
  std::vector<double> len(hg.num_nets());
  for (double& d : len) {
    const std::uint64_t kind = rng.next_below(3);
    d = kind == 0 ? 0.0 : kind == 1 ? 1e-17 : 1.0 + rng.next_below(3);
  }
  ExpectEveryGrowthMatches(hg, len);
}

TEST(CsrDijkstraDiff, PushesAtTheLastKeyPopInNodeOrder) {
  // From 5, nodes 3 and 9 wait at distance 1. Popping 3 pushes 1 at that
  // same distance through a zero-length net, ahead of the waiting 9;
  // popping 9 then pushes 2, a smaller id than the node just popped.
  HypergraphBuilder builder;
  for (NodeId v = 0; v < 10; ++v) builder.add_node();
  builder.add_net({5, 3});
  builder.add_net({5, 9});
  builder.add_net({3, 1});
  builder.add_net({9, 2});
  builder.add_net({2, 0});
  const Hypergraph hg = builder.build();
  const std::vector<double> len = {1.0, 1.0, 0.0, 0.0, 1.0};
  const ShortestPathTree tree = CsrDijkstra(CsrView(hg), 5, len);
  EXPECT_EQ(tree.order, (std::vector<NodeId>{5, 3, 1, 9, 2, 0}));
  ExpectSameTree(ReferenceDijkstra(hg, 5, len), tree);
  ExpectEveryGrowthMatches(hg, len);
}

TEST_P(CsrDijkstraDiffTest, LengthsAcrossTheWholeDoubleRange) {
  // Keys that differ in the exponent, in the top and in the lowest
  // mantissa bits, subnormal distances included.
  const std::uint64_t seed = GetParam();
  const Hypergraph hg =
      testutil::RandomConnectedHypergraph(50, 40, 4, seed + 99);
  Rng rng(seed * 3 + 1);
  std::vector<double> len(hg.num_nets());
  for (double& d : len) {
    switch (rng.next_below(4)) {
      case 0:
        d = std::pow(10.0, -300.0 + 600.0 * rng.next_double());
        break;
      case 1:  // subnormal
        d = std::numeric_limits<double>::denorm_min() *
            static_cast<double>(1 + rng.next_below(1000));
        break;
      case 2:
        d = std::nextafter(1.0, 2.0) * (1 + rng.next_below(2));
        break;
      default:
        d = 1e300 * rng.next_double();
    }
  }
  ExpectEveryGrowthMatches(hg, len);
}

TEST_P(CsrDijkstraDiffTest, NegativeZeroAndInfiniteLengths) {
  // -0.0 adds like +0.0; an infinite net is never crossed (its candidate
  // improves no tentative distance), so nodes behind it stay unsettled.
  const std::uint64_t seed = GetParam();
  const Hypergraph hg =
      testutil::RandomConnectedHypergraph(40, 30, 4, seed * 11);
  Rng rng(seed + 5);
  std::vector<double> len(hg.num_nets());
  for (double& d : len) {
    const std::uint64_t kind = rng.next_below(4);
    d = kind == 0   ? -0.0
        : kind == 1 ? std::numeric_limits<double>::infinity()
                    : rng.next_double();
  }
  ExpectEveryGrowthMatches(hg, len);
}

TEST(CsrDijkstraDiff, OneWorkspaceAcrossViewsOfDifferentSizes) {
  // Truncated growths leave frontier entries behind, and views come and go
  // with other sizes; every growth must still start from a clean frontier.
  std::vector<Hypergraph> graphs;
  for (NodeId n : {NodeId{12}, NodeId{300}, NodeId{5}, NodeId{80}})
    graphs.push_back(testutil::RandomConnectedHypergraph(n, n, 4, n));
  DijkstraWorkspace workspace;
  ShortestPathTree tree;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const Hypergraph& hg = graphs[g];
      const CsrView view(hg);
      const std::vector<double> len = RandomLengths(hg, pass * 7 + g, 2.0);
      for (NodeId source = 0; source < hg.num_nodes(); source += 3) {
        const std::size_t stop_k = (source + pass) % 4 == 0 ? 0 : 3;
        SCOPED_TRACE(testing::Message() << "pass " << pass << " graph " << g
                                        << " source " << source);
        auto stop_at = [stop_k](const GrowState& s) {
          return s.tree_nodes == stop_k ? GrowAction::kStop
                                        : GrowAction::kContinue;
        };
        DijkstraStats want, got;
        const ShortestPathTree expect =
            ReferenceGrow(hg, source, len, stop_at, &want);
        workspace.Grow(view, source, len, stop_at, tree, &got);
        ExpectSameTree(expect, tree);
        EXPECT_EQ(want.pops, got.pops);
        EXPECT_EQ(want.relaxations, got.relaxations);
      }
    }
  }
}

TEST(CsrDijkstraDiff, GrowthAfterAThrowingVisitorStartsClean) {
  const Hypergraph hg = testutil::RandomConnectedHypergraph(70, 60, 4, 8);
  const CsrView view(hg);
  const std::vector<double> len = RandomLengths(hg, 4, 1.0);
  DijkstraWorkspace workspace;
  ShortestPathTree tree;
  EXPECT_THROW(workspace.Grow(view, 0, len,
                              [](const GrowState& s) {
                                if (s.tree_nodes == 20)
                                  throw std::runtime_error("stop");
                                return GrowAction::kContinue;
                              },
                              tree),
               std::runtime_error);
  for (NodeId source : {NodeId{0}, NodeId{33}}) {
    workspace.Grow(view, source, len,
                   [](const GrowState&) { return GrowAction::kContinue; },
                   tree);
    ExpectSameTree(ReferenceDijkstra(hg, source, len), tree);
  }
}

TEST(CsrDijkstraDiff, NegativeOrNanLengthThrowsAndTheWorkspaceStaysClean) {
  // Grow's precondition: a negative or NaN length would push a frontier key
  // below the last pop, so the staging pass throws before the growth
  // starts. The same workspace's next growth must match the reference.
  const Hypergraph hg = testutil::RandomConnectedHypergraph(60, 50, 4, 21);
  const CsrView view(hg);
  const std::vector<double> good = RandomLengths(hg, 21, 1.0);
  DijkstraWorkspace workspace;
  ShortestPathTree tree;
  const auto all = [](const GrowState&) { return GrowAction::kContinue; };
  for (const double bad : {-1e-300, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(testing::Message() << "length " << bad);
    std::vector<double> len = good;
    len[hg.num_nets() / 2] = bad;
    EXPECT_THROW(workspace.Grow(view, 0, len, all, tree), Error);
    for (NodeId source : {NodeId{0}, NodeId{41}}) {
      DijkstraStats want, got;
      const ShortestPathTree expect =
          ReferenceGrow(hg, source, good, all, &want);
      workspace.Grow(view, source, good, all, tree, &got);
      ExpectSameTree(expect, tree);
      EXPECT_EQ(want.pops, got.pops);
      EXPECT_EQ(want.relaxations, got.relaxations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrDijkstraDiffTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace htp
