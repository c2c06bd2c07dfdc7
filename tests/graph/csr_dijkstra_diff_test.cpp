// Differential tests for the CSR Dijkstra engine (graph/csr_view.hpp):
// the CsrView + 4-ary-heap growth must be bit-identical to the reference
// binary-heap walk over the Hypergraph (testutil::ReferenceGrow) —
// distances, parents, settling (pop) order, and work counts — for every
// layout, including tie-heavy length functions that exercise the
// (dist, node) heap tie-break.
#include <gtest/gtest.h>

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

INSTANTIATE_TEST_SUITE_P(Seeds, CsrDijkstraDiffTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace htp
