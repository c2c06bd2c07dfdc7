// Properties of the library's shortest-path engine, DijkstraWorkspace::Grow
// over a CsrView: distances, truncation, prefix sums, agreement with
// Bellman-Ford, parent-edge consistency, and Equation (6).
#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include "graph/csr_view.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

using testutil::CsrDijkstra;
using testutil::GrowOnView;

Hypergraph PathGraph(NodeId n) {
  HypergraphBuilder builder;
  for (NodeId v = 0; v < n; ++v) builder.add_node();
  for (NodeId v = 0; v + 1 < n; ++v) builder.add_net({v, v + 1});
  return builder.build();
}

TEST(Dijkstra, PathGraphDistances) {
  Hypergraph hg = PathGraph(5);
  const std::vector<double> len{1.0, 2.0, 3.0, 4.0};
  const ShortestPathTree tree = CsrDijkstra(CsrView(hg), 0, len);
  EXPECT_DOUBLE_EQ(tree.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(tree.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(tree.dist[2], 3.0);
  EXPECT_DOUBLE_EQ(tree.dist[3], 6.0);
  EXPECT_DOUBLE_EQ(tree.dist[4], 10.0);
  EXPECT_EQ(tree.order.front(), 0u);
  EXPECT_EQ(tree.order.size(), 5u);
}

TEST(Dijkstra, HyperedgeActsAsSwitchbox) {
  // One 4-pin net of length 2: all other pins are at distance 2 from any
  // pin, not 4.
  HypergraphBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_net({0u, 1u, 2u, 3u}, 1.0);
  Hypergraph hg = builder.build();
  const std::vector<double> len{2.0};
  const ShortestPathTree tree = CsrDijkstra(CsrView(hg), 1, len);
  for (NodeId v : {0u, 2u, 3u}) EXPECT_DOUBLE_EQ(tree.dist[v], 2.0);
}

TEST(Dijkstra, UnreachableNodesStayInfinite) {
  HypergraphBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_net({0u, 1u});
  Hypergraph hg = builder.build();
  const std::vector<double> len{1.0};
  const ShortestPathTree tree = CsrDijkstra(CsrView(hg), 0, len);
  EXPECT_TRUE(tree.settled(1));
  EXPECT_FALSE(tree.settled(2));
  EXPECT_FALSE(tree.settled(3));
  EXPECT_EQ(tree.order.size(), 2u);
}

TEST(Dijkstra, ZeroLengthsAllowed) {
  Hypergraph hg = PathGraph(4);
  const std::vector<double> len{0.0, 0.0, 0.0};
  const ShortestPathTree tree = CsrDijkstra(CsrView(hg), 2, len);
  for (NodeId v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ(tree.dist[v], 0.0);
}

TEST(Dijkstra, EarlyStopTruncatesTree) {
  Hypergraph hg = PathGraph(10);
  const std::vector<double> len(hg.num_nets(), 1.0);
  std::size_t count = 0;
  const ShortestPathTree tree =
      GrowOnView(CsrView(hg), 0, len, [&](const GrowState&) {
        return ++count == 4 ? GrowAction::kStop : GrowAction::kContinue;
      });
  EXPECT_EQ(tree.order.size(), 4u);
  EXPECT_FALSE(tree.settled(7));
}

TEST(Dijkstra, GrowStateSumsAreConsistent) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(30, 25, 4, 5);
  std::vector<double> len(hg.num_nets());
  Rng rng(77);
  for (double& d : len) d = rng.next_double() * 3.0;
  double expect_size = 0.0, expect_wd = 0.0;
  GrowOnView(CsrView(hg), 3, len, [&](const GrowState& s) {
    expect_size += hg.node_size(s.node);
    expect_wd += hg.node_size(s.node) * s.distance;
    EXPECT_DOUBLE_EQ(s.tree_size, expect_size);
    EXPECT_NEAR(s.weighted_dist, expect_wd, 1e-9);
    return GrowAction::kContinue;
  });
}

// Property sweep: Dijkstra agrees with Bellman-Ford relaxation on random
// hypergraphs with random lengths.
class DijkstraPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraPropertyTest, MatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(
      20 + seed % 30, 10 + seed % 40, 2 + seed % 4, seed);
  Rng rng(seed * 17 + 1);
  std::vector<double> len(hg.num_nets());
  for (double& d : len) d = rng.next_double() * 5.0;
  const NodeId source = static_cast<NodeId>(rng.next_below(hg.num_nodes()));
  const ShortestPathTree tree = CsrDijkstra(CsrView(hg), source, len);
  const std::vector<double> expect =
      testutil::BruteForceDistances(hg, source, len);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    EXPECT_NEAR(tree.dist[v], expect[v], 1e-9) << "node " << v;
}

TEST_P(DijkstraPropertyTest, ParentEdgesFormConsistentTree) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg =
      testutil::RandomConnectedHypergraph(25, 20, 3, seed ^ 0xabcdef);
  Rng rng(seed);
  std::vector<double> len(hg.num_nets());
  for (double& d : len) d = rng.next_double();
  const ShortestPathTree tree = CsrDijkstra(CsrView(hg), 0, len);
  for (NodeId v : tree.order) {
    if (v == 0) continue;
    const NodeId p = tree.parent[v].node;
    const NetId e = tree.parent[v].net;
    ASSERT_NE(p, kInvalidNode);
    ASSERT_NE(e, kInvalidNet);
    EXPECT_TRUE(tree.settled(p));
    EXPECT_LE(tree.dist[p], tree.dist[v] + 1e-12);
    EXPECT_NEAR(tree.dist[v], tree.dist[p] + len[e], 1e-9);
  }
}

TEST_P(DijkstraPropertyTest, SubtreeSizesMatchEquationSix) {
  // Equation (6): sum_u s(u) dist(v,u) == sum_e d(e) delta(S, e).
  const std::uint64_t seed = GetParam();
  Hypergraph hg =
      testutil::RandomConnectedHypergraph(22, 18, 4, seed ^ 0x5555);
  Rng rng(seed + 3);
  std::vector<double> len(hg.num_nets());
  for (double& d : len) d = rng.next_double() * 2.0;
  const ShortestPathTree tree = CsrDijkstra(CsrView(hg), 1, len);
  double lhs = 0.0;
  for (NodeId v : tree.order) lhs += hg.node_size(v) * tree.dist[v];
  double rhs = 0.0;
  for (const auto& [e, delta] : TreeSubtreeSizes(hg, tree))
    rhs += len[e] * delta;
  EXPECT_NEAR(lhs, rhs, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

void ExpectSameTree(const ShortestPathTree& a, const ShortestPathTree& b) {
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.parent, b.parent);
  ASSERT_EQ(a.dist.size(), b.dist.size());
  for (std::size_t v = 0; v < a.dist.size(); ++v)
    EXPECT_EQ(a.dist[v], b.dist[v]) << "node " << v;  // bitwise, incl. inf
}

TEST(DijkstraWorkspace, GrowMatchesLegacyEntryPoint) {
  // One workspace reused across sources, views, and graphs must reproduce
  // the reference walk's trees bit-for-bit (same tie-breaks, same order):
  // epoch stamps and the per-view size staging, not clears, isolate the
  // growths.
  DijkstraWorkspace workspace;
  ShortestPathTree reused;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    Hypergraph hg = testutil::RandomConnectedHypergraph(
        20 + seed * 7, 15 + seed * 5, 3, seed);
    const CsrView view(hg);
    Rng rng(seed * 31);
    std::vector<double> len(hg.num_nets());
    for (double& d : len) d = rng.next_double() * 4.0;
    for (NodeId source = 0; source < hg.num_nodes(); source += 5) {
      const ShortestPathTree expect =
          testutil::ReferenceDijkstra(hg, source, len);
      workspace.Grow(view, source, len,
                     [](const GrowState&) { return GrowAction::kContinue; },
                     reused);
      ExpectSameTree(expect, reused);
    }
  }
}

TEST(DijkstraWorkspace, TruncatedGrowMatchesLegacyAndReturnsStats) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(40, 35, 4, 9);
  Rng rng(100);
  std::vector<double> len(hg.num_nets());
  for (double& d : len) d = rng.next_double();
  auto stop_at = [](std::size_t k) {
    return [k](const GrowState& s) {
      return s.tree_nodes >= k ? GrowAction::kStop : GrowAction::kContinue;
    };
  };
  const ShortestPathTree expect =
      testutil::ReferenceGrow(hg, 2, len, stop_at(7));
  const CsrView view(hg);
  DijkstraWorkspace workspace;
  ShortestPathTree tree;
  DijkstraStats stats;
  workspace.Grow(view, 2, len, stop_at(7), tree, &stats);
  ExpectSameTree(expect, tree);
  EXPECT_EQ(stats.settled, 7u);
  EXPECT_GE(stats.pops, stats.settled);  // stale entries only add pops
  // Stats accumulate across calls (the scan engine sums per-batch).
  workspace.Grow(view, 2, len, stop_at(7), tree, &stats);
  EXPECT_EQ(stats.settled, 14u);
}

TEST(DijkstraWorkspace, TreeNetsIntoMatchesTreeNetsAndReusesCapacity) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(30, 28, 3, 21);
  Rng rng(7);
  std::vector<double> len(hg.num_nets());
  for (double& d : len) d = rng.next_double();
  const CsrView view(hg);
  std::vector<NetId> reused;
  for (NodeId source : {0u, 4u, 9u}) {
    const ShortestPathTree tree = CsrDijkstra(view, source, len);
    TreeNetsInto(tree, reused);
    EXPECT_EQ(reused, TreeNets(tree));
    EXPECT_TRUE(std::is_sorted(reused.begin(), reused.end()));
  }
}

}  // namespace
}  // namespace htp
