#include "core/cost.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/paper_examples.hpp"
#include "netlist/rng.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

TEST(Cost, Figure2WorkedExample) {
  // The paper: edges cut only at level 0 cost w0 * 2 = 2; edges cut at both
  // levels cost w0 * 2 + w1 * 2 = 6; total of the shown partition = 20.
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  TreePartition tp = Figure2OptimalPartition(hg);

  std::size_t cost2 = 0, cost6 = 0, cost0 = 0;
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    const double c = NetCost(tp, spec, e);
    if (c == 2.0)
      ++cost2;
    else if (c == 6.0)
      ++cost6;
    else if (c == 0.0)
      ++cost0;
    else
      FAIL() << "unexpected edge cost " << c;
  }
  EXPECT_EQ(cost0, 24u);  // intra-cluster K4 edges
  EXPECT_EQ(cost2, 4u);   // the (a,b) edges
  EXPECT_EQ(cost6, 2u);   // the (c,d) edges
  EXPECT_DOUBLE_EQ(PartitionCost(tp, spec), kFigure2OptimalCost);
}

TEST(Cost, SpanCountsMultiwayNets) {
  // A 4-pin net spread over 3 leaves at level 0 spans 3 there.
  HypergraphBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_net({0u, 1u, 2u, 3u});
  Hypergraph hg = builder.build();
  HierarchySpec spec({{2.0, 4, 1.0}, {4.0, 4, 1.0}});
  TreePartition tp(hg, 1);
  const BlockId l0 = tp.AddChild(TreePartition::kRoot);
  const BlockId l1 = tp.AddChild(TreePartition::kRoot);
  const BlockId l2 = tp.AddChild(TreePartition::kRoot);
  tp.AssignNode(0, l0);
  tp.AssignNode(1, l0);
  tp.AssignNode(2, l1);
  tp.AssignNode(3, l2);
  EXPECT_EQ(NetSpan(tp, 0, 0), 3u);
  EXPECT_DOUBLE_EQ(NetCost(tp, spec, 0), 3.0);
}

TEST(Cost, SpanIsZeroWhenContained) {
  Hypergraph hg = Figure2Graph();
  TreePartition tp = Figure2OptimalPartition(hg);
  // Net 0 is an intra-cluster K4 edge (nodes 0-1).
  EXPECT_EQ(NetSpan(tp, 0, 0), 0u);
  EXPECT_EQ(NetSpan(tp, 0, 1), 0u);
}

TEST(Cost, WeightsScaleLevels) {
  Hypergraph hg = Figure2Graph();
  TreePartition tp = Figure2OptimalPartition(hg);
  // Doubling w0 adds 2 per level-0-cut edge: 6 edges cut at level 0.
  HierarchySpec heavier({{4.0, 2, 2.0}, {8.0, 2, 2.0}, {16.0, 2, 1.0}});
  EXPECT_DOUBLE_EQ(PartitionCost(tp, heavier),
                   /* 6 edges * 2*2 at level 0 + 2 edges * 2*2 at level 1 */
                   6 * 4.0 + 2 * 4.0);
}

TEST(Cost, CapacityScalesNetCost) {
  HypergraphBuilder builder;
  builder.add_node();
  builder.add_node();
  builder.add_net({0u, 1u}, 3.5);
  Hypergraph hg = builder.build();
  HierarchySpec spec({{1.0, 2, 1.0}, {2.0, 2, 1.0}});
  TreePartition tp(hg, 1);
  const BlockId a = tp.AddChild(TreePartition::kRoot);
  const BlockId b = tp.AddChild(TreePartition::kRoot);
  tp.AssignNode(0, a);
  tp.AssignNode(1, b);
  EXPECT_DOUBLE_EQ(PartitionCost(tp, spec), 2.0 * 3.5);
}

TEST(Cost, ByLevelBreakdownSumsToTotal) {
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  TreePartition tp = Figure2OptimalPartition(hg);
  const std::vector<double> by_level = PartitionCostByLevel(tp, spec);
  ASSERT_EQ(by_level.size(), 2u);
  EXPECT_DOUBLE_EQ(by_level[0] + by_level[1], PartitionCost(tp, spec));
  // Level 0: 6 cut edges * w0 * 2 = 12; level 1: 2 * w1 * 2 = 8.
  EXPECT_DOUBLE_EQ(by_level[0], 12.0);
  EXPECT_DOUBLE_EQ(by_level[1], 8.0);
}

TEST(Cost, CutNetsByLevel) {
  Hypergraph hg = Figure2Graph();
  TreePartition tp = Figure2OptimalPartition(hg);
  const std::vector<std::size_t> cuts = CutNetsByLevel(tp);
  ASSERT_EQ(cuts.size(), 2u);
  EXPECT_EQ(cuts[0], 6u);
  EXPECT_EQ(cuts[1], 2u);
}

TEST(Cost, SingleLeafTreeCostsNothing) {
  HypergraphBuilder builder;
  builder.add_node();
  builder.add_node();
  builder.add_net({0u, 1u});
  Hypergraph hg = builder.build();
  TreePartition tp(hg, 0);  // root is the only (leaf) block
  tp.AssignNode(0, TreePartition::kRoot);
  tp.AssignNode(1, TreePartition::kRoot);
  HierarchySpec spec({{2.0, 2, 1.0}, {2.0, 2, 1.0}});
  EXPECT_DOUBLE_EQ(PartitionCost(tp, spec), 0.0);
}

// A random tree over `hg`: each block above level 0 gets 1 to 3 children,
// so single-child chains are common, and every node goes to a random leaf.
// Capacities are ignored; the cost does not read them.
TreePartition RandomTree(const Hypergraph& hg, Level root_level, Rng& rng) {
  TreePartition tp(hg, root_level);
  std::vector<BlockId> frontier{TreePartition::kRoot};
  for (Level l = root_level; l > 0; --l) {
    std::vector<BlockId> next;
    for (BlockId q : frontier)
      for (std::size_t c = 1 + rng.next_below(3); c > 0; --c)
        next.push_back(tp.AddChild(q));
    frontier = std::move(next);
  }
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    tp.AssignNode(v, frontier[rng.next_below(frontier.size())]);
  return tp;
}

// span(e, l) from a set of block_at values, independent of cost.cpp.
std::size_t BruteSpan(const TreePartition& tp, NetId e, Level l) {
  std::set<BlockId> blocks;
  for (NodeId v : tp.hypergraph().pins(e)) blocks.insert(tp.block_at(v, l));
  return blocks.size() >= 2 ? blocks.size() : 0;
}

// Equation (1) summed net by net equals PartitionCost exactly, and every
// sibling statistic matches a brute-force span, on random trees with
// fractional capacities and weights and one zero-weight level.
TEST(Cost, PartitionCostIsTheExactSumOfNetCosts) {
  static constexpr double kWeights[] = {1.0, 1.7, 0.3, 2.2, 0.9};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Hypergraph hg = testutil::WithFractionalCapacities(
        testutil::RandomConnectedHypergraph(20 + seed, 40, 2 + seed % 6, seed),
        seed);
    const Level height = 1 + static_cast<Level>(seed % 5);
    std::vector<LevelSpec> levels;
    for (Level l = 0; l <= height; ++l)
      levels.push_back({hg.total_size(), 3,
                        l == seed % (height + 1) ? 0.0 : kWeights[l % 5]});
    const HierarchySpec spec(levels);
    Rng rng(seed);
    const TreePartition tp = RandomTree(hg, height, rng);

    double sum = 0.0;
    std::vector<double> by_level(height, 0.0);
    std::vector<std::size_t> cuts(height, 0);
    for (NetId e = 0; e < hg.num_nets(); ++e) {
      sum += NetCost(tp, spec, e);
      double cost = 0.0;
      for (Level l = 0; l < height; ++l) {
        const std::size_t span = BruteSpan(tp, e, l);
        ASSERT_EQ(NetSpan(tp, e, l), span) << "net " << e << " level " << l;
        if (span == 0) continue;
        cost += spec.weight(l) * static_cast<double>(span) * hg.net_capacity(e);
        by_level[l] +=
            spec.weight(l) * static_cast<double>(span) * hg.net_capacity(e);
        ++cuts[l];
      }
      EXPECT_EQ(NetCost(tp, spec, e), cost) << "net " << e;
    }
    EXPECT_EQ(PartitionCost(tp, spec), sum) << "seed " << seed;
    EXPECT_EQ(PartitionCostByLevel(tp, spec), by_level) << "seed " << seed;
    EXPECT_EQ(CutNetsByLevel(tp), cuts) << "seed " << seed;
    for (Level l = 0; l <= height; ++l) {
      double km1 = 0.0;
      for (NetId e = 0; e < hg.num_nets(); ++e)
        if (const std::size_t span = BruteSpan(tp, e, l); span >= 2)
          km1 += static_cast<double>(span - 1) * hg.net_capacity(e);
      EXPECT_EQ(ConnectivityCost(tp, l), km1) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace htp
