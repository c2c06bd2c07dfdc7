#include "netlist/subhypergraph.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace htp {
namespace {

Hypergraph Sample() {
  HypergraphBuilder builder;
  for (int i = 0; i < 6; ++i) builder.add_node(1.0 + i);
  builder.add_net({0u, 1u, 2u}, 2.0, "abc");
  builder.add_net({2u, 3u}, 1.0, "cd");
  builder.add_net({3u, 4u, 5u}, 3.0, "def");
  builder.add_net({0u, 5u}, 1.5, "af");
  return builder.build();
}

TEST(InducedSubHypergraph, KeepsOnlyInteriorNets) {
  Hypergraph hg = Sample();
  const std::vector<NodeId> keep{0, 1, 2, 3};
  SubHypergraph sub = InducedSubHypergraph(hg, keep);

  EXPECT_EQ(sub.hg.num_nodes(), 4u);
  // Net "abc" survives whole; "cd" survives; "def" restricted to {3} is
  // dropped; "af" restricted to {0} is dropped.
  ASSERT_EQ(sub.hg.num_nets(), 2u);
  EXPECT_EQ(sub.net_to_parent.size(), 2u);
  for (NetId e = 0; e < sub.hg.num_nets(); ++e) {
    const NetId pe = sub.net_to_parent[e];
    EXPECT_DOUBLE_EQ(sub.hg.net_capacity(e), hg.net_capacity(pe));
  }
  // Node sizes and mapping round-trip.
  for (NodeId v = 0; v < sub.hg.num_nodes(); ++v) {
    EXPECT_EQ(sub.node_to_parent[v], keep[v]);
    EXPECT_DOUBLE_EQ(sub.hg.node_size(v), hg.node_size(keep[v]));
  }
}

TEST(InducedSubHypergraph, DegreeZeroNodesAreKept) {
  // The KEEP contract (subhypergraph.hpp): a selected node whose every net
  // falls below two interior pins stays in the subhypergraph at degree 0 —
  // its size still consumes block capacity. tests/incremental probes the
  // same contract from the ApplyDelta side.
  Hypergraph hg = Sample();
  // Node 4 pins only "def"; restricted to {3,4} that net keeps 2 pins, but
  // restricted to {1,4} every net drops below 2 interior pins for node 4.
  const std::vector<NodeId> keep{1, 4};
  SubHypergraph sub = InducedSubHypergraph(hg, keep);
  ASSERT_EQ(sub.hg.num_nodes(), 2u);
  EXPECT_EQ(sub.hg.num_nets(), 0u);
  EXPECT_EQ(sub.hg.nets(0).size(), 0u);
  EXPECT_EQ(sub.hg.nets(1).size(), 0u);
  EXPECT_DOUBLE_EQ(sub.hg.node_size(0), hg.node_size(1));
  EXPECT_DOUBLE_EQ(sub.hg.node_size(1), hg.node_size(4));
  EXPECT_DOUBLE_EQ(sub.hg.total_size(), hg.node_size(1) + hg.node_size(4));
}

TEST(InducedSubHypergraph, RejectsDuplicates) {
  Hypergraph hg = Sample();
  const std::vector<NodeId> twice{0, 0};
  EXPECT_THROW(InducedSubHypergraph(hg, twice), Error);
}

TEST(InducedSubHypergraph, EmptySelection) {
  Hypergraph hg = Sample();
  SubHypergraph sub = InducedSubHypergraph(hg, {});
  EXPECT_EQ(sub.hg.num_nodes(), 0u);
  EXPECT_EQ(sub.hg.num_nets(), 0u);
}

TEST(InducedSubHypergraph, PreservesPinMultisets) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(40, 60, 5, 7);
  std::vector<NodeId> keep;
  for (NodeId v = 0; v < hg.num_nodes(); v += 2) keep.push_back(v);
  SubHypergraph sub = InducedSubHypergraph(hg, keep);
  // Every surviving net's pins map exactly to the parent pins ∩ keep.
  std::vector<char> kept(hg.num_nodes(), 0);
  for (NodeId v : keep) kept[v] = 1;
  for (NetId e = 0; e < sub.hg.num_nets(); ++e) {
    const NetId pe = sub.net_to_parent[e];
    std::size_t expect = 0;
    for (NodeId pv : hg.pins(pe)) expect += kept[pv];
    EXPECT_EQ(sub.hg.net_degree(e), expect);
    EXPECT_GE(sub.hg.net_degree(e), 2u);
  }
}

TEST(ContractClusters, MergesAndMaps) {
  Hypergraph hg = Sample();
  // Clusters: {0,1,2} -> 0, {3,4,5} -> 1.
  const std::vector<BlockId> cluster{0, 0, 0, 1, 1, 1};
  const Hypergraph coarse = ContractClustersMerged(hg, cluster, 2);
  EXPECT_EQ(coarse.num_nodes(), 2u);
  EXPECT_DOUBLE_EQ(coarse.node_size(0), 1.0 + 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(coarse.node_size(1), 4.0 + 5.0 + 6.0);
  // Nets fully inside a cluster vanish ("abc", "def"); "cd" and "af" become
  // parallel 2-pin nets between the supernodes and merge into one net
  // carrying both capacities.
  ASSERT_EQ(coarse.num_nets(), 1u);
  EXPECT_EQ(coarse.net_degree(0), 2u);
  EXPECT_DOUBLE_EQ(coarse.net_capacity(0), 1.0 + 1.5);
}

TEST(ContractClusters, RejectsEmptyCluster) {
  Hypergraph hg = Sample();
  const std::vector<BlockId> cluster{0, 0, 0, 0, 0, 0};
  EXPECT_THROW(ContractClustersMerged(hg, cluster, 2), Error);  // cluster 1
}

TEST(ConnectedComponents, SplitsAndCounts) {
  HypergraphBuilder builder;
  for (int i = 0; i < 7; ++i) builder.add_node();
  builder.add_net({0u, 1u, 2u});
  builder.add_net({3u, 4u});
  builder.add_net({4u, 5u});
  Hypergraph hg = builder.build();  // node 6 isolated
  const Components comps = ConnectedComponents(hg);
  EXPECT_EQ(comps.count, 3u);
  EXPECT_EQ(comps.component_of[0], comps.component_of[2]);
  EXPECT_EQ(comps.component_of[3], comps.component_of[5]);
  EXPECT_NE(comps.component_of[0], comps.component_of[3]);
  EXPECT_NE(comps.component_of[6], comps.component_of[0]);
}

TEST(ConnectedComponents, RandomGraphIsConnected) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(64, 30, 4, 11);
  EXPECT_EQ(ConnectedComponents(hg).count, 1u);
}

}  // namespace
}  // namespace htp
