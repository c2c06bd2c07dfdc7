#include "netlist/hypergraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace htp {
namespace {

TEST(HypergraphBuilder, BuildsSimpleNetlist) {
  HypergraphBuilder builder;
  const NodeId a = builder.add_node(1.0, "a");
  const NodeId b = builder.add_node(2.0, "b");
  const NodeId c = builder.add_node(3.0, "c");
  builder.add_net({a, b}, 1.0, "n0");
  builder.add_net({a, b, c}, 2.5, "n1");
  Hypergraph hg = builder.build();

  EXPECT_EQ(hg.num_nodes(), 3u);
  EXPECT_EQ(hg.num_nets(), 2u);
  EXPECT_EQ(hg.num_pins(), 5u);
  EXPECT_DOUBLE_EQ(hg.total_size(), 6.0);
  EXPECT_FALSE(hg.unit_sizes());
  EXPECT_DOUBLE_EQ(hg.node_size(b), 2.0);
  EXPECT_DOUBLE_EQ(hg.net_capacity(1), 2.5);
  EXPECT_EQ(hg.node_name(c), "c");
  EXPECT_EQ(hg.net_name(1), "n1");
}

TEST(HypergraphBuilder, NamesSomeEntriesAndPadsTheRest) {
  // Names are stored from the first named entry on; the rest read "".
  HypergraphBuilder builder;
  const NodeId a = builder.add_node();
  const NodeId b = builder.add_node(1.0, "b");
  const NodeId c = builder.add_node();
  builder.add_net({a, b});
  builder.add_net({c}, 1.0, "dropped");
  builder.add_net({b, c}, 1.0, "n1");
  builder.add_net({a, c});
  const Hypergraph hg = builder.build();
  ASSERT_EQ(hg.num_nets(), 3u);
  EXPECT_EQ(hg.node_name(a), "");
  EXPECT_EQ(hg.node_name(b), "b");
  EXPECT_EQ(hg.node_name(c), "");
  EXPECT_EQ(hg.net_name(0), "");
  EXPECT_EQ(hg.net_name(1), "n1");
  EXPECT_EQ(hg.net_name(2), "");

  HypergraphBuilder unnamed;
  unnamed.add_node();
  unnamed.add_node();
  unnamed.add_net({0u, 1u});
  const Hypergraph plain = unnamed.build();
  EXPECT_EQ(plain.node_name(1), "");
  EXPECT_EQ(plain.net_name(0), "");
}

TEST(HypergraphBuilder, MergesDuplicatePins) {
  HypergraphBuilder builder;
  const NodeId a = builder.add_node();
  const NodeId b = builder.add_node();
  builder.add_net({a, b, a, b, a});
  Hypergraph hg = builder.build();
  ASSERT_EQ(hg.num_nets(), 1u);
  EXPECT_EQ(hg.net_degree(0), 2u);
}

TEST(HypergraphBuilder, DropsDegenerateNets) {
  HypergraphBuilder builder;
  const NodeId a = builder.add_node();
  const NodeId b = builder.add_node();
  builder.add_net({a});
  builder.add_net({a, a, a});
  builder.add_net({a, b});
  EXPECT_EQ(builder.dropped_nets(), 2u);
  Hypergraph hg = builder.build();
  EXPECT_EQ(hg.num_nets(), 1u);
}

TEST(HypergraphBuilder, RejectsBadInputs) {
  HypergraphBuilder builder;
  EXPECT_THROW(builder.add_node(0.0), Error);
  EXPECT_THROW(builder.add_node(-1.0), Error);
  const NodeId a = builder.add_node();
  const NodeId b = builder.add_node();
  EXPECT_THROW(builder.add_net({a, b}, 0.0), Error);
  EXPECT_THROW(builder.add_net({a, 99u}), Error);
}

TEST(Hypergraph, CrossIndexConsistency) {
  HypergraphBuilder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  builder.add_net({0u, 1u, 2u});
  builder.add_net({2u, 3u});
  builder.add_net({3u, 4u, 5u, 0u});
  Hypergraph hg = builder.build();

  // Node->net and net->pin views must agree.
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    for (NetId e : hg.nets(v)) {
      const auto pins = hg.pins(e);
      EXPECT_NE(std::find(pins.begin(), pins.end(), v), pins.end());
    }
  }
  std::size_t total = 0;
  for (NodeId v = 0; v < hg.num_nodes(); ++v) total += hg.node_degree(v);
  EXPECT_EQ(total, hg.num_pins());
}

TEST(Hypergraph, BoundsChecked) {
  HypergraphBuilder builder;
  builder.add_node();
  builder.add_node();
  builder.add_net({0u, 1u});
  Hypergraph hg = builder.build();
  EXPECT_THROW(hg.pins(1), Error);
  EXPECT_THROW(hg.nets(2), Error);
  EXPECT_THROW(hg.node_size(5), Error);
  EXPECT_THROW(hg.net_capacity(7), Error);
}

TEST(Hypergraph, ComputeStats) {
  HypergraphBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_net({0u, 1u});
  builder.add_net({0u, 1u, 2u, 3u});
  Hypergraph hg = builder.build();
  const HypergraphStats st = ComputeStats(hg);
  EXPECT_EQ(st.nodes, 4u);
  EXPECT_EQ(st.nets, 2u);
  EXPECT_EQ(st.pins, 6u);
  EXPECT_EQ(st.max_net_degree, 4u);
  EXPECT_DOUBLE_EQ(st.avg_net_degree, 3.0);
}

TEST(Hypergraph, EmptyIsWellFormed) {
  HypergraphBuilder builder;
  Hypergraph hg = builder.build();
  EXPECT_EQ(hg.num_nodes(), 0u);
  EXPECT_EQ(hg.num_nets(), 0u);
  EXPECT_EQ(hg.num_pins(), 0u);
  EXPECT_TRUE(hg.unit_sizes());
}

TEST(Hypergraph, BuilderResetAfterBuild) {
  HypergraphBuilder builder;
  builder.add_node();
  builder.add_node();
  builder.add_net({0u, 1u});
  (void)builder.build();
  EXPECT_EQ(builder.num_nodes(), 0u);
  Hypergraph second = builder.build();
  EXPECT_EQ(second.num_nodes(), 0u);
  EXPECT_EQ(second.num_nets(), 0u);
}

}  // namespace
}  // namespace htp
