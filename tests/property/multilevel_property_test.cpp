// Property suite for the multilevel pipeline: 50 deterministic seeds sweep
// instance size, hierarchy shape, and threshold; every
// partition is checked against a from-scratch Equation-(1) recomputation
// (independent of PartitionCost) plus the library's validator.
#include <gtest/gtest.h>

#include <set>

#include "core/cost.hpp"
#include "multilevel/multilevel_flow.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

Hypergraph MultilevelPropertyCircuit(std::uint64_t seed) {
  const NodeId n = static_cast<NodeId>(150 + (seed * 13) % 250);
  return testutil::RandomConnectedHypergraph(n, /*extra_nets=*/n / 2,
                                             /*max_degree=*/5,
                                             seed * 1000003 + 17);
}

double RecomputeCost(const TreePartition& tp, const HierarchySpec& spec) {
  const Hypergraph& hg = tp.hypergraph();
  double total = 0.0;
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    for (Level l = 0; l < tp.root_level(); ++l) {
      std::set<BlockId> blocks;
      for (NodeId v : hg.pins(e)) blocks.insert(tp.block_at(v, l));
      if (blocks.size() > 1)
        total += spec.weight(l) * static_cast<double>(blocks.size()) *
                 hg.net_capacity(e);
    }
  }
  return total;
}

class MultilevelPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultilevelPropertyTest, MultilevelPartitionSatisfiesInvariants) {
  const std::uint64_t seed = GetParam();
  const Hypergraph hg = MultilevelPropertyCircuit(seed);
  const Level height = 2 + static_cast<Level>(seed % 2);
  const HierarchySpec spec =
      FullBinaryHierarchy(hg.total_size(), height, 0.4 + 0.2 * (seed % 2));

  MultilevelParams params;
  params.flow.iterations = 1;
  params.flow.seed = seed * 31 + 1;
  params.coarsen_threshold = static_cast<NodeId>(40 + seed % 40);
  const MultilevelResult result = RunMultilevelFlow(hg, spec, params);

  RequireValidPartition(result.partition, spec);
  EXPECT_TRUE(result.completed);
  EXPECT_NEAR(result.cost, RecomputeCost(result.partition, spec), 1e-9);
  EXPECT_NEAR(result.cost, PartitionCost(result.partition, spec), 1e-9);
  // Refinement at each level never worsens the projected cost, so the final
  // cost is bounded by the coarse-level cost (projection being cost-exact).
  EXPECT_LE(result.cost, result.coarse_cost + 1e-9);

  if (seed % 5 == 0) {
    // Determinism as a property: a rerun is bit-identical.
    const MultilevelResult again = RunMultilevelFlow(hg, spec, params);
    EXPECT_DOUBLE_EQ(result.cost, again.cost);
    EXPECT_EQ(result.coarsen_levels, again.coarsen_levels);
    for (NodeId v = 0; v < hg.num_nodes(); ++v)
      ASSERT_EQ(result.partition.leaf_of(v), again.partition.leaf_of(v))
          << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultilevelPropertyTest,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace htp
