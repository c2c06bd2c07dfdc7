// RunMultilevelFlow: end-to-end validity, the per-level stats chain, the
// {threads} x {metric_threads} bit-identity cross product, the flat path,
// the figure-2 golden bound, and anytime behaviour.
#include <gtest/gtest.h>

#include "core/cost.hpp"
#include "core/paper_examples.hpp"
#include "multilevel/multilevel_flow.hpp"
#include "netlist/generators.hpp"

namespace htp {
namespace {

Hypergraph TestCircuit(std::size_t gates, std::uint64_t seed) {
  RentCircuitParams params;
  params.num_gates = gates;
  params.num_primary_inputs = gates / 20;
  params.seed = seed;
  return RentCircuit(params);
}

MultilevelParams FastParams(NodeId threshold) {
  MultilevelParams params;
  params.flow.iterations = 1;
  params.flow.seed = 23;
  params.coarsen_threshold = threshold;
  return params;
}

TEST(MultilevelFlowTest, ProducesValidPartitionWithConsistentStats) {
  const Hypergraph hg = TestCircuit(3000, 5);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.5);
  const MultilevelResult result =
      RunMultilevelFlow(hg, spec, FastParams(250));
  RequireValidPartition(result.partition, spec);
  EXPECT_EQ(&result.partition.hypergraph(), &hg);
  EXPECT_NEAR(result.cost, PartitionCost(result.partition, spec), 1e-9);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kCompleted);
  ASSERT_GT(result.coarsen_levels, 0u);
  EXPECT_LE(result.coarsest_nodes, 250u);
  ASSERT_EQ(result.level_stats.size(), result.coarsen_levels);
  // The stats chain: the coarsest projection starts at the coarse cost,
  // each level's projection starts at the previous level's refined cost
  // (projection is cost-exact), and refinement never worsens.
  double prev = result.coarse_cost;
  for (const MultilevelLevelStats& s : result.level_stats) {
    EXPECT_NEAR(s.projected_cost, prev, 1e-6);
    EXPECT_LE(s.refined_cost, s.projected_cost + 1e-9);
    prev = s.refined_cost;
  }
  EXPECT_NEAR(result.cost, prev, 1e-9);
  EXPECT_EQ(result.level_stats.back().nodes, hg.num_nodes());
}

TEST(MultilevelFlowTest, BitIdenticalAcrossThreadCrossProduct) {
  // The determinism contract, extended to the multilevel path: every
  // {threads} x {metric_threads} combination must produce the identical
  // partition, cost, and per-level stats (tests/core/htp_flow_parallel_test
  // asserts the same for the flat path).
  const Hypergraph hg = TestCircuit(1500, 9);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.5);
  MultilevelParams base = FastParams(200);

  const MultilevelResult reference = RunMultilevelFlow(hg, spec, base);
  ASSERT_GT(reference.coarsen_levels, 0u);
  for (const std::size_t threads : {1, 2, 8}) {
    for (const std::size_t metric_threads : {1, 2, 8}) {
      MultilevelParams params = base;
      params.flow.threads = threads;
      params.flow.metric_threads = metric_threads;
      const MultilevelResult result = RunMultilevelFlow(hg, spec, params);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " metric_threads=" + std::to_string(metric_threads));
      EXPECT_DOUBLE_EQ(result.cost, reference.cost);
      EXPECT_EQ(result.coarsen_levels, reference.coarsen_levels);
      EXPECT_DOUBLE_EQ(result.coarse_cost, reference.coarse_cost);
      ASSERT_EQ(result.level_stats.size(), reference.level_stats.size());
      for (std::size_t i = 0; i < result.level_stats.size(); ++i) {
        EXPECT_DOUBLE_EQ(result.level_stats[i].projected_cost,
                         reference.level_stats[i].projected_cost);
        EXPECT_DOUBLE_EQ(result.level_stats[i].refined_cost,
                         reference.level_stats[i].refined_cost);
      }
      for (NodeId v = 0; v < hg.num_nodes(); ++v)
        ASSERT_EQ(result.partition.leaf_of(v), reference.partition.leaf_of(v))
            << "node " << v;
    }
  }
}

TEST(MultilevelFlowTest, FlatPathBelowThresholdMatchesRunHtpFlow) {
  const Hypergraph hg = TestCircuit(120, 3);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 2, 0.4);
  MultilevelParams params = FastParams(800);  // 120 <= 800: stays flat
  const MultilevelResult ml = RunMultilevelFlow(hg, spec, params);
  const HtpFlowResult flat = RunHtpFlow(hg, spec, params.flow);
  EXPECT_EQ(ml.coarsen_levels, 0u);
  EXPECT_TRUE(ml.level_stats.empty());
  EXPECT_DOUBLE_EQ(ml.cost, flat.cost);
  EXPECT_DOUBLE_EQ(ml.coarse_cost, flat.cost);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    ASSERT_EQ(ml.partition.leaf_of(v), flat.partition.leaf_of(v));
}

TEST(MultilevelFlowTest, GoldenFigure2StaysOptimal) {
  // The figure-2 golden bound holds on the multilevel entry point. The
  // instance is tiny, so the spec admits no supernodes (FeasibleClusterCap
  // bottoms out at the unit granularity) and the driver runs flat — which
  // is exactly the contract: --multilevel never makes small inputs worse.
  const Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  MultilevelParams params;
  params.flow.seed = 1;
  params.coarsen_threshold = 8;  // would coarsen if the spec allowed it
  const MultilevelResult result = RunMultilevelFlow(hg, spec, params);
  RequireValidPartition(result.partition, spec);
  EXPECT_EQ(result.coarsen_levels, 0u);
  EXPECT_NEAR(result.cost, kFigure2OptimalCost, 1e-9);
}

TEST(MultilevelFlowTest, ExpiredBudgetStillYieldsValidPartition) {
  const Hypergraph hg = TestCircuit(1200, 31);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.5);
  MultilevelParams params = FastParams(200);
  params.flow.budget.time_budget_seconds = 0.0;  // already expired
  const MultilevelResult result = RunMultilevelFlow(hg, spec, params);
  RequireValidPartition(result.partition, spec);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
  EXPECT_NEAR(result.cost, PartitionCost(result.partition, spec), 1e-9);
}

}  // namespace
}  // namespace htp
