#include "core/flow_injection.hpp"

#include <gtest/gtest.h>

#include "core/paper_examples.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

TEST(FlowInjection, ConvergesOnFigure2) {
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  const FlowInjectionResult result =
      ComputeSpreadingMetric(hg, spec, FlowInjectionParams{});
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.injections, 0u);
  // The produced metric must be feasible for family (5).
  EXPECT_FALSE(CheckSpreadingMetric(hg, spec, result.metric, 1e-6)
                   .has_value());
  EXPECT_GT(result.metric_cost, 0.0);
}

TEST(FlowInjection, TrivialInstanceNeedsNoFlow) {
  HypergraphBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node();
  builder.add_net({0u, 1u});
  builder.add_net({2u, 3u});
  Hypergraph hg = builder.build();
  HierarchySpec spec({{4.0, 2, 1.0}, {4.0, 2, 1.0}});
  const FlowInjectionResult result =
      ComputeSpreadingMetric(hg, spec, FlowInjectionParams{});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.injections, 0u);
  EXPECT_EQ(result.rounds, 1u);
}

TEST(FlowInjection, CongestedBridgeGetsLongest) {
  // Two heavy clusters joined by one bridge: the bridge must end up with a
  // much larger d(e) than intra-cluster edges (it lies on every violating
  // tree crossing the cut).
  HypergraphBuilder builder;
  for (int i = 0; i < 8; ++i) builder.add_node();
  for (NodeId base : {0u, 4u})
    for (NodeId i = 0; i < 4; ++i)
      for (NodeId j = i + 1; j < 4; ++j) builder.add_net({base + i, base + j});
  builder.add_net({0u, 4u}, 1.0, "bridge");
  Hypergraph hg = builder.build();
  HierarchySpec spec({{4.0, 2, 1.0}, {8.0, 2, 1.0}});
  const FlowInjectionResult result =
      ComputeSpreadingMetric(hg, spec, FlowInjectionParams{});
  ASSERT_TRUE(result.converged);
  const NetId bridge = 12;
  ASSERT_EQ(hg.net_name(bridge), "bridge");
  double max_other = 0.0;
  for (NetId e = 0; e < hg.num_nets(); ++e)
    if (e != bridge) max_other = std::max(max_other, result.metric[e]);
  EXPECT_GT(result.metric[bridge], max_other);
}

TEST(FlowInjection, DeterministicForSeed) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(30, 25, 3, 4);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 2, 0.2);
  FlowInjectionParams params;
  params.seed = 123;
  const FlowInjectionResult a = ComputeSpreadingMetric(hg, spec, params);
  const FlowInjectionResult b = ComputeSpreadingMetric(hg, spec, params);
  ASSERT_EQ(a.metric.size(), b.metric.size());
  for (NetId e = 0; e < hg.num_nets(); ++e)
    EXPECT_DOUBLE_EQ(a.metric[e], b.metric[e]);
  EXPECT_EQ(a.injections, b.injections);
}

TEST(FlowInjection, ThreadsKnobIsBitIdentical) {
  // The scan/commit split's whole-algorithm contract: Algorithm 2 with a
  // parallel candidate scan returns the exact serial result — metric,
  // injection count, round count, convergence — for every thread count.
  // 80 nodes clears the scanner's small-graph serial fallback.
  Hypergraph hg = testutil::RandomConnectedHypergraph(80, 100, 4, 42);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  FlowInjectionParams params;
  params.seed = 1997;
  const FlowInjectionResult serial = ComputeSpreadingMetric(hg, spec, params);
  ASSERT_GT(serial.injections, 0u);  // the scan path actually commits hits
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    params.threads = threads;
    const FlowInjectionResult parallel =
        ComputeSpreadingMetric(hg, spec, params);
    EXPECT_EQ(serial.metric, parallel.metric);  // bitwise, every net
    EXPECT_EQ(serial.injections, parallel.injections);
    EXPECT_EQ(serial.rounds, parallel.rounds);
    EXPECT_EQ(serial.converged, parallel.converged);
    EXPECT_EQ(serial.metric_cost, parallel.metric_cost);
  }
}

TEST(FlowInjection, ParameterValidation) {
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  FlowInjectionParams params;
  params.alpha = 0.0;
  EXPECT_THROW(ComputeSpreadingMetric(hg, spec, params), Error);
  params = {};
  params.delta = -1.0;
  EXPECT_THROW(ComputeSpreadingMetric(hg, spec, params), Error);
  params = {};
  params.epsilon = 0.0;
  EXPECT_THROW(ComputeSpreadingMetric(hg, spec, params), Error);
}

// Property: across random circuits and hierarchies, Algorithm 2 converges
// and its metric is feasible.
class FlowInjectionPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowInjectionPropertyTest, ConvergesToFeasibleMetric) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(
      20 + seed % 30, 25 + seed % 30, 2 + seed % 4, seed);
  const HierarchySpec spec =
      FullBinaryHierarchy(hg.total_size(), 2 + seed % 2, 0.2);
  FlowInjectionParams params;
  params.seed = seed;
  const FlowInjectionResult result = ComputeSpreadingMetric(hg, spec, params);
  ASSERT_TRUE(result.converged) << "no convergence in " << result.rounds
                                << " rounds";
  EXPECT_FALSE(
      CheckSpreadingMetric(hg, spec, result.metric, 1e-6).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowInjectionPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 11));

// The [10]/[17]-style pair-path variant must satisfy the same feasibility
// contract under the same termination criterion.
class PairPathInjectionTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PairPathInjectionTest, ConvergesToFeasibleMetric) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(
      20 + seed % 25, 25 + seed % 25, 2 + seed % 3, seed ^ 0x1111);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 2, 0.2);
  FlowInjectionParams params;
  params.seed = seed;
  const FlowInjectionResult path =
      ComputePairPathSpreadingMetric(hg, spec, params);
  ASSERT_TRUE(path.converged);
  EXPECT_FALSE(CheckSpreadingMetric(hg, spec, path.metric, 1e-6).has_value());
  // Paths flood fewer nets per injection than trees, so they need at least
  // as many injections to reach the same feasibility (the paper's
  // motivation for tree flooding).
  const FlowInjectionResult tree = ComputeSpreadingMetric(hg, spec, params);
  EXPECT_GE(path.injections, tree.injections);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairPathInjectionTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace htp
