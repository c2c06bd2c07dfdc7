// Integration coverage for non-unit node sizes and net capacities, which
// the ISCAS85 experiments never exercise: the whole pipeline must stay
// valid and self-consistent on weighted instances.
#include <gtest/gtest.h>

#include "core/htp_flow.hpp"
#include "core/pin_report.hpp"
#include "lp/spreading_lp.hpp"
#include "partition/exhaustive.hpp"
#include "partition/gfm.hpp"
#include "partition/htp_fm.hpp"
#include "partition/rfm.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

// Random circuit with node sizes in {1..4} and capacities in {0.5, 1, 2}.
Hypergraph WeightedCircuit(NodeId n, std::size_t extra, std::uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder builder;
  for (NodeId v = 0; v < n; ++v)
    builder.add_node(1.0 + static_cast<double>(rng.next_below(4)));
  for (NodeId v = 1; v < n; ++v) {
    const double cap[] = {0.5, 1.0, 2.0};
    builder.add_net({static_cast<NodeId>(rng.next_below(v)), v},
                    cap[rng.next_below(3)]);
  }
  for (std::size_t i = 0; i < extra; ++i) {
    std::vector<NodeId> pins;
    const std::size_t deg = 2 + rng.next_below(3);
    for (std::size_t k = 0; k < deg; ++k)
      pins.push_back(static_cast<NodeId>(rng.next_below(n)));
    builder.add_net(pins, 0.5 + rng.next_double());
  }
  return builder.build();
}

class WeightedPipelineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightedPipelineTest, FlowStaysValidOnWeightedInstances) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = WeightedCircuit(40 + seed % 40, 30, seed);
  // Generous slack: weighted first-fit needs headroom.
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 2, 0.5);
  HtpFlowParams params;
  params.iterations = 2;
  params.seed = seed;
  const HtpFlowResult flow = RunHtpFlow(hg, spec, params);
  RequireValidPartition(flow.partition, spec);
  EXPECT_NEAR(flow.cost, PartitionCost(flow.partition, spec), 1e-9);
}

TEST_P(WeightedPipelineTest, BaselinesAndRefinerStayValid) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = WeightedCircuit(50, 40, seed ^ 0xc0ffee);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 2, 0.5);
  TreePartition rfm = RunRfm(hg, spec, {seed});
  RequireValidPartition(rfm, spec);
  TreePartition gfm = RunGfm(hg, spec, {seed});
  RequireValidPartition(gfm, spec);
  const double before = PartitionCost(rfm, spec);
  const HtpFmStats stats = RefineHtpFm(rfm, spec);
  RequireValidPartition(rfm, spec);
  EXPECT_LE(stats.final_cost, before + 1e-9);
  // Pin report identity holds with fractional capacities too.
  const PartitionReport report = ReportPartition(rfm, spec);
  const std::vector<double> by_level = PartitionCostByLevel(rfm, spec);
  for (Level l = 0; l < by_level.size(); ++l)
    EXPECT_NEAR(report.levels[l].total_pins * spec.weight(l), by_level[l],
                1e-9);
}

TEST_P(WeightedPipelineTest, MetricFeasibilityOnWeightedInstances) {
  const std::uint64_t seed = GetParam();
  Hypergraph hg = WeightedCircuit(30, 25, seed * 7 + 3);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 2, 0.4);
  FlowInjectionParams params;
  params.seed = seed;
  const FlowInjectionResult result = ComputeSpreadingMetric(hg, spec, params);
  ASSERT_TRUE(result.converged);
  EXPECT_FALSE(
      CheckSpreadingMetric(hg, spec, result.metric, 1e-6).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedPipelineTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(WeightedLp, BoundHoldsOnWeightedTinyInstance) {
  Hypergraph hg = WeightedCircuit(8, 5, 77);
  std::vector<LevelSpec> levels(2);
  levels[0] = {hg.total_size() / 2.0 + 2.0, 2, 1.5};
  levels[1] = {hg.total_size(), 2, 1.0};
  const HierarchySpec spec{std::move(levels)};
  const SpreadingLpResult lp = SolveSpreadingLp(hg, spec);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  const auto exact = ExhaustiveHtp(hg, spec);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(lp.lower_bound, exact->cost + 1e-6);
}

}  // namespace
}  // namespace htp
