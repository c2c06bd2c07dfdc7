// Option-matrix coverage of RunHtpFlow: metric scopes, carvers, and
// whole-pipeline determinism.
#include <gtest/gtest.h>

#include "core/htp_flow.hpp"
#include "core/paper_examples.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

TEST(HtpFlowOptions, GlobalOnceSolvesFigure2) {
  Hypergraph hg = Figure2Graph();
  HtpFlowParams params;
  params.iterations = 4;
  params.metric_scope = MetricScope::kGlobalOnce;
  const HtpFlowResult result = RunHtpFlow(hg, Figure2Spec(), params);
  RequireValidPartition(result.partition, Figure2Spec());
  EXPECT_DOUBLE_EQ(result.cost, kFigure2OptimalCost);
}

TEST(HtpFlowOptions, RejectsZeroedParameters) {
  Hypergraph hg = Figure2Graph();
  HtpFlowParams params;
  params.iterations = 0;
  EXPECT_THROW(RunHtpFlow(hg, Figure2Spec(), params), Error);
  params = {};
  params.constructions_per_metric = 0;
  EXPECT_THROW(RunHtpFlow(hg, Figure2Spec(), params), Error);
}

class HtpFlowOptionMatrixTest
    : public ::testing::TestWithParam<std::tuple<MetricScope, CarverKind>> {};

TEST_P(HtpFlowOptionMatrixTest, EveryCombinationIsValidAndDeterministic) {
  const auto [scope, carver] = GetParam();
  Hypergraph hg = testutil::RandomConnectedHypergraph(48, 60, 3, 77);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  HtpFlowParams params;
  params.iterations = 2;
  params.metric_scope = scope;
  params.carver = carver;
  params.seed = 31;
  const HtpFlowResult a = RunHtpFlow(hg, spec, params);
  const HtpFlowResult b = RunHtpFlow(hg, spec, params);
  RequireValidPartition(a.partition, spec);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    EXPECT_EQ(a.partition.leaf_of(v), b.partition.leaf_of(v));
  ASSERT_EQ(a.iterations.size(), 2u);
  EXPECT_EQ(a.iterations[0].injections, b.iterations[0].injections);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, HtpFlowOptionMatrixTest,
    ::testing::Combine(::testing::Values(MetricScope::kGlobalOnce,
                                         MetricScope::kPerSubproblem),
                       ::testing::Values(CarverKind::kPrimPrefix,
                                         CarverKind::kMstSplit)));

}  // namespace
}  // namespace htp
