// Option-matrix coverage of RunHtpFlow: metric scopes, carvers, the metric
// provider hook, and whole-pipeline determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/flow_injection.hpp"
#include "core/htp_flow.hpp"
#include "core/paper_examples.hpp"
#include "core/partition_io.hpp"
#include "graph/csr_view.hpp"
#include "obs/obs.hpp"
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

std::uint64_t MetricsIn(const obs::Snapshot& snapshot) {
  for (const obs::CounterValue& c : snapshot.counters)
    if (c.name == "flow.metrics") return c.value;
  return 0;
}

// The provider hooks as an instrumenting caller uses them (perfbench's
// traced run): every computation lowers its own CsrView into
// FlowInjectionParams::csr and calls ComputeSpreadingMetric. The run must
// be the direct path's, byte for byte, with the provider called once per
// metric computation, per-subproblem locals included.
TEST(HtpFlowOptions, ProviderLoweringItsOwnCsrMatchesTheDirectPath) {
  const Hypergraph hg = testutil::RandomConnectedHypergraph(160, 200, 3, 5);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    HtpFlowParams params;
    params.iterations = 3;
    params.seed = 11;
    params.threads = threads;
    const HtpFlowResult direct = RunHtpFlow(hg, spec, params);

    std::atomic<std::uint64_t> calls{0};
    params.metric_compute = [&calls](const Hypergraph& g,
                                     const HierarchySpec& s,
                                     const FlowInjectionParams& p) {
      calls.fetch_add(1, std::memory_order_relaxed);
      FlowInjectionParams lowered = p;
      lowered.csr = std::make_shared<const CsrView>(g);
      return ComputeSpreadingMetric(g, s, lowered);
    };
    std::uint64_t metrics = 0;
    const HtpFlowResult hooked = [&] {
      obs::RunScope scope;
      HtpFlowResult result = RunHtpFlow(hg, spec, params);
      metrics = MetricsIn(obs::TakeSnapshot());
      return result;
    }();

    EXPECT_EQ(WritePartitionText(hooked.partition),
              WritePartitionText(direct.partition));
    EXPECT_EQ(hooked.cost, direct.cost);
    ASSERT_EQ(hooked.iterations.size(), direct.iterations.size());
    for (std::size_t i = 0; i < direct.iterations.size(); ++i) {
      const HtpFlowIteration& a = hooked.iterations[i];
      const HtpFlowIteration& b = direct.iterations[i];
      EXPECT_EQ(a.metric_cost, b.metric_cost);
      EXPECT_EQ(a.best_partition_cost, b.best_partition_cost);
      EXPECT_EQ(a.injections, b.injections);
      EXPECT_EQ(a.metric_converged, b.metric_converged);
    }
    EXPECT_GT(calls.load(), params.iterations);
    EXPECT_EQ(calls.load(), metrics);
  }
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
