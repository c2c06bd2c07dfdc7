// Golden regression pins: exact end-to-end costs of deterministic FLOW runs
// on reference instances. These are change detectors, not correctness
// oracles — any edit to the RNG forking, heap tie-breaks, CSR lowering,
// carve ordering, or metric convergence shows up here as an exact-value
// mismatch. If a change is *intended* to alter results, update the pinned
// values in the same commit and say why; bit-identity across thread counts
// is asserted separately (htp_flow_parallel_test.cpp).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/flow_injection.hpp"
#include "core/htp_flow.hpp"
#include "core/paper_examples.hpp"
#include "lp/spreading_lp.hpp"
#include "netlist/generators.hpp"
#include "obs/obs.hpp"
#include "partition/htp_fm.hpp"

namespace htp {
namespace {

#if HTP_OBS_ENABLED
std::uint64_t DijkstraPops() {
  for (const obs::CounterValue& c : obs::TakeSnapshot().counters)
    if (c.name == "dijkstra.pops") return c.value;
  return 0;
}
#endif

TEST(GoldenRegression, Figure2ExampleCostIsTwenty) {
  // The paper's worked example (Figure 2): FLOW must land on the known
  // optimal interconnection cost of 20 under default parameters.
  Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  const HtpFlowResult result = RunHtpFlow(hg, spec, {});
  RequireValidPartition(result.partition, spec);
  EXPECT_DOUBLE_EQ(result.cost, kFigure2OptimalCost);
  EXPECT_DOUBLE_EQ(result.cost, 20.0);
}

// The two library callers of the family-(5) oracle outside Algorithm 2: the
// Lemma-2 cutting-plane LP and the pair-path injection baseline. Their
// outputs depend on every shortest-path tree the oracle grows (the LP's cut
// rows are the trees' Equation-(6) coefficients, pair-path floods tree
// paths), so a change in distances, parents, or settling order shows up here
// bit for bit. The dijkstra.pops totals pin the oracle's work as well.
TEST(GoldenRegression, SpreadingLpOnFigure2IsPinned) {
  const Hypergraph hg = Figure2Graph();
  const HierarchySpec spec = Figure2Spec();
  SpreadingLpOptions options;
  options.max_rounds = 300;
#if HTP_OBS_ENABLED
  const std::uint64_t pops_before = DijkstraPops();
#endif
  const SpreadingLpResult lp = SolveSpreadingLp(hg, spec, options);
#if HTP_OBS_ENABLED
  EXPECT_EQ(DijkstraPops() - pops_before, 3188u);
#endif
  EXPECT_EQ(lp.status, LpStatus::kOptimal);
  EXPECT_TRUE(lp.converged);
  EXPECT_EQ(lp.lower_bound, 0x1.400000000001ep+4);
  EXPECT_EQ(lp.cuts, 288u);
  EXPECT_EQ(lp.rounds, 19u);
}

TEST(GoldenRegression, PairPathMetricOnC1355IsPinned) {
  const Hypergraph hg = MakeIscas85Like("c1355", 1997);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
  FlowInjectionParams params;
  params.seed = 1997;
  params.max_rounds = 600;
#if HTP_OBS_ENABLED
  const std::uint64_t pops_before = DijkstraPops();
#endif
  const FlowInjectionResult result =
      ComputePairPathSpreadingMetric(hg, spec, params);
#if HTP_OBS_ENABLED
  EXPECT_EQ(DijkstraPops() - pops_before, 199167u);
#endif
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.injections, 891u);
  EXPECT_EQ(result.rounds, 5u);
  EXPECT_EQ(result.metric_cost, 0x1.b5802281cdf2cp+6);
}

// The exact costs produced by bench/table2_constructive --quick (seed 1997,
// 2 FLOW iterations, full binary hierarchy of height 4) for the three
// quick-suite circuits, and the FLOW+ costs RefineHtpFm makes of them (Table
// 3's "+"). Same generator seed, same parameters — a change in a FLOW cost
// means the quick-suite regression baseline (BENCH_htp.json) needs
// regenerating too. c6288's FLOW+ is the cell most sensitive to where an FM
// pass stops: a 50-move stop window turns 2082 into 2139.
struct GoldenCase {
  const char* circuit;
  double flow_cost;
  double flow_plus_cost;
};

// Without this, gtest prints the case as a raw byte dump that includes the
// `circuit` pointer, so the listed test name changed with every load address.
void PrintTo(const GoldenCase& golden, std::ostream* os) {
  *os << golden.circuit << " (cost " << golden.flow_cost << ")";
}

class Table2QuickGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Table2QuickGoldenTest, QuickModeFlowCostIsPinned) {
  const GoldenCase golden = GetParam();
  Hypergraph hg = MakeIscas85Like(golden.circuit, 1997);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
  HtpFlowParams params;
  params.iterations = 2;  // --quick
  params.seed = 1997;
  HtpFlowResult result = RunHtpFlow(hg, spec, params);
  RequireValidPartition(result.partition, spec);
  EXPECT_DOUBLE_EQ(result.cost, golden.flow_cost);

  const HtpFmStats refined = RefineHtpFm(result.partition, spec);
  RequireValidPartition(result.partition, spec);
  EXPECT_DOUBLE_EQ(refined.final_cost, golden.flow_plus_cost);
}

INSTANTIATE_TEST_SUITE_P(Circuits, Table2QuickGoldenTest,
                         ::testing::Values(GoldenCase{"c1355", 80.0, 66.0},
                                           GoldenCase{"c2670", 70.0, 56.0},
                                           GoldenCase{"c6288", 3597.0,
                                                      2082.0}),
                         [](const auto& info) {
                           return std::string(info.param.circuit);
                         });

}  // namespace
}  // namespace htp
