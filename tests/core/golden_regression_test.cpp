// Golden regression pins: exact end-to-end costs of deterministic FLOW runs
// on reference instances. These are change detectors, not correctness
// oracles — any edit to the RNG forking, heap tie-breaks, CSR lowering,
// carve ordering, or metric convergence shows up here as an exact-value
// mismatch. If a change is *intended* to alter results, update the pinned
// values in the same commit and say why; bit-identity across thread counts
// is asserted separately (htp_flow_parallel_test.cpp).
#include <gtest/gtest.h>

#include "core/htp_flow.hpp"
#include "core/paper_examples.hpp"
#include "netlist/generators.hpp"

namespace htp {
namespace {

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

// The exact costs produced by bench/table2_constructive --quick (seed 1997,
// 2 FLOW iterations, full binary hierarchy of height 4) for the two small
// quick-suite circuits. Same generator seed, same parameters — a change in
// either cost means the quick-suite regression baseline (BENCH_htp.json)
// needs regenerating too.
struct GoldenCase {
  const char* circuit;
  double flow_cost;
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
  const HtpFlowResult result = RunHtpFlow(hg, spec, params);
  RequireValidPartition(result.partition, spec);
  EXPECT_DOUBLE_EQ(result.cost, golden.flow_cost);
}

INSTANTIATE_TEST_SUITE_P(Circuits, Table2QuickGoldenTest,
                         ::testing::Values(GoldenCase{"c1355", 80.0},
                                           GoldenCase{"c2670", 70.0}),
                         [](const auto& info) {
                           return std::string(info.param.circuit);
                         });

}  // namespace
}  // namespace htp
