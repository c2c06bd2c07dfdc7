// Determinism of the parallel FLOW driver: RunHtpFlow must return a
// bit-identical partition, cost, per-iteration stats (wall_seconds aside),
// and obs counter totals for every thread count, on multiple circuits and
// both carvers.
#include <gtest/gtest.h>

#include <tuple>

#include "core/htp_flow.hpp"
#include "core/paper_examples.hpp"
#include "netlist/generators.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

// Two structurally different circuits: a clustered random netlist and a
// denser one with a taller hierarchy.
struct Circuit {
  const char* name;
  Hypergraph hg;
  HierarchySpec spec;
};

std::vector<Circuit> TestCircuits() {
  std::vector<Circuit> circuits;
  {
    Hypergraph hg = testutil::RandomConnectedHypergraph(40, 50, 3, 5);
    HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
    circuits.push_back({"rand40", std::move(hg), std::move(spec)});
  }
  {
    Hypergraph hg = testutil::RandomConnectedHypergraph(64, 90, 4, 123);
    HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 4, 0.15);
    circuits.push_back({"rand64", std::move(hg), std::move(spec)});
  }
  return circuits;
}

void ExpectIdenticalResults(const HtpFlowResult& reference,
                            const HtpFlowResult& other,
                            const Hypergraph& hg, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_DOUBLE_EQ(reference.cost, other.cost);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    ASSERT_EQ(reference.partition.leaf_of(v), other.partition.leaf_of(v))
        << "node " << v;
  ASSERT_EQ(reference.iterations.size(), other.iterations.size());
  for (std::size_t i = 0; i < reference.iterations.size(); ++i) {
    const HtpFlowIteration& a = reference.iterations[i];
    const HtpFlowIteration& b = other.iterations[i];
    EXPECT_DOUBLE_EQ(a.metric_cost, b.metric_cost) << "iteration " << i;
    EXPECT_DOUBLE_EQ(a.best_partition_cost, b.best_partition_cost)
        << "iteration " << i;
    EXPECT_EQ(a.injections, b.injections) << "iteration " << i;
    EXPECT_EQ(a.metric_converged, b.metric_converged) << "iteration " << i;
    // wall_seconds is intentionally not compared.
  }
}

class HtpFlowParallelTest : public ::testing::TestWithParam<CarverKind> {};

TEST_P(HtpFlowParallelTest, BitIdenticalAcrossThreadCounts) {
  for (const Circuit& circuit : TestCircuits()) {
    SCOPED_TRACE(circuit.name);
    HtpFlowParams params;
    params.iterations = 4;
    params.constructions_per_metric = 2;
    params.carver = GetParam();
    params.seed = 97;
    params.threads = 1;
    const HtpFlowResult serial = RunHtpFlow(circuit.hg, circuit.spec, params);
    RequireValidPartition(serial.partition, circuit.spec);
    ASSERT_EQ(serial.iterations.size(), params.iterations);

    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      params.threads = threads;
      const HtpFlowResult parallel =
          RunHtpFlow(circuit.hg, circuit.spec, params);
      RequireValidPartition(parallel.partition, circuit.spec);
      ExpectIdenticalResults(serial, parallel, circuit.hg,
                             threads == 2 ? "threads=2" : "threads=8");
    }
  }
}

TEST_P(HtpFlowParallelTest, HardwareConcurrencyMatchesSerial) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(40, 50, 3, 5);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  HtpFlowParams params;
  params.iterations = 3;
  params.carver = GetParam();
  params.seed = 7;
  params.threads = 1;
  const HtpFlowResult serial = RunHtpFlow(hg, spec, params);
  params.threads = 0;  // all hardware threads
  const HtpFlowResult parallel = RunHtpFlow(hg, spec, params);
  ExpectIdenticalResults(serial, parallel, hg, "threads=0");
}

INSTANTIATE_TEST_SUITE_P(Carvers, HtpFlowParallelTest,
                         ::testing::Values(CarverKind::kPrimPrefix,
                                           CarverKind::kMstSplit));

TEST(HtpFlowParallel, ParallelRunMatchesPreParallelismSerialBehaviour) {
  // The refactor pre-forks the per-iteration RNG streams; this pins the
  // serial path's output so any future reordering of the forks (which
  // would silently change every seed's result) fails loudly.
  Hypergraph hg = Figure2Graph();
  HtpFlowParams params;
  params.iterations = 4;
  params.metric_scope = MetricScope::kGlobalOnce;  // mirrors HtpFlowOptions.
  params.threads = 8;
  const HtpFlowResult result = RunHtpFlow(hg, Figure2Spec(), params);
  RequireValidPartition(result.partition, Figure2Spec());
  EXPECT_DOUBLE_EQ(result.cost, kFigure2OptimalCost);
}

TEST(HtpFlowParallel, ObsCounterTotalsAreBitIdenticalAcrossThreadCounts) {
  // The threads-invariance guarantee extends to the telemetry layer: every
  // counter total (Dijkstra pops, injections, carve attempts, FM moves, ...)
  // must match exactly between serial and parallel runs, because the work
  // itself is identical and integer sums/maxes are order-independent.
  // Timers measure real durations and are excluded, like wall_seconds.
  Hypergraph hg = MakeIscas85Like("c1355", 1997);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
  HtpFlowParams params;
  params.iterations = 4;
  params.seed = 1997;

  auto run = [&](std::size_t threads) {
    obs::ResetAll();
    params.threads = threads;
    RunHtpFlow(hg, spec, params);
    return obs::TakeSnapshot().counters;
  };

  const std::vector<obs::CounterValue> reference = run(1);
#if HTP_OBS_ENABLED
  ASSERT_FALSE(reference.empty());
#endif
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const std::vector<obs::CounterValue> counters = run(threads);
    ASSERT_EQ(reference.size(), counters.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].name, counters[i].name) << "counter " << i;
      EXPECT_EQ(reference[i].kind, counters[i].kind)
          << "counter " << reference[i].name;
      EXPECT_EQ(reference[i].value, counters[i].value)
          << "counter " << reference[i].name;
    }
  }
}

TEST(HtpFlowParallel, MetricThreadsCrossProductIsBitIdentical) {
  // The two parallelism knobs compose: `threads` fans out the Algorithm-1
  // iterations, `metric_threads` fans out the candidate scan inside each
  // Algorithm-2 round (degrading to serial inside pool workers via the
  // nested-parallelism guard). Every combination must reproduce the fully
  // serial run bit-for-bit — partition, costs, per-iteration stats, and
  // every obs counter total, including the flow.scan_* and dijkstra.*
  // counters whose totals are defined by committed (serial-order) work only.
  Hypergraph hg = MakeIscas85Like("c1355", 1997);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size());
  HtpFlowParams params;
  params.iterations = 4;
  params.seed = 1997;

  struct Run {
    HtpFlowResult result;
    std::vector<obs::CounterValue> counters;
  };
  auto run = [&](std::size_t threads, std::size_t metric_threads) {
    obs::ResetAll();
    params.threads = threads;
    params.metric_threads = metric_threads;
    Run r{RunHtpFlow(hg, spec, params), {}};
    r.counters = obs::TakeSnapshot().counters;
    return r;
  };

  const Run reference = run(1, 1);
  RequireValidPartition(reference.result.partition, spec);
  // The full {1,2,8} x {1,2,8} cross-product (minus the reference itself).
  for (const auto [threads, metric_threads] :
       {std::pair<std::size_t, std::size_t>{1, 2},
        {1, 8},
        {2, 1},
        {2, 2},
        {2, 8},
        {8, 1},
        {8, 2},
        {8, 8}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads
                                    << " metric_threads=" << metric_threads);
    const Run other = run(threads, metric_threads);
    ExpectIdenticalResults(reference.result, other.result, hg, "cross");
    ASSERT_EQ(reference.counters.size(), other.counters.size());
    for (std::size_t i = 0; i < reference.counters.size(); ++i) {
      EXPECT_EQ(reference.counters[i].name, other.counters[i].name);
      EXPECT_EQ(reference.counters[i].value, other.counters[i].value)
          << "counter " << reference.counters[i].name;
    }
  }
}

TEST(HtpFlowParallel, IterationWallTimesArePopulated) {
  Hypergraph hg = testutil::RandomConnectedHypergraph(40, 50, 3, 5);
  const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
  HtpFlowParams params;
  params.iterations = 3;
  params.threads = 2;
  const HtpFlowResult result = RunHtpFlow(hg, spec, params);
  double total = 0.0;
  for (const HtpFlowIteration& it : result.iterations) {
    EXPECT_GE(it.wall_seconds, 0.0);
    total += it.wall_seconds;
  }
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace htp
