// The warm-vs-cold equivalence battery (docs/incremental.md):
//
//   1. 200+ seeded (netlist, delta) pairs: the warm-started ECO run always
//      returns a valid partition whose cost is within 5% of the cold run
//      on the same edited netlist (cost <= cold x 1.05).
//   2. Empty-delta warm starts are bit-identical — partition bytes, cost,
//      and the deterministic report section — to the converged run that
//      produced the state, across the full threads x metric_threads matrix
//      (driven through serve::RunSession, the same pipeline htp_cli and
//      htp_serve share).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/cost.hpp"
#include "core/hierarchy.hpp"
#include "core/partition_io.hpp"
#include "incremental/eco_repartition.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "server/session.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

// A small random edit: one directive per pair, cycling through every delta
// kind so the battery covers removals, recaps, resizes, and additions.
NetlistDelta RandomDelta(const Hypergraph& base, std::uint64_t seed) {
  Rng rng(seed);
  NetlistDelta delta;
  switch (rng.next_below(5)) {
    case 0:
      delta.removed_nets.push_back(
          static_cast<NetId>(rng.next_below(base.num_nets())));
      break;
    case 1:
      delta.net_capacity_changes.emplace_back(
          static_cast<NetId>(rng.next_below(base.num_nets())),
          0.5 + static_cast<double>(rng.next_below(3)));
      break;
    case 2:
      delta.removed_nodes.push_back(
          static_cast<NodeId>(rng.next_below(base.num_nodes())));
      break;
    case 3:
      delta.node_size_changes.emplace_back(
          static_cast<NodeId>(rng.next_below(base.num_nodes())),
          0.5 + static_cast<double>(rng.next_below(3)));
      break;
    default: {
      delta.added_nodes.push_back({1.0});
      const NodeId added = base.num_nodes();
      const NodeId anchor =
          static_cast<NodeId>(rng.next_below(base.num_nodes()));
      delta.added_nets.push_back({1.0, {anchor, added}});
      break;
    }
  }
  return delta;
}

TEST(WarmStartProperty, WarmCostWithinFivePercentOfCold) {
  constexpr int kPairs = 200;
  int reused_any = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(pair);
    SCOPED_TRACE(testing::Message() << "pair seed " << seed);
    const NodeId n = static_cast<NodeId>(32 + (pair % 5) * 8);
    const Hypergraph base_hg =
        testutil::RandomConnectedHypergraph(n, n + n / 2, 4, seed);
    const NetlistDelta delta = RandomDelta(base_hg, seed * 7 + 1);
    const DeltaApplication app = ApplyDelta(base_hg, delta);

    // One spec serves both sides; size it for whichever netlist is larger
    // so additive deltas stay feasible (the session layer instead pins the
    // spec to the pre-delta total and lets oversized deltas fail loudly).
    const HierarchySpec spec = FullBinaryHierarchy(
        std::max(base_hg.total_size(), app.hg->total_size()), 3, 0.2);

    HtpFlowParams params;
    params.iterations = 1;
    params.seed = seed * 31 + 7;
    params.keep_best_metric = true;
    const HtpFlowResult converged = RunHtpFlow(base_hg, spec, params);
    const WarmStartState state = MakeWarmStartState(
        base_hg, converged.best_metric, converged.partition, params.seed);

    EcoParams eco;
    eco.flow = params;
    const EcoResult warm = RunEcoRepartition(
        app, spec, converged.partition, RemapWarmMetric(state, app), eco);
    RequireValidPartition(warm.partition, spec);
    ASSERT_DOUBLE_EQ(warm.cost, PartitionCost(warm.partition, spec));
    if (warm.blocks_reused > 0) ++reused_any;

    const HtpFlowResult cold = RunHtpFlow(*app.hg, spec, params);
    EXPECT_LE(warm.cost, cold.cost * 1.05)
        << "warm " << warm.cost << " vs cold " << cold.cost
        << " (reused " << warm.blocks_reused << ", recarved "
        << warm.blocks_recarved << ", rebuild " << warm.full_rebuild << ")";
  }
  // The battery must actually exercise the stitcher. At this scale (random
  // nets with no locality, 32-64 nodes) the rebuild race legitimately wins
  // most pairs, so only a fraction of runs keep cloned blocks; the
  // dedicated ECO tests and the bench pin the large-scale reuse story.
  EXPECT_GT(reused_any, kPairs / 8);
}

// The empty-delta resume through the shared session pipeline: partitions,
// costs, and deterministic report sections must be bit-identical to the
// converged run for every knob combination.
TEST(WarmStartProperty, EmptyDeltaSessionResumeBitIdentical) {
  for (const std::uint64_t seed :
       {std::uint64_t{5}, std::uint64_t{77}, std::uint64_t{901}}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    auto hg = std::make_shared<const Hypergraph>(
        testutil::RandomConnectedHypergraph(48, 70, 4, seed));

    serve::SessionRequest cold_request;
    cold_request.netlist = hg;
    cold_request.height = 3;
    cold_request.branching = 2;
    cold_request.slack = 0.2;
    cold_request.iterations = 1;
    cold_request.threads = 1;
    cold_request.seed = seed * 13 + 3;
    cold_request.emit_warm_state = true;
    const serve::SessionResult cold = serve::RunSession(cold_request, nullptr);
    ASSERT_FALSE(cold.warm_state.empty());
    const std::string cold_partition = WritePartitionText(*cold.partition);

    std::string reference_section;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t metric_threads :
           {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE(testing::Message()
                     << "threads=" << threads
                     << " metric_threads=" << metric_threads);
        serve::SessionRequest warm_request = cold_request;
        warm_request.emit_warm_state = false;
        warm_request.warm_text = cold.warm_state;
        warm_request.threads = threads;
        warm_request.metric_threads = metric_threads;
        warm_request.collect_report = true;
        // Counters and the journal are process-global and cumulative;
        // reset so each report covers exactly this run.
        obs::ResetAll();
        obs::DrainEvents();
        const serve::SessionResult warm =
            serve::RunSession(warm_request, nullptr);

        EXPECT_TRUE(warm.eco);
        EXPECT_EQ(warm.warm_source, "state");
        EXPECT_FALSE(warm.eco_full_rebuild);
        EXPECT_EQ(warm.eco_warm_injections, 0u);
        ASSERT_EQ(WritePartitionText(*warm.partition), cold_partition);
        ASSERT_EQ(warm.cost, cold.cost);

        const std::string section{obs::DeterministicSection(warm.report)};
        ASSERT_FALSE(section.empty());
        if (reference_section.empty())
          reference_section = section;
        else
          ASSERT_EQ(section, reference_section);
      }
    }
  }
}

// Chained ECO runs: state emitted by a warm run must itself warm-start the
// next run (the metric round-trips the flow inversion exactly).
TEST(WarmStartProperty, WarmStateChains) {
  auto hg = std::make_shared<const Hypergraph>(
      testutil::RandomConnectedHypergraph(40, 60, 4, 321));
  serve::SessionRequest request;
  request.netlist = hg;
  request.height = 3;
  request.slack = 0.2;
  request.iterations = 1;
  request.seed = 17;
  request.emit_warm_state = true;
  const serve::SessionResult first = serve::RunSession(request, nullptr);

  serve::SessionRequest second = request;
  second.warm_text = first.warm_state;
  const serve::SessionResult resumed = serve::RunSession(second, nullptr);
  ASSERT_FALSE(resumed.warm_state.empty());
  EXPECT_EQ(resumed.warm_state, first.warm_state)
      << "an empty-delta resume must re-emit the identical state";

  serve::SessionRequest third = second;
  third.warm_text = resumed.warm_state;
  third.delta_text = "htp-delta v1\nremove-net 2\n";
  const serve::SessionResult edited = serve::RunSession(third, nullptr);
  EXPECT_TRUE(edited.eco);
  EXPECT_EQ(edited.netlist->num_nets(), hg->num_nets() - 1);
  RequireValidPartition(*edited.partition, edited.spec);
}

}  // namespace
}  // namespace htp
