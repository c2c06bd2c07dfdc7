// The warm-vs-cold equivalence battery (docs/incremental.md):
//
//   1. 200+ seeded (netlist, delta) pairs: the warm-started ECO run always
//      returns a valid partition whose cost is within 5% of the cold run
//      on the same edited netlist (cost <= cold x 1.05).
//   2. RemapWarmMetric keeps every untouched net's converged value bit for
//      bit on the same pairs, and restarts every touched net at 0.
//   3. Empty-delta warm starts are bit-identical — partition bytes, cost,
//      and the deterministic report section — to the converged run that
//      produced the state, across the full threads x metric_threads matrix
//      (driven through serve::RunSession, the same pipeline htp_cli and
//      htp_serve share).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "core/hierarchy.hpp"
#include "core/partition_io.hpp"
#include "incremental/eco_repartition.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "runtime/thread_pool.hpp"
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

// One pair's outcome, filled by a worker and checked afterwards in pair
// order on the test thread.
struct WarmColdPair {
  std::vector<std::string> invalid;  // ValidatePartition of the warm result
  double warm_cost = 0.0;
  double warm_recosted = 0.0;  // PartitionCost of the warm partition
  double cold_cost = 0.0;
  std::size_t blocks_reused = 0;
  std::size_t blocks_recarved = 0;
  bool full_rebuild = false;
};

TEST(WarmStartProperty, WarmCostWithinFivePercentOfCold) {
  constexpr int kPairs = 200;
  // The pairs are independent, so they run side by side (every run's
  // result is thread-count invariant), each into its own slot.
  std::vector<WarmColdPair> pairs(kPairs);
  ParallelFor(0, kPairs, [&](std::size_t pair) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(pair);
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

    const EcoResult warm = RunEcoRepartition(
        app, spec, converged.partition, RemapWarmMetric(state, app), params);
    WarmColdPair& out = pairs[pair];
    out.invalid = ValidatePartition(warm.partition, spec);
    out.warm_cost = warm.cost;
    out.warm_recosted = PartitionCost(warm.partition, spec);
    out.blocks_reused = warm.blocks_reused;
    out.blocks_recarved = warm.blocks_recarved;
    out.full_rebuild = warm.full_rebuild;
    out.cold_cost = RunHtpFlow(*app.hg, spec, params).cost;
  });

  int reused_any = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    SCOPED_TRACE(testing::Message() << "pair seed " << 1000 + pair);
    const WarmColdPair& out = pairs[pair];
    ASSERT_TRUE(out.invalid.empty()) << out.invalid.front();
    ASSERT_DOUBLE_EQ(out.warm_cost, out.warm_recosted);
    if (out.blocks_reused > 0) ++reused_any;
    EXPECT_LE(out.warm_cost, out.cold_cost * 1.05)
        << "warm " << out.warm_cost << " vs cold " << out.cold_cost
        << " (reused " << out.blocks_reused << ", recarved "
        << out.blocks_recarved << ", rebuild " << out.full_rebuild << ")";
  }
  // The battery must actually exercise the stitcher. At this scale (random
  // nets with no locality, 32-64 nodes) the rebuild race legitimately wins
  // most pairs, so only a fraction of runs keep cloned blocks; the
  // dedicated ECO tests and the bench pin the large-scale reuse story.
  EXPECT_GT(reused_any, kPairs / 8);
}

// RemapWarmMetric over the battery's (netlist, delta) pairs: a net the
// delta left alone (its pins, mapped to edited ids, are the same and no
// directive named it) keeps its prior d(e) bit for bit; every touched or
// added net restarts at 0. The prior metric is a distinct random value per
// net, so a value landing on the wrong net shows.
TEST(WarmStartProperty, RemapKeepsUntouchedNetsBitEqual) {
  constexpr int kPairs = 200;
  std::size_t untouched_total = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(pair);
    SCOPED_TRACE(testing::Message() << "pair seed " << seed);
    const NodeId n = static_cast<NodeId>(32 + (pair % 5) * 8);
    const Hypergraph base_hg =
        testutil::RandomConnectedHypergraph(n, n + n / 2, 4, seed);
    const NetlistDelta delta = RandomDelta(base_hg, seed * 7 + 1);
    const DeltaApplication app = ApplyDelta(base_hg, delta);

    WarmStartState state;
    Rng rng(seed);
    for (NetId e = 0; e < base_hg.num_nets(); ++e)
      state.metric.push_back(static_cast<double>(rng.next_u64() >> 11) *
                             0x1p-40);
    const SpreadingMetric warm = RemapWarmMetric(state, app);
    ASSERT_EQ(warm.size(), app.hg->num_nets());

    std::vector<char> kept(app.hg->num_nets(), 0);
    for (NetId e = 0; e < base_hg.num_nets(); ++e) {
      const NetId mapped = app.net_to_new[e];
      if (mapped == kInvalidNet) continue;
      std::vector<NodeId> pins;  // kInvalidNode for a removed pin
      for (const NodeId v : base_hg.pins(e)) pins.push_back(app.node_to_new[v]);
      std::sort(pins.begin(), pins.end());  // a net keeps its pins sorted
      const auto edited = app.hg->pins(mapped);
      const bool recapped = std::any_of(
          delta.net_capacity_changes.begin(), delta.net_capacity_changes.end(),
          [e](const auto& change) { return change.first == e; });
      if (recapped || pins != std::vector<NodeId>(edited.begin(), edited.end()))
        continue;
      kept[mapped] = 1;
      ++untouched_total;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(warm[mapped]),
                std::bit_cast<std::uint64_t>(state.metric[e]))
          << "net " << e << " -> " << mapped;
    }
    for (NetId e = 0; e < app.hg->num_nets(); ++e)
      if (!kept[e]) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(warm[e]), 0u) << "net " << e;
      }
  }
  EXPECT_GT(untouched_total, std::size_t{kPairs} * 32);
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
    ASSERT_TRUE(cold.warm_state.has_value());
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
        warm_request.warm_text = WriteWarmStartText(*cold.warm_state);
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
  second.warm_text = WriteWarmStartText(*first.warm_state);
  const serve::SessionResult resumed = serve::RunSession(second, nullptr);
  ASSERT_TRUE(resumed.warm_state.has_value());
  EXPECT_EQ(WriteWarmStartText(*resumed.warm_state), second.warm_text)
      << "an empty-delta resume must re-emit the identical state";

  serve::SessionRequest third = second;
  third.warm_text = WriteWarmStartText(*resumed.warm_state);
  third.delta_text = "htp-delta v1\nremove-net 2\n";
  const serve::SessionResult edited = serve::RunSession(third, nullptr);
  EXPECT_TRUE(edited.eco);
  EXPECT_EQ(edited.netlist->num_nets(), hg->num_nets() - 1);
  RequireValidPartition(*edited.partition, edited.spec);
}

}  // namespace
}  // namespace htp
