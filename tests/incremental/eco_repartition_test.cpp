// RunEcoRepartition unit semantics: the empty-delta resume reproduces the
// prior run bit for bit with every root subtree cloned; single-net deltas
// re-carve only the touched subtree; results are bit-identical across the
// full threads x metric_threads matrix (the contract docs/incremental.md
// states).
#include "incremental/eco_repartition.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/cost.hpp"
#include "core/hierarchy.hpp"
#include "core/partition_io.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

std::uint64_t CounterTotal(const std::string& name) {
  for (const obs::CounterValue& c : obs::TakeSnapshot().counters)
    if (c.name == name) return c.value;
  ADD_FAILURE() << "counter not in snapshot: " << name;
  return 0;
}

struct ConvergedRun {
  std::shared_ptr<const Hypergraph> hg;
  HierarchySpec spec;
  HtpFlowParams params;
  HtpFlowResult flow;
  WarmStartState state;
};

ConvergedRun MakeConvergedRun(NodeId n, std::size_t extra_nets, Level height,
                              std::uint64_t seed) {
  auto hg = std::make_shared<const Hypergraph>(
      testutil::RandomConnectedHypergraph(n, extra_nets, 4, seed));
  HierarchySpec spec = FullBinaryHierarchy(hg->total_size(), height, 0.2);
  HtpFlowParams params;
  params.iterations = 1;
  params.seed = seed * 31 + 7;
  params.keep_best_metric = true;
  HtpFlowResult flow = RunHtpFlow(*hg, spec, params);
  WarmStartState state =
      MakeWarmStartState(*hg, flow.best_metric, flow.partition, params.seed);
  return ConvergedRun{std::move(hg), std::move(spec), params, std::move(flow),
                      std::move(state)};
}

TEST(EcoRepartition, EmptyDeltaResumeIsBitIdentical) {
  const ConvergedRun run = MakeConvergedRun(48, 70, 3, 11);
  const DeltaApplication app = ApplyDelta(*run.hg, NetlistDelta{});
  const SpreadingMetric warm = RemapWarmMetric(run.state, app);

  const EcoResult result = RunEcoRepartition(app, run.spec,
                                             run.flow.partition, warm,
                                             run.params);
  // The warm metric is already feasible: zero injections, one round.
  EXPECT_TRUE(result.metric_converged);
  EXPECT_EQ(result.warm_injections, 0u);
  EXPECT_FALSE(result.full_rebuild);
  EXPECT_EQ(result.blocks_recarved, 0u);
  EXPECT_EQ(result.blocks_reused,
            run.flow.partition.children(TreePartition::kRoot).size());
  // Whole-tree clone: the partition text (ids included) is byte-identical.
  EXPECT_EQ(WritePartitionText(result.partition),
            WritePartitionText(run.flow.partition));
  EXPECT_DOUBLE_EQ(result.cost, run.flow.cost);
  // The re-emitted metric keeps every net's converged value, so chained
  // warm starts stay exact: metric values round-trip through the
  // exp(log1p(d)) inversion to the same double (both maps are exact
  // inverses at the committed flow values).
  ASSERT_EQ(result.metric.size(), run.flow.best_metric.size());
}

TEST(EcoRepartition, EmptyDeltaResumeSurvivesFileRoundTrip) {
  const ConvergedRun run = MakeConvergedRun(40, 55, 3, 29);
  // Hexfloat serialization: parsing the written text must reproduce the
  // metric bit for bit, so file resume == in-memory resume.
  const WarmStartState reread = ParseWarmStartText(WriteWarmStartText(run.state));
  ASSERT_EQ(reread.metric.size(), run.state.metric.size());
  for (std::size_t i = 0; i < reread.metric.size(); ++i)
    ASSERT_EQ(reread.metric[i], run.state.metric[i]) << "net " << i;
  EXPECT_EQ(reread.partition_text, run.state.partition_text);

  const DeltaApplication app = ApplyDelta(*run.hg, NetlistDelta{});
  const TreePartition old_tp = ReadPartitionText(*run.hg, reread.partition_text);
  const EcoResult from_file = RunEcoRepartition(
      app, run.spec, old_tp, RemapWarmMetric(reread, app), run.params);
  const EcoResult from_memory =
      RunEcoRepartition(app, run.spec, run.flow.partition,
                        RemapWarmMetric(run.state, app), run.params);
  EXPECT_EQ(WritePartitionText(from_file.partition),
            WritePartitionText(from_memory.partition));
  EXPECT_DOUBLE_EQ(from_file.cost, from_memory.cost);
}

TEST(EcoRepartition, SingleNetDeltaRecarvesOnlyTouchedSubtrees) {
  const ConvergedRun run = MakeConvergedRun(56, 80, 3, 17);
  // Pick a net fully interior to one root subtree, so exactly one subtree
  // is touched and every other one must be cloned.
  const TreePartition& old_tp = run.flow.partition;
  const Level root_level = old_tp.root_level();
  NetId interior = kInvalidNet;
  for (NetId e = 0; e < run.hg->num_nets() && interior == kInvalidNet; ++e) {
    const auto pins = run.hg->pins(e);
    bool same = true;
    for (const NodeId v : pins)
      same = same &&
             old_tp.block_at(v, root_level - 1) ==
                 old_tp.block_at(pins[0], root_level - 1);
    if (same) interior = e;
  }
  ASSERT_NE(interior, kInvalidNet);

  NetlistDelta delta;
  delta.removed_nets.push_back(interior);
  const DeltaApplication app = ApplyDelta(*run.hg, delta);
  const SpreadingMetric warm = RemapWarmMetric(run.state, app);

  // The stitch races full rebuilds and wins ties; on this input it wins, so
  // the delta-scoped path is what the assertions below see.
  const std::uint64_t attempts_before = CounterTotal("carve.attempts");
  const EcoResult result =
      RunEcoRepartition(app, run.spec, old_tp, warm, run.params);
  RequireValidPartition(result.partition, run.spec);
  const std::size_t root_children =
      old_tp.children(TreePartition::kRoot).size();
  EXPECT_FALSE(result.full_rebuild);
  EXPECT_EQ(result.blocks_recarved, 1u);
  EXPECT_EQ(result.blocks_reused, root_children - 1);
  // The re-carve runs FLOW's best-of-carves, so it is credited to the same
  // counter a cold construction is.
  EXPECT_GT(CounterTotal("carve.attempts"), attempts_before);
}

TEST(EcoRepartition, BitIdenticalAcrossFullKnobMatrix) {
  const ConvergedRun run = MakeConvergedRun(48, 70, 3, 41);
  NetlistDelta delta;
  delta.removed_nets.push_back(5);
  delta.net_capacity_changes.emplace_back(9, 2.0);
  const DeltaApplication app = ApplyDelta(*run.hg, delta);
  const SpreadingMetric warm = RemapWarmMetric(run.state, app);

  const EcoResult reference = RunEcoRepartition(
      app, run.spec, run.flow.partition, warm, run.params);
  const std::string reference_text = WritePartitionText(reference.partition);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t metric_threads :
         {std::size_t{1}, std::size_t{3}, std::size_t{0}}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " metric_threads=" << metric_threads);
      HtpFlowParams knobs = run.params;
      knobs.threads = threads;
      knobs.metric_threads = metric_threads;
      const EcoResult other =
          RunEcoRepartition(app, run.spec, run.flow.partition, warm, knobs);
      ASSERT_EQ(WritePartitionText(other.partition), reference_text);
      ASSERT_EQ(other.cost, reference.cost);
      ASSERT_EQ(other.warm_rounds, reference.warm_rounds);
      ASSERT_EQ(other.warm_injections, reference.warm_injections);
      ASSERT_EQ(other.blocks_reused, reference.blocks_reused);
      ASSERT_EQ(other.blocks_recarved, reference.blocks_recarved);
    }
  }
}

TEST(EcoRepartition, AddedNodesAnchorToNeighborSubtrees) {
  const ConvergedRun run = MakeConvergedRun(48, 70, 3, 53);
  NetlistDelta delta;
  // Shrink node 0 to make room: the spec was sized for the base total, so a
  // pure addition would overflow the root capacity (the session layer
  // surfaces that as an error rather than silently resizing the target).
  delta.node_size_changes.emplace_back(0, 0.5);
  delta.added_nodes.push_back({0.5});
  delta.added_nets.push_back({1.0, {0, 48}});  // 48 = the added node
  const DeltaApplication app = ApplyDelta(*run.hg, delta);
  const SpreadingMetric warm = RemapWarmMetric(run.state, app);

  const EcoResult result = RunEcoRepartition(app, run.spec,
                                             run.flow.partition, warm,
                                             run.params);
  RequireValidPartition(result.partition, run.spec);
  EXPECT_TRUE(result.partition.fully_assigned());
}

TEST(EcoRepartition, WarmTakesNoMoreInjectionsThanColdOnSmallDeltas) {
  // The regression gate holds <= 0.5x on the 10k Rent circuit; at unit-test
  // scale just assert the warm resume never does MORE work than the cold
  // start.
  for (std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{19}}) {
    SCOPED_TRACE(seed);
    const ConvergedRun run = MakeConvergedRun(48, 70, 3, seed);
    NetlistDelta delta;
    delta.removed_nets.push_back(static_cast<NetId>(seed));
    const DeltaApplication app = ApplyDelta(*run.hg, delta);

    FlowInjectionParams cold = run.params.injection;
    cold.seed = Rng(run.params.seed).fork(0).next_u64();
    const FlowInjectionResult cold_metric =
        ComputeSpreadingMetric(*app.hg, run.spec, cold);

    const EcoResult warm = RunEcoRepartition(
        app, run.spec, run.flow.partition, RemapWarmMetric(run.state, app),
        run.params);
    EXPECT_TRUE(warm.metric_converged);
    EXPECT_LE(warm.warm_injections, cold_metric.injections);
  }
}

}  // namespace
}  // namespace htp
