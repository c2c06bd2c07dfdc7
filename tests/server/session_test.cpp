#include "server/session.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/cost.hpp"
#include "core/partition_io.hpp"
#include "incremental/warm_start.hpp"
#include "obs/report.hpp"
#include "server/artifact_key.hpp"
#include "server/json_parse.hpp"
#include "server/protocol.hpp"
#include "test_util.hpp"

namespace htp::serve {
namespace {

SessionRequest SmallRequest() {
  SessionRequest request;
  request.circuit = "c1355";
  request.height = 3;
  request.iterations = 1;
  return request;
}

// `cost` is the algorithm's own PartitionCost of the partition it
// returned, bit for bit. With refinement, FM starts from exactly that cost
// and ends at the refined partition's.
void ExpectExactCosts(const SessionRequest& request) {
  SessionRequest plain = request;
  plain.refine = false;
  const SessionResult run = RunSession(plain, nullptr);
  ASSERT_TRUE(run.partition.has_value());
  EXPECT_EQ(run.cost, PartitionCost(*run.partition, run.spec));

  plain.refine = true;
  const SessionResult refined = RunSession(plain, nullptr);
  ASSERT_TRUE(refined.refined);
  EXPECT_EQ(refined.cost, run.cost);
  EXPECT_EQ(refined.fm.initial_cost, run.cost);
  EXPECT_EQ(refined.fm.final_cost,
            PartitionCost(*refined.partition, refined.spec));
}

TEST(Session, MatchesDirectPipeline) {
  SessionRequest request = SmallRequest();
  request.collect_report = true;
  const SessionResult run = RunSession(request, nullptr);
  ASSERT_TRUE(run.partition.has_value());
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(run.iterations.size(), 1u);
  EXPECT_EQ(run.cost, PartitionCost(*run.partition, run.spec));
  EXPECT_NE(run.netlist_hash, 0u);
  // No cache attached: the netlist tier was never consulted.
  EXPECT_EQ(run.cache.netlist, "off");
  // No metric provider either: every metric computation lowered its own
  // CsrView, one per `flow.metrics`.
  const double metrics = ParseJson(run.report)
                             .Find("deterministic")
                             ->Find("counters")
                             ->Find("flow.metrics")
                             ->number_value;
  EXPECT_GT(metrics, 0.0);
  EXPECT_EQ(static_cast<double>(run.cache.csr_misses), metrics);

  {
    SCOPED_TRACE("flow");
    ExpectExactCosts(SmallRequest());
  }
  {
    SCOPED_TRACE("multilevel");
    SessionRequest multilevel = SmallRequest();
    multilevel.multilevel = true;
    multilevel.coarsen_threshold = 200;
    const SessionResult coarse = RunSession(multilevel, nullptr);
    EXPECT_GT(coarse.coarsen_levels, 0u);
    ExpectExactCosts(multilevel);
  }
  {
    SCOPED_TRACE("eco");
    SessionRequest emit = SmallRequest();
    emit.emit_warm_state = true;
    SessionRequest eco = SmallRequest();
    eco.warm_text = WriteWarmStartText(*RunSession(emit, nullptr).warm_state);
    eco.delta_text = "htp-delta v1\nremove-net 17\nadd-net 1 3 40\n";
    const SessionResult edited = RunSession(eco, nullptr);
    EXPECT_TRUE(edited.eco);
    EXPECT_EQ(edited.warm_source, "state");
    ExpectExactCosts(eco);
  }
}

TEST(Session, WarmCacheRunIsBitIdenticalToCold) {
  ArtifactCache cache;
  const SessionRequest request = SmallRequest();

  const SessionResult cold = RunSession(request, &cache);
  EXPECT_EQ(cold.cache.netlist, "miss");

  const SessionResult warm = RunSession(request, &cache);
  EXPECT_EQ(warm.cache.netlist, "hit");
  // The warm run shares the cold run's parse, and computes the same work.
  EXPECT_EQ(warm.netlist.get(), cold.netlist.get());
  EXPECT_EQ(warm.cache.csr_misses, cold.cache.csr_misses);

  // The serve determinism contract: partition, cost, and iteration stats
  // are bit-identical whether the netlist tier missed or hit.
  EXPECT_EQ(WritePartitionText(*cold.partition),
            WritePartitionText(*warm.partition));
  EXPECT_EQ(cold.cost, warm.cost);
  EXPECT_EQ(cold.netlist_hash, warm.netlist_hash);
  ASSERT_EQ(cold.iterations.size(), warm.iterations.size());
  for (std::size_t i = 0; i < cold.iterations.size(); ++i) {
    EXPECT_EQ(cold.iterations[i].metric_cost, warm.iterations[i].metric_cost);
    EXPECT_EQ(cold.iterations[i].injections, warm.iterations[i].injections);
  }
}

TEST(Session, WarmResponseDeterministicSectionIsByteIdentical) {
  ArtifactCache cache;
  ServeRequest request;
  request.session = SmallRequest();

  const SessionResult cold = RunSession(request.session, &cache);
  const SessionResult warm = RunSession(request.session, &cache);
  const std::string cold_response = RenderServeResponse(request, cold, 0.25);
  const std::string warm_response = RenderServeResponse(request, warm, 3.5);
  // The full responses differ (cache + wall sections); the deterministic
  // slice — exactly what obs::DeterministicSection extracts — must not.
  EXPECT_NE(cold_response, warm_response);
  const std::string_view cold_det = obs::DeterministicSection(cold_response);
  const std::string_view warm_det = obs::DeterministicSection(warm_response);
  ASSERT_FALSE(cold_det.empty());
  EXPECT_EQ(cold_det, warm_det);
}

TEST(Session, CacheUnaffectedByDifferentSeed) {
  ArtifactCache cache;
  SessionRequest request = SmallRequest();
  const SessionResult first = RunSession(request, &cache);
  request.seed = 2;
  // A built-in circuit instantiates from the seed, so seed 2 is a
  // different netlist source: the netlist tier misses.
  const SessionResult second = RunSession(request, &cache);
  EXPECT_EQ(second.cache.netlist, "miss");
  EXPECT_NE(first.netlist_hash, second.netlist_hash);
}

TEST(Session, ProvidedNetlistSkipsSourceResolution) {
  auto hg = std::make_shared<const Hypergraph>(
      testutil::RandomConnectedHypergraph(64, 48, 4, 3));
  SessionRequest request;
  request.netlist = hg;
  request.height = 2;
  request.iterations = 1;
  ArtifactCache cache;
  const SessionResult run = RunSession(request, &cache);
  EXPECT_EQ(run.netlist.get(), hg.get());
  EXPECT_EQ(run.cache.netlist, "off");  // tier never consulted
  ASSERT_TRUE(run.partition.has_value());
  EXPECT_EQ(run.netlist_hash, 0u);  // not fingerprinted: no one reads it
}

TEST(Session, ProvidedNetlistIsFingerprintedForAnEco) {
  auto hg = std::make_shared<const Hypergraph>(
      testutil::RandomConnectedHypergraph(64, 48, 4, 3));
  SessionRequest request;
  request.netlist = hg;
  request.height = 2;
  request.iterations = 1;
  request.emit_warm_state = true;
  const SessionResult cold = RunSession(request, nullptr);
  request.emit_warm_state = false;
  request.warm_text = WriteWarmStartText(*cold.warm_state);
  request.delta_text = "htp-delta v1\nremove-net 5\n";
  const SessionResult eco = RunSession(request, nullptr);
  EXPECT_EQ(eco.pre_delta_hash, HashNetlist(*hg));
  EXPECT_EQ(eco.netlist_hash, HashNetlist(*eco.netlist));
  EXPECT_NE(eco.netlist_hash, eco.pre_delta_hash);
}

TEST(Session, ExpiredDeadlineStillReturnsValidPartition) {
  SessionRequest request = SmallRequest();
  request.budget.time_budget_seconds = 0.0000001;
  const SessionResult run = RunSession(request, nullptr);
  ASSERT_TRUE(run.partition.has_value());
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.stop_reason, StopReason::kDeadline);
}

// RFM and GFM degrade their carves rather than stop, and FM stops between
// passes; a run the deadline cut still reports it, and its report agrees.
TEST(Session, ExpiredDeadlineMarksEveryAlgorithmIncomplete) {
  for (const char* algo : {"rfm", "gfm"}) {
    SCOPED_TRACE(algo);
    SessionRequest request = SmallRequest();
    request.algo = algo;
    request.refine = true;
    request.collect_report = true;
    request.budget.time_budget_seconds = 0.0000001;
    const SessionResult run = RunSession(request, nullptr);
    ASSERT_TRUE(run.partition.has_value());
    EXPECT_FALSE(run.completed);
    EXPECT_EQ(run.stop_reason, StopReason::kDeadline);
    EXPECT_FALSE(run.fm.completed);
    const JsonValue report = ParseJson(run.report);
    const JsonValue& result = *report.Find("deterministic")->Find("result");
    EXPECT_FALSE(result.Find("completed")->bool_value);
    EXPECT_EQ(result.Find("stop_reason")->string_value, "deadline");
  }
}

TEST(Session, RejectsUnknownAlgoAndBadWeights) {
  SessionRequest bad_algo = SmallRequest();
  bad_algo.algo = "bogus";
  EXPECT_THROW(RunSession(bad_algo, nullptr), Error);

  SessionRequest bad_weights = SmallRequest();
  bad_weights.weights = {1.0, 2.0};  // height is 3
  EXPECT_THROW(RunSession(bad_weights, nullptr), Error);

  SessionRequest bad_multilevel = SmallRequest();
  bad_multilevel.algo = "rfm";
  bad_multilevel.multilevel = true;
  EXPECT_THROW(RunSession(bad_multilevel, nullptr), Error);

  SessionRequest no_source;
  no_source.circuit.clear();
  EXPECT_THROW(RunSession(no_source, nullptr), Error);

  // An explicitly named bench file must error when unreadable or empty,
  // never silently fall back to the request's defaulted circuit.
  SessionRequest missing_file = SmallRequest();
  missing_file.bench_file = "/nonexistent/htp.bench";
  EXPECT_THROW(RunSession(missing_file, nullptr), Error);

  SessionRequest empty_file = SmallRequest();
  empty_file.bench_file = "/dev/null";
  EXPECT_THROW(RunSession(empty_file, nullptr), Error);
}

// A FLOW+ request whose iterations run on pool workers, so its journal
// records are made on threads other than the one that runs the session.
SessionRequest ForkingRequest(std::uint64_t seed) {
  SessionRequest request = SmallRequest();
  request.iterations = 2;
  request.threads = 2;
  request.metric_threads = 2;
  request.refine = true;
  request.seed = seed;
  return request;
}

// Every run journals into its own obs scope and drops it unless a report
// asks for it: a daemon serving report-less requests must not keep their
// journals (they used to pile up in the worker shards forever).
TEST(Session, ReportlessRunsLeaveNoJournalBehind) {
  obs::DrainEvents();
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    RunSession(ForkingRequest(seed), nullptr);
  EXPECT_TRUE(obs::DrainEvents().empty());
}

// The deterministic section of the report `request` asks for.
std::string DeterministicReport(const SessionRequest& request) {
  return std::string(
      obs::DeterministicSection(RunSession(request, nullptr).report));
}

// A report is exactly its own run's: concurrent runs, with or without
// reports, neither add records to it nor take records from it — counters,
// histograms and journal alike — so its whole deterministic section equals
// the same run's alone.
TEST(Session, ConcurrentReportJournalMatchesSoloRun) {
  SessionRequest first = ForkingRequest(1);
  first.collect_report = true;
  SessionRequest second = ForkingRequest(7);
  second.collect_report = true;
  const std::string first_solo = DeterministicReport(first);
  const std::string second_solo = DeterministicReport(second);
  ASSERT_NE(first_solo.find("\"driver.runs\":1,"), std::string::npos)
      << first_solo;
  ASSERT_NE(first_solo.find("\"journal\":[{"), std::string::npos);
  ASSERT_NE(first_solo, second_solo);

  std::string first_concurrent, second_concurrent;
  std::vector<std::thread> runs;
  runs.emplace_back([&] { first_concurrent = DeterministicReport(first); });
  runs.emplace_back([&] { second_concurrent = DeterministicReport(second); });
  for (std::uint64_t seed : {2u, 3u})
    runs.emplace_back([seed] { RunSession(ForkingRequest(seed), nullptr); });
  for (std::thread& run : runs) run.join();
  EXPECT_EQ(first_concurrent, first_solo);
  EXPECT_EQ(second_concurrent, second_solo);
}

TEST(Session, RfmFallbackReportCarriesRequestedTool) {
  SessionRequest request = SmallRequest();
  request.algo = "rfm";
  request.collect_report = true;
  request.report_tool = "htp_serve";
  const SessionResult run = RunSession(request, nullptr);
  EXPECT_NE(run.report.find("\"tool\":\"htp_serve\""), std::string::npos);
}

}  // namespace
}  // namespace htp::serve
