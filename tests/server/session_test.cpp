#include "server/session.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/cost.hpp"
#include "core/partition_io.hpp"
#include "obs/report.hpp"
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

TEST(Session, MatchesDirectPipeline) {
  const SessionResult run = RunSession(SmallRequest(), nullptr);
  ASSERT_TRUE(run.partition.has_value());
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(run.iterations.size(), 1u);
  EXPECT_DOUBLE_EQ(run.cost, PartitionCost(*run.partition, run.spec));
  EXPECT_NE(run.netlist_hash, 0u);
  // No cache attached: every tier reports zero traffic.
  EXPECT_EQ(run.cache.netlist, "off");
  EXPECT_EQ(run.cache.metric_hits + run.cache.metric_misses, 0u);
}

TEST(Session, WarmCacheRunIsBitIdenticalToCold) {
  ArtifactCache cache;
  const SessionRequest request = SmallRequest();

  const SessionResult cold = RunSession(request, &cache);
  EXPECT_EQ(cold.cache.netlist, "miss");
  EXPECT_EQ(cold.cache.metric_hits, 0u);
  EXPECT_GT(cold.cache.metric_misses, 0u);

  const SessionResult warm = RunSession(request, &cache);
  EXPECT_EQ(warm.cache.netlist, "hit");
  EXPECT_GT(warm.cache.metric_hits, 0u);
  EXPECT_EQ(warm.cache.metric_misses, 0u);

  // The serve determinism contract: partition, cost, and iteration stats
  // are bit-identical whether every tier missed or every tier hit.
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
  // different netlist source AND different injection keys: nothing hits.
  const SessionResult second = RunSession(request, &cache);
  EXPECT_EQ(second.cache.netlist, "miss");
  EXPECT_EQ(second.cache.metric_hits, 0u);
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
}

TEST(Session, ExpiredDeadlineStillReturnsValidPartition) {
  SessionRequest request = SmallRequest();
  request.budget.time_budget_seconds = 0.0000001;
  const SessionResult run = RunSession(request, nullptr);
  ASSERT_TRUE(run.partition.has_value());
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.stop_reason, StopReason::kDeadline);
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

// The `journal` member of a report's deterministic section (its last
// member), or "" when the report has none.
std::string JournalSection(const std::string& report) {
  const std::string_view det = obs::DeterministicSection(report);
  const std::size_t at = det.find("\"journal\":");
  return at == std::string_view::npos ? std::string()
                                      : std::string(det.substr(at));
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

// A report's journal is exactly its own run's: concurrent runs, with or
// without reports, neither add records to it nor take records from it.
TEST(Session, ConcurrentReportJournalMatchesSoloRun) {
  SessionRequest first = ForkingRequest(1);
  first.collect_report = true;
  SessionRequest second = ForkingRequest(7);
  second.collect_report = true;
  const std::string first_solo =
      JournalSection(RunSession(first, nullptr).report);
  const std::string second_solo =
      JournalSection(RunSession(second, nullptr).report);
  ASSERT_FALSE(first_solo.empty());
#if HTP_OBS_ENABLED
  ASSERT_NE(first_solo, second_solo);
#endif

  std::string first_concurrent, second_concurrent;
  std::vector<std::thread> runs;
  runs.emplace_back([&] {
    first_concurrent = JournalSection(RunSession(first, nullptr).report);
  });
  runs.emplace_back([&] {
    second_concurrent = JournalSection(RunSession(second, nullptr).report);
  });
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
