// Tests for the RunReport artifact (obs/report.hpp): section routing
// (deterministic vs wall), DeterministicSection extraction, and the
// headline contracts of the report RunSession renders — it covers the
// whole run (FM refinement included) and its deterministic section is
// bit-identical for every threads x metric_threads combination.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "server/session.hpp"

namespace htp {
namespace {

TEST(RunReportBuilder, RoutesSectionsByKindAndStripsTimestamps) {
  obs::Snapshot snap;
  snap.counters.push_back({"flow.rounds", obs::CounterKind::kSum, 12});
  snap.counters.push_back(
      {"driver.budget_remaining_ms", obs::CounterKind::kMax, 950});
  obs::HistogramValue value_hist;
  value_hist.name = "flow.rounds_per_metric";
  value_hist.kind = obs::HistogramKind::kValue;
  value_hist.count = 2;
  value_hist.sum = 5;
  value_hist.min = 2;
  value_hist.max = 3;
  value_hist.buckets = {0, 0, 2};
  snap.histograms.push_back(value_hist);
  obs::HistogramValue time_hist = value_hist;
  time_hist.name = "flow.compute_metric_ns";
  time_hist.kind = obs::HistogramKind::kTimeNs;
  snap.histograms.push_back(time_hist);
  snap.timers.push_back({"driver.run", 1, 5000, 5000, 5000});

  std::vector<obs::EventRecord> journal;
  obs::EventRecord record;
  record.name = "flow.round";
  record.ts_ns = 123456789;  // must NOT appear in the report
  record.fields = {{"round", 1.0}, {"metric_mass", 2.5}};
  journal.push_back(record);

  obs::RunReportBuilder rb("test_tool");
  rb.MetaString("algorithm", "flow");
  rb.MetaNumber("seed", 7);
  rb.ResultNumber("cost", 58);
  rb.ResultBool("completed", true);
  rb.WallNumber("threads", 8);
  const std::string json = rb.Render(snap, journal);

  const std::string_view det = obs::DeterministicSection(json);
  ASSERT_FALSE(det.empty());
  // Deterministic side: meta, result, pure counters, value histograms,
  // journal payloads.
  EXPECT_NE(det.find("\"algorithm\":\"flow\""), std::string_view::npos);
  EXPECT_NE(det.find("\"cost\":58"), std::string_view::npos);
  EXPECT_NE(det.find("\"completed\":true"), std::string_view::npos);
  EXPECT_NE(det.find("\"flow.rounds\":12"), std::string_view::npos);
  EXPECT_NE(det.find("\"flow.rounds_per_metric\""), std::string_view::npos);
  EXPECT_NE(det.find("\"event\":\"flow.round\""), std::string_view::npos);
  EXPECT_NE(det.find("\"metric_mass\":2.5"), std::string_view::npos);
  // Wall-only data must stay out of the deterministic slice.
  EXPECT_EQ(det.find("driver.budget_remaining_ms"), std::string_view::npos);
  EXPECT_EQ(det.find("flow.compute_metric_ns"), std::string_view::npos);
  EXPECT_EQ(det.find("\"threads\""), std::string_view::npos);
  EXPECT_EQ(det.find("driver.run"), std::string_view::npos);
  // Timestamps are stripped everywhere.
  EXPECT_EQ(json.find("123456789"), std::string::npos);
  // ... and the wall section carries what the deterministic one must not.
  EXPECT_NE(json.find("\"driver.budget_remaining_ms\":950"),
            std::string::npos);
  EXPECT_NE(json.find("\"flow.compute_metric_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\":8"), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"htp-run-report\""), std::string::npos);
}

TEST(RunReportBuilder, EscapesHostileMetaValues) {
  obs::RunReportBuilder rb("tool\"quoted");
  rb.MetaString("bench\nfile", "a\\b\"c");
  const std::string json = rb.Render({}, {});
  EXPECT_NE(json.find("tool\\\"quoted"), std::string::npos);
  EXPECT_NE(json.find("bench\\nfile"), std::string::npos);
  EXPECT_NE(json.find("a\\\\b\\\"c"), std::string::npos);
}

TEST(DeterministicSection, ExtractsTheExactBraceMatchedSlice) {
  const std::string json =
      "{\"schema\":\"htp-run-report\",\"deterministic\":"
      "{\"meta\":{\"weird\":\"br{ace\\\"}\"},\"journal\":[]},"
      "\"wall\":{}}";
  const std::string_view det = obs::DeterministicSection(json);
  ASSERT_FALSE(det.empty());
  EXPECT_EQ(det.front(), '{');
  EXPECT_EQ(det.back(), '}');
  EXPECT_NE(det.find("br{ace"), std::string_view::npos);
  EXPECT_EQ(det.find("wall"), std::string_view::npos)
      << "braces inside strings must not derail the matcher";
  EXPECT_TRUE(obs::DeterministicSection("not a report").empty());
  EXPECT_TRUE(obs::DeterministicSection("{\"deterministic\":[]}").empty());
}

// A RunSession request over c1355-like instance `instance_seed`, with the
// 3-level binary hierarchy and a RunReport collected. The report holds
// this run's telemetry alone, whatever ran in the process before.
serve::SessionRequest ReportRequest(std::uint64_t instance_seed) {
  serve::SessionRequest request;
  request.netlist = std::make_shared<const Hypergraph>(
      MakeIscas85Like("c1355", instance_seed));
  request.height = 3;
  request.iterations = 2;
  request.seed = 11;
  request.refine = true;
  request.collect_report = true;
  return request;
}

// The deterministic `result` object of a report (it nests no objects).
std::string ResultSection(const std::string& report) {
  const std::size_t begin = report.find("\"result\":{");
  if (begin == std::string::npos) return {};
  return report.substr(begin, report.find('}', begin) - begin + 1);
}

std::string JsonNumber(double value) {
  obs::JsonWriter w;
  w.Number(value);
  return std::move(w).Take();
}

// True iff deterministic section `det` holds counter `name` == `value`.
bool HasCounter(std::string_view det, const std::string& name,
                std::uint64_t value) {
  const std::string needle = "\"" + name + "\":" + std::to_string(value);
  const std::size_t at = det.find(needle);
  return at != std::string_view::npos &&
         (det[at + needle.size()] == ',' || det[at + needle.size()] == '}');
}

// The tentpole contract. Every {threads} x {metric_threads} combination
// must produce a byte-identical deterministic section: same result, same
// counter totals, same value histograms, same journal — FM stage included.
// The wall section (thread counts, timers) is allowed to differ — that is
// the whole point of the split.
TEST(RunReportPipeline, DeterministicSectionIsThreadCountInvariant) {
  std::string reference;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (std::size_t metric_threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads
                   << " metric_threads=" << metric_threads);
      serve::SessionRequest request = ReportRequest(3);
      request.threads = threads;
      request.metric_threads = metric_threads;
      const serve::SessionResult run = serve::RunSession(request, nullptr);
      ASSERT_FALSE(run.report.empty());
      const std::string_view det = obs::DeterministicSection(run.report);
      ASSERT_FALSE(det.empty());
      if (reference.empty())
        reference = std::string(det);
      else
        EXPECT_EQ(det, reference);
    }
  }
  EXPECT_NE(reference.find("\"event\":\"driver.iteration\""),
            std::string::npos);
  EXPECT_NE(reference.find("\"event\":\"flow.round\""), std::string::npos);
  EXPECT_TRUE(HasCounter(reference, "fm.refines", 1));
}

// FLOW+ is FLOW followed by generalized FM: the report is rendered after
// the FM stage, so its `cost` is the post-FM cost and `algo_cost` the
// constructor's. `htp_cli --circuit c1355 --height 3 --iterations 1
// --refine` is this run: FM takes the cost from 32 to 24.
TEST(RunReportPipeline, FlowRefineReportCarriesTheFinalCost) {
  serve::SessionRequest request = ReportRequest(1);
  request.iterations = 1;
  request.seed = 1;
  request.report_tool = "report_test";
  const serve::SessionResult run = serve::RunSession(request, nullptr);
  ASSERT_TRUE(run.refined);
  ASSERT_LT(run.fm.final_cost, run.cost);
  const std::string result = ResultSection(run.report);
  EXPECT_NE(result.find("\"cost\":" + JsonNumber(run.fm.final_cost) + ","),
            std::string::npos)
      << result;
  EXPECT_NE(result.find("\"algo_cost\":" + JsonNumber(run.cost) + ","),
            std::string::npos)
      << result;
  EXPECT_NE(result.find("\"refined\":true"), std::string::npos) << result;
  EXPECT_NE(run.report.find("\"tool\":\"report_test\""), std::string::npos);
  EXPECT_TRUE(
      HasCounter(obs::DeterministicSection(run.report), "fm.refines", 1));
}

TEST(RunReportPipeline, MultilevelReportCoversTheWholePipeline) {
  serve::SessionRequest request = ReportRequest(5);
  request.multilevel = true;
  request.coarsen_threshold = 64;
  const serve::SessionResult run = serve::RunSession(request, nullptr);
  ASSERT_GT(run.coarsen_levels, 0u);
  const std::string_view det = obs::DeterministicSection(run.report);
  ASSERT_FALSE(det.empty());
  EXPECT_NE(det.find("\"algorithm\":\"flow\""), std::string_view::npos);
  EXPECT_NE(det.find("\"multilevel\":true"), std::string_view::npos);
  EXPECT_NE(ResultSection(run.report)
                .find("\"cost\":" + JsonNumber(run.fm.final_cost) + ","),
            std::string::npos);
  // One journal covers the whole pipeline: the coarse flow's records, the
  // per-level records, and every FM refine — one per uncoarsening level
  // plus the session's final one.
  EXPECT_NE(det.find("\"event\":\"driver.iteration\""),
            std::string_view::npos);
  EXPECT_NE(det.find("\"event\":\"multilevel.level\""),
            std::string_view::npos);
  EXPECT_TRUE(HasCounter(det, "fm.refines", run.coarsen_levels + 1));
}

TEST(RunReportPipeline, ReportIsEmptyUnlessRequested) {
  serve::SessionRequest request = ReportRequest(3);
  request.collect_report = false;
  request.iterations = 1;
  const serve::SessionResult run = serve::RunSession(request, nullptr);
  EXPECT_TRUE(run.report.empty());
}

}  // namespace
}  // namespace htp
