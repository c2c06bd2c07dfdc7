// Unit tests for the htp-obs telemetry layer: deterministic shard merging
// across fork-join boundaries, snapshot/reset semantics, the scope rule
// (every record belongs to the scope of the thread that made it), and the
// exact shape of the sink outputs (stats report, Chrome trace JSON, JSONL).
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "obs/obs.hpp"
#include "obs/sinks.hpp"
#include "runtime/thread_pool.hpp"

namespace htp {
namespace {

obs::CounterValue FindCounter(const obs::Snapshot& snap,
                              const std::string& name) {
  for (const obs::CounterValue& c : snap.counters)
    if (c.name == name) return c;
  ADD_FAILURE() << "counter not in snapshot: " << name;
  return {};
}

obs::TimerValue FindTimer(const obs::Snapshot& snap, const std::string& name) {
  for (const obs::TimerValue& t : snap.timers)
    if (t.name == name) return t;
  ADD_FAILURE() << "timer not in snapshot: " << name;
  return {};
}


TEST(ObsRegistry, SumCounterAccumulatesOnCallingThread) {
  obs::ResetAll();
  static obs::Counter counter("test.sum_serial");
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(FindCounter(obs::TakeSnapshot(), "test.sum_serial").value, 42u);
}

TEST(ObsRegistry, ShardMergeIsDeterministicAcrossThreadCounts) {
  // Each index i adds i+1 from whatever worker runs it; the total must be
  // 1 + 2 + ... + 100 = 5050 regardless of the thread count, because the
  // per-thread shards hold plain integer sums merged at thread exit.
  static obs::Counter sum("test.merge_sum");
  static obs::Counter high_water("test.merge_max", obs::CounterKind::kMax);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    obs::ResetAll();
    ParallelFor(threads, 100, [](std::size_t i) {
      sum.Add(i + 1);
      high_water.Add(i + 1);
    });
    const obs::Snapshot snap = obs::TakeSnapshot();
    EXPECT_EQ(FindCounter(snap, "test.merge_sum").value, 5050u);
    EXPECT_EQ(FindCounter(snap, "test.merge_max").value, 100u);
    EXPECT_EQ(FindCounter(snap, "test.merge_max").kind,
              obs::CounterKind::kMax);
  }
}

TEST(ObsRegistry, TimerCellsMergeAcrossWorkers) {
  static obs::Timer timer("test.merge_timer");
  obs::ResetAll();
  ParallelFor(4, 32, [](std::size_t) { obs::ScopedTimer t(timer); });
  const obs::TimerValue merged = FindTimer(obs::TakeSnapshot(),
                                           "test.merge_timer");
  EXPECT_EQ(merged.count, 32u);
  EXPECT_GE(merged.total_ns, merged.max_ns);
  EXPECT_LE(merged.min_ns, merged.max_ns);
}

TEST(ObsRegistry, InternedButUnusedEntriesAppearWithZeros) {
  static obs::Counter counter("test.never_touched");
  static obs::Timer timer("test.never_timed");
  obs::ResetAll();
  const obs::Snapshot snap = obs::TakeSnapshot();
  EXPECT_EQ(FindCounter(snap, "test.never_touched").value, 0u);
  EXPECT_EQ(FindTimer(snap, "test.never_timed").count, 0u);
}

TEST(ObsRegistry, SnapshotIsSortedByName) {
  obs::ResetAll();
  const obs::Snapshot snap = obs::TakeSnapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  for (std::size_t i = 1; i < snap.timers.size(); ++i)
    EXPECT_LT(snap.timers[i - 1].name, snap.timers[i].name);
}

TEST(ObsRegistry, ResetZeroesTotalsAndDiscardsTrace) {
  static obs::Counter counter("test.reset_me");
  static obs::Timer timer("test.reset_timer");
  obs::ResetAll();
  obs::SetTracing(true);
  counter.Add(7);
  { obs::PhaseScope span(timer, "k", 1); }
  obs::ResetAll();
  obs::SetTracing(false);
  EXPECT_EQ(FindCounter(obs::TakeSnapshot(), "test.reset_me").value, 0u);
  EXPECT_TRUE(obs::DrainTrace().empty());
}

TEST(ObsTrace, PhaseScopeEmitsSpansOnlyWhileTracing) {
  static obs::Timer timer("test.trace_timer");
  obs::ResetAll();
  { obs::PhaseScope untraced(timer); }
  EXPECT_TRUE(obs::DrainTrace().empty()) << "tracing off by default";

  obs::SetTracing(true);
  { obs::PhaseScope traced(timer, "iter", 3); }
  obs::SetTracing(false);
  const std::vector<obs::TraceEvent> events = obs::DrainTrace();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.trace_timer");
  EXPECT_EQ(events[0].arg_key, "iter");
  EXPECT_EQ(events[0].arg_value, 3u);
  EXPECT_TRUE(obs::DrainTrace().empty()) << "drain moves events out";
}

TEST(ObsTrace, WorkersGetTheirOwnLanes) {
  static obs::Timer timer("test.lane_timer");
  obs::ResetAll();
  obs::SetTracing(true);
  // A real pool (not the serial ParallelFor path) so spans come from
  // multiple distinct threads.
  {
    ThreadPool pool(4);
    ParallelFor(pool, 64, [](std::size_t i) {
      obs::PhaseScope span(timer, "i", i);
    });
  }
  obs::SetTracing(false);
  const std::vector<obs::TraceEvent> events = obs::DrainTrace();
  ASSERT_EQ(events.size(), 64u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    // DrainTrace sorts by (tid, ts) so each lane reads chronologically.
    const bool ordered =
        events[i - 1].tid < events[i].tid ||
        (events[i - 1].tid == events[i].tid &&
         events[i - 1].ts_ns <= events[i].ts_ns);
    EXPECT_TRUE(ordered) << "event " << i;
  }
}

obs::HistogramValue FindHistogram(const obs::Snapshot& snap,
                                  const std::string& name) {
  for (const obs::HistogramValue& h : snap.histograms)
    if (h.name == name) return h;
  ADD_FAILURE() << "histogram not in snapshot: " << name;
  return {};
}

TEST(ObsHistogram, BucketsByBitWidthWithSummaryStats) {
  static obs::Histogram histogram("test.hist_buckets");
  obs::ResetAll();
  histogram.Record(0);   // bucket 0
  histogram.Record(1);   // bucket 1: [1, 2)
  histogram.Record(2);   // bucket 2: [2, 4)
  histogram.Record(3);   // bucket 2
  histogram.Record(16);  // bucket 5: [16, 32)
  const obs::HistogramValue h =
      FindHistogram(obs::TakeSnapshot(), "test.hist_buckets");
  EXPECT_EQ(h.kind, obs::HistogramKind::kValue);
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 22u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 16u);
  ASSERT_EQ(h.buckets.size(), 6u) << "trailing zero buckets are trimmed";
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 0u);
  EXPECT_EQ(h.buckets[4], 0u);
  EXPECT_EQ(h.buckets[5], 1u);
}

TEST(ObsHistogram, MergesDeterministicallyAcrossThreadCounts) {
  static obs::Histogram histogram("test.hist_merge");
  std::vector<std::uint64_t> reference_buckets;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    obs::ResetAll();
    ParallelFor(threads, 200, [](std::size_t i) { histogram.Record(i); });
    const obs::HistogramValue h =
        FindHistogram(obs::TakeSnapshot(), "test.hist_merge");
    EXPECT_EQ(h.count, 200u);
    EXPECT_EQ(h.sum, 19900u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 199u);
    if (reference_buckets.empty())
      reference_buckets = h.buckets;
    else
      EXPECT_EQ(h.buckets, reference_buckets);
  }
}

TEST(ObsHistogram, ScopedTimerRecordsIntoTimeKind) {
  static obs::Histogram histogram("test.hist_time",
                                  obs::HistogramKind::kTimeNs);
  obs::ResetAll();
  { obs::ScopedHistogramTimer t(histogram); }
  const obs::HistogramValue h =
      FindHistogram(obs::TakeSnapshot(), "test.hist_time");
  EXPECT_EQ(h.kind, obs::HistogramKind::kTimeNs);
  EXPECT_EQ(h.count, 1u);
  EXPECT_GE(h.max, h.min);
}

TEST(ObsEvent, RecordsPayloadInSiteOrderAndDrainsOnce) {
  static obs::Event event("test.event_basic");
  obs::ResetAll();
  event.Record({{"round", 2.0}, {"mass", 1.5}});
  std::vector<obs::EventRecord> journal = obs::DrainEvents();
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal[0].name, "test.event_basic");
  ASSERT_EQ(journal[0].fields.size(), 2u);
  EXPECT_EQ(journal[0].fields[0].first, "round");
  EXPECT_EQ(journal[0].fields[0].second, 2.0);
  EXPECT_EQ(journal[0].fields[1].first, "mass");
  EXPECT_EQ(journal[0].fields[1].second, 1.5);
  EXPECT_TRUE(obs::DrainEvents().empty()) << "drain moves the journal out";
}

TEST(ObsEvent, DrainOrderIsPayloadNotTimestamp) {
  // Record in descending payload order; the drained journal must come back
  // ascending by (name, fields) — a timestamp sort would preserve the
  // recording order instead.
  static obs::Event b_event("test.event_order_b");
  static obs::Event a_event("test.event_order_a");
  obs::ResetAll();
  b_event.Record({{"i", 1.0}});
  a_event.Record({{"i", 9.0}});
  a_event.Record({{"i", 3.0}});
  const std::vector<obs::EventRecord> journal = obs::DrainEvents();
  ASSERT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal[0].name, "test.event_order_a");
  EXPECT_EQ(journal[0].fields[0].second, 3.0);
  EXPECT_EQ(journal[1].name, "test.event_order_a");
  EXPECT_EQ(journal[1].fields[0].second, 9.0);
  EXPECT_EQ(journal[2].name, "test.event_order_b");
}

TEST(ObsEvent, JournalIsDeterministicAcrossThreadCounts) {
  static obs::Event event("test.event_merge");
  std::vector<std::vector<std::pair<std::string, double>>> reference;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    obs::ResetAll();
    ParallelFor(threads, 50, [](std::size_t i) {
      event.Record({{"i", static_cast<double>(i)},
                    {"sq", static_cast<double>(i * i)}});
    });
    const std::vector<obs::EventRecord> journal = obs::DrainEvents();
    ASSERT_EQ(journal.size(), 50u);
    std::vector<std::vector<std::pair<std::string, double>>> payloads;
    for (const obs::EventRecord& record : journal)
      payloads.push_back(record.fields);
    if (reference.empty())
      reference = payloads;
    else
      EXPECT_EQ(payloads, reference);
  }
}

TEST(ObsEvent, ExcessFieldsAreDroppedAtTheCap) {
  static obs::Event event("test.event_cap");
  obs::ResetAll();
  event.Record({{"f0", 0.0},
                {"f1", 1.0},
                {"f2", 2.0},
                {"f3", 3.0},
                {"f4", 4.0},
                {"f5", 5.0},
                {"f6", 6.0},
                {"f7", 7.0},
                {"f8", 8.0}});
  const std::vector<obs::EventRecord> journal = obs::DrainEvents();
  ASSERT_EQ(journal.size(), 1u);
  ASSERT_EQ(journal[0].fields.size(), obs::kMaxEventFields);
  EXPECT_EQ(journal[0].fields.back().first, "f7");
}

TEST(ObsEvent, ResetDiscardsBufferedRecords) {
  static obs::Event event("test.event_reset");
  obs::ResetAll();
  event.Record({{"i", 1.0}});
  obs::ResetAll();
  EXPECT_TRUE(obs::DrainEvents().empty());
}

// A run scope owns every record made under it, on its own thread and in
// the ParallelFor tasks that thread forks; records outside any scope still
// reach the process journal, and an undrained scope drops its records.
TEST(RunScope, KeepsItsRunsRecordsAcrossParallelFor) {
  static obs::Event event("test.event_scoped");
  obs::ResetAll();
  std::vector<obs::EventRecord> scoped;
  {
    obs::RunScope scope;
    ThreadPool pool(3);
    ParallelFor(pool, 6, [](std::size_t i) {
      event.Record({{"i", static_cast<double>(i)}});
    });
    event.Record({{"i", 6.0}});
    scoped = obs::DrainEvents();
    {
      obs::RunScope nested;  // shadows the outer scope, then restores it
      event.Record({{"i", 9.0}});
    }
    event.Record({{"i", 7.0}});
    const std::vector<obs::EventRecord> rest = obs::DrainEvents();
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].fields[0].second, 7.0);
    event.Record({{"i", 10.0}});  // undrained: dropped with the scope
  }
  event.Record({{"i", 8.0}});
  ASSERT_EQ(scoped.size(), 7u);
  for (std::size_t i = 0; i < scoped.size(); ++i) {
    EXPECT_EQ(scoped[i].name, "test.event_scoped");
    EXPECT_EQ(scoped[i].fields[0].second, static_cast<double>(i));
  }
  const std::vector<obs::EventRecord> global = obs::DrainEvents();
  ASSERT_EQ(global.size(), 1u);
  EXPECT_EQ(global[0].fields[0].second, 8.0);
}

// Two runs, one after the other, fork onto the same persistent pool, as a
// daemon's requests do. Each run's snapshot holds only its own totals, and
// holds them as soon as ParallelFor returns, though the workers that made
// them are still alive. Ended runs fold into the enclosing scope.
TEST(RunScope, SequentialScopesOnOnePoolSnapshotOnlyTheirOwnTotals) {
  static obs::Counter sum("test.scope_sum");
  static obs::Counter high_water("test.scope_max", obs::CounterKind::kMax);
  static obs::Histogram histogram("test.scope_hist");
  obs::ResetAll();
  ThreadPool pool(3);
  const auto run = [&pool](std::size_t tasks, std::uint64_t each) {
    obs::RunScope scope;
    ParallelFor(pool, tasks, [each](std::size_t i) {
      sum.Add(each);
      high_water.Add(each * (i + 1));
      histogram.Record(each);
    });
    return obs::TakeSnapshot();
  };
  const obs::Snapshot first = run(8, 1);
  EXPECT_EQ(FindCounter(first, "test.scope_sum").value, 8u);
  EXPECT_EQ(FindCounter(first, "test.scope_max").value, 8u);
  EXPECT_EQ(FindHistogram(first, "test.scope_hist").count, 8u);
  const obs::Snapshot second = run(5, 10);
  EXPECT_EQ(FindCounter(second, "test.scope_sum").value, 50u);
  EXPECT_EQ(FindCounter(second, "test.scope_max").value, 50u);
  EXPECT_EQ(FindHistogram(second, "test.scope_hist").count, 5u);
  EXPECT_EQ(FindHistogram(second, "test.scope_hist").sum, 50u);

  const obs::Snapshot process = obs::TakeSnapshot();
  EXPECT_EQ(FindCounter(process, "test.scope_sum").value, 58u);
  EXPECT_EQ(FindCounter(process, "test.scope_max").value, 50u);
  EXPECT_EQ(FindHistogram(process, "test.scope_hist").count, 13u);
}

TEST(ObsLanes, NamesSurviveResetAndIndexByTid) {
  obs::ResetAll();
  obs::NameThisThread("main");
  obs::ResetAll();  // lane names describe live threads, not run totals
  const std::vector<std::string> names = obs::TakeLaneNames();
  bool found = false;
  for (const std::string& name : names) found |= name == "main";
  EXPECT_TRUE(found) << "NameThisThread must survive ResetAll";
}

TEST(ObsLanes, PoolWorkersAreNamedByIndex) {
  static obs::Timer timer("test.lane_name_timer");
  obs::ResetAll();
  obs::SetTracing(true);
  {
    ThreadPool pool(2);
    ParallelFor(pool, 16, [](std::size_t i) {
      obs::PhaseScope span(timer, "i", i);
    });
  }
  obs::SetTracing(false);
  obs::DrainTrace();
  const std::vector<std::string> names = obs::TakeLaneNames();
  int workers = 0;
  for (const std::string& name : names)
    if (name.rfind("worker-", 0) == 0) ++workers;
  EXPECT_GE(workers, 2) << "ThreadPool must name its workers worker-<i>";
}


TEST(ObsSinks, StatsReportListsEverySection) {
  obs::Snapshot snap;
  snap.counters.push_back({"flow.rounds", obs::CounterKind::kSum, 12});
  snap.counters.push_back({"build.max_depth", obs::CounterKind::kMax, 4});
  snap.timers.push_back({"fm.refine", 3, 4500000, 1000000, 2000000});
  const std::string report = obs::RenderStatsReport(snap);
  EXPECT_NE(report.find("flow.rounds"), std::string::npos);
  EXPECT_NE(report.find("12"), std::string::npos);
  EXPECT_NE(report.find("build.max_depth"), std::string::npos);
  EXPECT_NE(report.find("fm.refine"), std::string::npos);
}

TEST(ObsSinks, ChromeTraceHasMetadataAndCompleteEvents) {
  std::vector<obs::TraceEvent> events;
  events.push_back({"flow.iteration", "iter", 2, 1000, 2500, 0});
  events.push_back({"fm.pass", "", 0, 4000, 1500, 1});
  std::ostringstream out;
  obs::WriteChromeTrace(out, events);
  const std::string json = out.str();
  // Top-level object with the traceEvents array (Chrome/Perfetto format).
  EXPECT_EQ(json.find('{'), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // One thread_name metadata record per lane.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("htp-thread-0"), std::string::npos);
  EXPECT_NE(json.find("htp-thread-1"), std::string::npos);
  // Complete ("X") events carry name/ts/dur (microseconds) and the arg.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flow.iteration\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"iter\":2}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fm.pass\""), std::string::npos);
  // Events without an argument must not emit an args object.
  EXPECT_EQ(json.find("\"args\":{}"), std::string::npos);
}

TEST(ObsSinks, ChromeTraceOfNothingIsStillValidJson) {
  std::ostringstream out;
  obs::WriteChromeTrace(out, {});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find(']'), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

}  // namespace
}  // namespace htp
