// Unit tests for the shared JSON emission layer (obs/json.hpp): EscapeJson
// against hostile names, JsonWriter number/comma handling, and the
// guarantee that every sink stays valid JSON no matter what strings the
// caller feeds it. The emitters operate on plain data.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/sinks.hpp"

namespace htp {
namespace {

TEST(EscapeJson, PassesPlainStringsThrough) {
  EXPECT_EQ(obs::EscapeJson("flow.compute_metric"), "flow.compute_metric");
  EXPECT_EQ(obs::EscapeJson(""), "");
}

TEST(EscapeJson, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::EscapeJson("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(obs::EscapeJson(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(obs::EscapeJson(std::string("\x00", 1)), "\\u0000");
}

TEST(EscapeJson, LeavesMultibyteUtf8Alone) {
  // Escaping must not mangle non-ASCII bytes (circuit names could carry
  // them); JSON allows raw UTF-8 in strings.
  EXPECT_EQ(obs::EscapeJson("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriter, EmitsNestedContainersWithAutomaticCommas) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("c1355");
  w.Key("list");
  w.BeginArray();
  w.Number(1);
  w.Number(2);
  w.BeginObject();
  w.Key("k");
  w.Bool(true);
  w.EndObject();
  w.EndArray();
  w.Key("nothing");
  w.Null();
  w.EndObject();
  EXPECT_EQ(std::move(w).Take(),
            "{\"name\":\"c1355\",\"list\":[1,2,{\"k\":true}],"
            "\"nothing\":null}");
}

TEST(JsonWriter, IntegralDoublesPrintAsIntegers) {
  obs::JsonWriter w;
  w.BeginArray();
  w.Number(0.0);
  w.Number(-3.0);
  w.Number(42.0);
  w.Number(9007199254740992.0);  // 2^53: too wide for exact-int printing
  w.EndArray();
  const std::string json = std::move(w).Take();
  EXPECT_NE(json.find("[0,-3,42,"), std::string::npos);
  EXPECT_EQ(json.find("42.0"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDegradesToNull) {
  obs::JsonWriter w;
  w.BeginArray();
  w.Number(std::numeric_limits<double>::infinity());
  w.Number(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(std::move(w).Take(), "[null,null]");
}

TEST(JsonWriter, FractionalDoublesRoundTrip) {
  obs::JsonWriter w;
  w.BeginArray();
  w.Number(1.5);
  w.Number(0.1);
  w.EndArray();
  const std::string json = std::move(w).Take();
  EXPECT_NE(json.find("1.5"), std::string::npos);
  EXPECT_NE(json.find("0.1"), std::string::npos);
}

TEST(JsonWriter, EscapesKeysAndStringValues) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bad\"key");
  w.String("bad\nvalue");
  w.EndObject();
  EXPECT_EQ(std::move(w).Take(), "{\"bad\\\"key\":\"bad\\nvalue\"}");
}

// Hostile names injected through every sink must come out escaped, never
// as raw structural characters: the RunReport carries every counter, timer
// and histogram name a run records.
TEST(ObsSinksEscaping, RunReportEscapesHostileToolScopeAndNames) {
  obs::Snapshot snap;
  snap.counters.push_back(
      {"evil\"name\\with\njunk", obs::CounterKind::kSum, 7});
  snap.timers.push_back({"timer\"quoted", 1, 10, 10, 10});
  obs::HistogramValue h;
  h.name = "hist\twith\ttabs";
  h.kind = obs::HistogramKind::kValue;
  h.count = 1;
  h.sum = 2;
  h.min = 2;
  h.max = 2;
  h.buckets = {0, 0, 1};
  snap.histograms.push_back(h);
  obs::RunReportBuilder rb("bench\"A");
  rb.MetaString("scope", "scope\\B");
  const std::string json = rb.Render(snap, {});
  EXPECT_NE(json.find("\"bench\\\"A\""), std::string::npos);
  EXPECT_NE(json.find("\"scope\\\\B\""), std::string::npos);
  EXPECT_NE(json.find("evil\\\"name\\\\with\\njunk"), std::string::npos);
  EXPECT_NE(json.find("timer\\\"quoted"), std::string::npos);
  EXPECT_NE(json.find("hist\\twith\\ttabs"), std::string::npos);
  // No raw control character survives into the document.
  EXPECT_EQ(json.find_first_of("\n\t"), std::string::npos);
}

TEST(ObsSinksEscaping, ChromeTraceEscapesSpanNamesArgKeysAndLaneNames) {
  std::vector<obs::TraceEvent> events;
  events.push_back({"span\"quoted", "arg\"key", 1, 1000, 500, 0});
  std::ostringstream out;
  obs::WriteChromeTrace(out, events, {"lane\"zero"});
  const std::string json = out.str();
  EXPECT_NE(json.find("span\\\"quoted"), std::string::npos);
  EXPECT_NE(json.find("arg\\\"key"), std::string::npos);
  EXPECT_NE(json.find("lane\\\"zero"), std::string::npos);
  EXPECT_EQ(json.find("span\"quoted"), std::string::npos);
}

TEST(ObsSinksEscaping, ChromeTraceNamesLanesFromTheProvidedTable) {
  std::vector<obs::TraceEvent> events;
  events.push_back({"a", "", 0, 0, 1, 0});
  events.push_back({"b", "", 0, 0, 1, 1});
  events.push_back({"c", "", 0, 0, 1, 5});
  std::ostringstream out;
  obs::WriteChromeTrace(out, events, {"main", "worker-0"});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker-0\""), std::string::npos);
  // Lanes beyond the name table keep the tid fallback.
  EXPECT_NE(json.find("\"name\":\"htp-thread-5\""), std::string::npos);
}

}  // namespace
}  // namespace htp
