#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "server/json_parse.hpp"

namespace htp::serve {
namespace {

// --- JSON parser ---

TEST(JsonParse, ParsesScalarsContainersAndEscapes) {
  const JsonValue doc = ParseJson(
      R"({"s":"a\"b\u00e9\n","n":-1.5e2,"t":true,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":0}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("s")->string_value, "a\"b\xc3\xa9\n");
  EXPECT_EQ(doc.Find("n")->number_value, -150.0);
  EXPECT_TRUE(doc.Find("t")->bool_value);
  EXPECT_TRUE(doc.Find("z")->is_null());
  EXPECT_EQ(doc.Find("arr")->array_value.size(), 3u);
  EXPECT_EQ(doc.Find("obj")->object_value.size(), 1u);
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(ParseJson(""), Error);
  EXPECT_THROW(ParseJson("{"), Error);
  EXPECT_THROW(ParseJson("{\"a\":1,}"), Error);
  EXPECT_THROW(ParseJson("[1 2]"), Error);
  EXPECT_THROW(ParseJson("01"), Error);       // leading zero
  EXPECT_THROW(ParseJson("\"\\q\""), Error);  // unknown escape
  EXPECT_THROW(ParseJson("{} trailing"), Error);
  EXPECT_THROW(ParseJson("nul"), Error);
}

TEST(JsonParse, RejectsDeepNesting) {
  // One level per recursive call: without a cap these overflow the stack.
  EXPECT_THROW(ParseJson(std::string(100000, '[')), Error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(ParseJson(objects), Error);
  // The cap is 64 levels: 64 parse, 65 do not.
  EXPECT_NO_THROW(ParseJson(std::string(64, '[') + std::string(64, ']')));
  EXPECT_THROW(ParseJson(std::string(65, '[') + std::string(65, ']')), Error);
}

TEST(JsonParse, SurrogatePairsDecodeToUtf8) {
  const JsonValue doc = ParseJson(R"("\ud83d\ude00")");
  EXPECT_EQ(doc.string_value, "\xf0\x9f\x98\x80");  // U+1F600
  EXPECT_THROW(ParseJson(R"("\ud83d")"), Error);  // lone high surrogate
}

// --- Request decoding ---

TEST(Protocol, DecodesPartitionRequestWithDefaults) {
  const ServeRequest request =
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","id":7})"));
  EXPECT_EQ(request.op, "partition");
  EXPECT_EQ(request.id_json, "7");
  EXPECT_EQ(request.session.circuit, "c1355");
  EXPECT_EQ(request.session.algo, "flow");
  EXPECT_EQ(request.session.height, 4u);
  EXPECT_EQ(request.session.iterations, 4u);
  EXPECT_EQ(request.session.seed, 1u);
  EXPECT_EQ(request.deadline_ms, 0.0);
  EXPECT_FALSE(request.want_report);
  EXPECT_EQ(request.session.report_tool, "htp_serve");
}

TEST(Protocol, DecodesExplicitFields) {
  const ServeRequest request = ParseServeRequest(ParseJson(
      R"({"circuit":"c2670","id":"req-1","height":3,"branching":4,)"
      R"("slack":0.2,"weights":[1,4,16],"iterations":2,"seed":9,)"
      R"("deadline_ms":1500,"refine":true,"report":true})"));
  EXPECT_EQ(request.id_json, "\"req-1\"");
  EXPECT_EQ(request.session.height, 3u);
  EXPECT_EQ(request.session.branching, 4u);
  EXPECT_EQ(request.session.weights, (std::vector<double>{1, 4, 16}));
  EXPECT_EQ(request.session.seed, 9u);
  EXPECT_TRUE(request.session.refine);
  EXPECT_EQ(request.deadline_ms, 1500.0);
  EXPECT_EQ(request.session.budget.time_budget_seconds, 1.5);
  EXPECT_TRUE(request.want_report);
  EXPECT_TRUE(request.session.collect_report);
}

TEST(Protocol, RejectsUnknownMembersAndBadTypes) {
  // Strict decoding: a typo must fail loudly, not run with defaults.
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","iteration":9})")),
      Error);
  EXPECT_THROW(ParseServeRequest(ParseJson(R"([1,2])")), Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","height":"x"})")),
      Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","height":2.5})")),
      Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","deadline_ms":-1})")),
      Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","id":[1]})")),
      Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","weights":[true]})")),
      Error);
  // The construction-mode knob, the cache-derived warm route and the
  // sampled separation oracle were removed from the v1 wire format.
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","build_threads":2})")),
      Error);
  EXPECT_THROW(ParseServeRequest(ParseJson(
                   R"({"circuit":"c1355","warm_from_cache":true})")),
               Error);
  EXPECT_THROW(ParseServeRequest(ParseJson(
                   R"({"circuit":"c1355","oracle_sample":0.02})")),
               Error);
  // A daemon request runs serially on its pool worker, so the thread knobs
  // it could never honour are not members either.
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","threads":4})")),
      Error);
  EXPECT_THROW(ParseServeRequest(
                   ParseJson(R"({"circuit":"c1355","metric_threads":2})")),
               Error);
  // Counts past the exact-integer range of a JSON number (2^53), or past
  // the member's own type, are rejected instead of truncated.
  EXPECT_THROW(ParseServeRequest(
                   ParseJson(R"({"circuit":"c1355","height":4294967297})")),
               Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","seed":1e300})")),
      Error);
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"circuit":"c1355","iterations":1e30})")),
      Error);
  EXPECT_THROW(ParseServeRequest(ParseJson(
                   R"({"circuit":"c1355","seed":9007199254740994})")),
               Error);
  // The range ends are still accepted.
  EXPECT_EQ(ParseServeRequest(
                ParseJson(R"({"circuit":"c1355","height":4294967295})"))
                .session.height,
            4294967295u);
  EXPECT_EQ(ParseServeRequest(
                ParseJson(R"({"circuit":"c1355","seed":9007199254740992})"))
                .session.seed,
            std::uint64_t{1} << 53);
}

TEST(Protocol, RejectsBadSourceCombinations) {
  EXPECT_THROW(ParseServeRequest(ParseJson(R"({"seed":1})")), Error);
  EXPECT_THROW(ParseServeRequest(ParseJson(
                   R"x({"circuit":"c1355","bench_text":"INPUT(a)"})x")),
               Error);
  // ...but control ops need no netlist source.
  EXPECT_EQ(ParseServeRequest(ParseJson(R"({"op":"ping"})")).op, "ping");
}

TEST(Protocol, RejectsWrongSchemaOrVersion) {
  EXPECT_THROW(ParseServeRequest(ParseJson(
                   R"({"schema":"htp-run-report","circuit":"c1355"})")),
               Error);
  EXPECT_THROW(ParseServeRequest(ParseJson(
                   R"({"schema_version":2,"circuit":"c1355"})")),
               Error);
  const ServeRequest ok = ParseServeRequest(ParseJson(
      R"({"schema":"htp-serve-request","schema_version":1,)"
      R"("circuit":"c1355"})"));
  EXPECT_EQ(ok.op, "partition");
}

TEST(Protocol, RejectsUnknownOp) {
  EXPECT_THROW(ParseServeRequest(ParseJson(R"({"op":"restart"})")), Error);
}

TEST(Protocol, StatsOpDecodesStrictly) {
  EXPECT_EQ(ParseServeRequest(ParseJson(R"({"op":"stats","id":3})")).op,
            "stats");
  EXPECT_THROW(
      ParseServeRequest(ParseJson(R"({"op":"stats","tier":"metric"})")),
      Error);
  EXPECT_THROW(ParseServeRequest(ParseJson(R"({"op":"Stats"})")), Error);
}

// --- Response rendering ---

TEST(Protocol, AckAndErrorResponsesAreWellFormed) {
  const std::string ack = RenderServeAck("\"a\"", "ping");
  const JsonValue ack_doc = ParseJson(ack);
  EXPECT_EQ(ack_doc.Find("schema")->string_value, "htp-serve-response");
  EXPECT_EQ(ack_doc.Find("schema_version")->number_value, 1.0);
  EXPECT_EQ(ack_doc.Find("id")->string_value, "a");
  EXPECT_EQ(ack_doc.Find("status")->string_value, "ok");
  EXPECT_EQ(ack_doc.Find("op")->string_value, "ping");

  const std::string err = RenderServeError("null", "request: bad \"thing\"");
  const JsonValue err_doc = ParseJson(err);
  EXPECT_TRUE(err_doc.Find("id")->is_null());
  EXPECT_EQ(err_doc.Find("status")->string_value, "error");
  EXPECT_EQ(err_doc.Find("error")->string_value, "request: bad \"thing\"");
}

TEST(Protocol, StatsReplyCarriesEveryTierAndThePool) {
  CacheStats cache;
  cache.netlist = {1, 8, 2, 3, 0};
  cache.response = {4, 256, 5, 6, 3};
  const JsonValue doc =
      ParseJson(RenderServeStats("\"s\"", cache, /*queued=*/13,
                                 /*in_flight=*/2));
  EXPECT_EQ(doc.Find("schema")->string_value, "htp-serve-response");
  EXPECT_EQ(doc.Find("id")->string_value, "s");
  EXPECT_EQ(doc.Find("status")->string_value, "ok");
  EXPECT_EQ(doc.Find("op")->string_value, "stats");
  const JsonValue* tiers = doc.Find("cache");
  ASSERT_NE(tiers, nullptr);
  ASSERT_EQ(tiers->object_value.size(), 2u);
  double expect = 1;
  for (const char* name : {"netlist", "response"}) {
    SCOPED_TRACE(name);
    const JsonValue* tier = tiers->Find(name);
    ASSERT_NE(tier, nullptr);
    EXPECT_EQ(tier->object_value.size(), 5u);
    EXPECT_EQ(tier->Find("entries")->number_value, expect);
    EXPECT_EQ(tier->Find("hits")->number_value, expect + 1);
    EXPECT_EQ(tier->Find("misses")->number_value, expect + 2);
    expect += 3;
  }
  EXPECT_EQ(tiers->Find("netlist")->Find("capacity")->number_value, 8.0);
  EXPECT_EQ(tiers->Find("response")->Find("capacity")->number_value, 256.0);
  EXPECT_EQ(tiers->Find("response")->Find("evictions")->number_value, 3.0);
  const JsonValue* pool = doc.Find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->object_value.size(), 2u);
  EXPECT_EQ(pool->Find("queued")->number_value, 13.0);
  EXPECT_EQ(pool->Find("in_flight")->number_value, 2.0);
}

}  // namespace
}  // namespace htp::serve
