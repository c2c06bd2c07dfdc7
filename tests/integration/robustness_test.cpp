// Failure-injection and fuzz-ish robustness: malformed external inputs
// (.bench, hMETIS, partition, NDJSON request, htp-delta and htp-warm-start
// text) must raise htp::Error (never crash or silently accept), and
// internal invariants must catch corrupted states.
#include <gtest/gtest.h>

#include "core/partition_io.hpp"
#include "core/paper_examples.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/hmetis_io.hpp"
#include "netlist/rng.hpp"
#include "obs/json.hpp"
#include "server/json_parse.hpp"
#include "server/protocol.hpp"
#include "server/session.hpp"

namespace htp {
namespace {

// Random byte-level mutations of a valid document: parsing must either
// succeed or throw htp::Error — nothing else. The unmutated document must
// parse, so a harness that rejects every input cannot pass.
template <typename ParseFn>
void FuzzMutations(const std::string& valid, ParseFn&& parse,
                   std::uint64_t seed, int mutations) {
  parse(valid);
  Rng rng(seed);
  for (int i = 0; i < mutations; ++i) {
    std::string doc = valid;
    const std::size_t edits = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < edits && !doc.empty(); ++k) {
      const std::size_t pos = rng.next_below(doc.size());
      switch (rng.next_below(3)) {
        case 0:
          doc[pos] = static_cast<char>('0' + rng.next_below(10));
          break;
        case 1:
          doc.erase(pos, 1 + rng.next_below(8));
          break;
        default:
          doc.insert(pos, "9");
          break;
      }
    }
    try {
      parse(doc);
    } catch (const Error&) {
      // expected for most mutations
    }
    // Any other exception type or a crash fails the test by itself.
  }
}

TEST(Robustness, BenchParserSurvivesMutations) {
  const std::string valid(C17BenchText());
  FuzzMutations(valid, [](const std::string& doc) { ParseBench(doc); }, 11,
                400);
}

TEST(Robustness, HmetisParserSurvivesMutations) {
  const std::string valid = WriteHmetis(Figure2Graph());
  FuzzMutations(valid, [](const std::string& doc) { ParseHmetis(doc); }, 12,
                400);
}

TEST(Robustness, PartitionParserSurvivesMutations) {
  Hypergraph hg = Figure2Graph();
  const std::string valid =
      WritePartitionText(Figure2OptimalPartition(hg));
  FuzzMutations(valid,
                [&hg](const std::string& doc) {
                  const TreePartition tp = ReadPartitionText(hg, doc);
                  // If it parses, it must be structurally sound.
                  EXPECT_TRUE(tp.fully_assigned());
                },
                13, 400);
}

// The c17 bench at height 2 with a 3-round metric: small enough that a
// full RunSession per mutation stays cheap.
serve::SessionRequest C17Session() {
  serve::SessionRequest request;
  request.bench_text = std::string(C17BenchText());
  request.height = 2;
  request.iterations = 1;
  request.threads = 1;
  request.budget.max_rounds = 3;
  return request;
}

// A session that returns must return a valid partition. (ValidatePartition
// reports rather than throws, so an invalid result cannot pass as a typed
// error.)
void RunAndValidate(const serve::SessionRequest& request) {
  const serve::SessionResult result = serve::RunSession(request, nullptr);
  ASSERT_TRUE(result.partition.has_value());
  EXPECT_EQ(ValidatePartition(*result.partition, result.spec),
            std::vector<std::string>{});
}

std::string C17WarmState() {
  serve::SessionRequest emit = C17Session();
  emit.emit_warm_state = true;
  return serve::RunSession(emit, nullptr).warm_state;
}

// c17 fills its height-2 root exactly, so the delta edits nets only.
const char kC17Delta[] =
    "htp-delta v1\n"
    "add-net 1 0 5\n"
    "set-net-capacity 1 2\n";

TEST(Robustness, ServeRequestSurvivesMutations) {
  const std::string valid =
      R"({"op":"partition","id":1,"height":2,"iterations":1,)"
      R"("refine":true,"seed":5,"bench_text":")" +
      obs::EscapeJson(C17BenchText()) + R"("})";
  FuzzMutations(valid,
                [](const std::string& line) {
                  serve::ServeRequest request =
                      serve::ParseServeRequest(serve::ParseJson(line));
                  if (request.op != "partition") return;
                  request.session.threads = 1;
                  request.session.metric_threads = 1;
                  request.session.budget.max_rounds = 3;
                  RunAndValidate(request.session);
                },
                14, 300);
}

TEST(Robustness, DeltaSurvivesMutationsUnderWarmStart) {
  serve::SessionRequest request = C17Session();
  request.warm_text = C17WarmState();
  FuzzMutations(kC17Delta,
                [&request](const std::string& delta) {
                  serve::SessionRequest r = request;
                  r.delta_text = delta;
                  RunAndValidate(r);
                },
                15, 300);
}

TEST(Robustness, WarmStartSurvivesMutationsUnderDelta) {
  serve::SessionRequest request = C17Session();
  request.delta_text = kC17Delta;
  FuzzMutations(C17WarmState(),
                [&request](const std::string& warm) {
                  serve::SessionRequest r = request;
                  r.warm_text = warm;
                  RunAndValidate(r);
                },
                16, 300);
}

TEST(Robustness, ValidatorCatchesForeignAssignments) {
  // A partition whose parsed leaf ids point at non-leaf blocks must be
  // rejected at assignment time.
  Hypergraph hg = Figure2Graph();
  TreePartition tp = Figure2OptimalPartition(hg);
  std::string text = WritePartitionText(tp);
  // Redirect one assignment to block 1 (a level-1 block, not a leaf).
  const std::size_t pos = text.find("assign 0 ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("assign 0 3").size(), "assign 0 1");
  EXPECT_THROW(ReadPartitionText(hg, text), Error);
}

TEST(Robustness, ValidatorCatchesDoubleAssignment) {
  Hypergraph hg = Figure2Graph();
  TreePartition tp = Figure2OptimalPartition(hg);
  std::string text = WritePartitionText(tp);
  const std::size_t pos = text.find("assign 1 ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("assign 1").size(), "assign 0");
  EXPECT_THROW(ReadPartitionText(hg, text), Error);
}

}  // namespace
}  // namespace htp
