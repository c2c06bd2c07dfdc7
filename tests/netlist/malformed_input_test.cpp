// Malformed-input hardening for the two text front-ends (bench_parser,
// hmetis_io): hostile or truncated input must raise htp::Error — never
// crash, never allocate unboundedly, never invoke UB. The whole suite also
// runs under the asan-ubsan preset, which is what turns "never UB" from a
// comment into a checked property.
#include <gtest/gtest.h>

#include <string>

#include "netlist/bench_parser.hpp"
#include "netlist/hmetis_io.hpp"
#include "netlist/rng.hpp"

namespace htp {
namespace {

// ---- bench ----------------------------------------------------------------

TEST(MalformedBench, TruncatedGateLines) {
  EXPECT_THROW(ParseBench("INPUT(a)\nx = NAND(a"), Error);      // no ')'
  EXPECT_THROW(ParseBench("INPUT(a)\nx = NAND(a,)"), Error);    // empty arg
  EXPECT_THROW(ParseBench("INPUT(a)\nx = NAND(,a)"), Error);    // empty arg
  EXPECT_THROW(ParseBench("INPUT(a)\nx = NAND()"), Error);      // no inputs
  EXPECT_THROW(ParseBench("INPUT(a)\nx ="), Error);             // no rhs
  EXPECT_THROW(ParseBench("INPUT(a)\n= NAND(a)"), Error);       // no output
  EXPECT_THROW(ParseBench("INPUT(a"), Error);                   // no ')'
  EXPECT_THROW(ParseBench("INPUT()"), Error);                   // empty name
  EXPECT_THROW(ParseBench("OUTPUT)a("), Error);                 // ')' first
}

TEST(MalformedBench, DuplicateGateNames) {
  EXPECT_THROW(ParseBench("INPUT(a)\nx = BUF(a)\nx = NOT(a)\n"), Error);
  EXPECT_THROW(ParseBench("INPUT(a)\nINPUT(a)\n"), Error);
  EXPECT_THROW(ParseBench("INPUT(a)\na = BUF(a)\n"), Error);  // PI redefined
}

TEST(MalformedBench, UndefinedAndUnknownDirectives) {
  EXPECT_THROW(ParseBench("x = AND(ghost, ghost2)\n"), Error);
  EXPECT_THROW(ParseBench("INPUT(a)\nOUTPUT(missing)\n"), Error);
  EXPECT_THROW(ParseBench("WIBBLE(a)\n"), Error);
}

TEST(MalformedBench, EveryTruncationOfC17ThrowsOrParses) {
  // Chopping a valid file at every byte exercises each parser state with an
  // unexpected EOF. Any outcome is fine except a crash or non-Error throw.
  const std::string text{C17BenchText()};
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    try {
      ParseBench(std::string_view(text).substr(0, cut));
    } catch (const Error&) {
      // expected for most cuts
    }
  }
}

TEST(MalformedBench, RandomByteMutationsNeverCrash) {
  const std::string original{C17BenchText()};
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = original;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < flips; ++i)
      text[rng.next_below(text.size())] =
          static_cast<char>(rng.next_below(256));
    try {
      ParseBench(text);
    } catch (const Error&) {
    }
  }
}

// ---- hmetis ---------------------------------------------------------------

TEST(MalformedHmetis, TruncatedAndEmptyNets) {
  EXPECT_THROW(ParseHmetis("2 4\n1 2\n"), Error);        // net line missing
  EXPECT_THROW(ParseHmetis("1 4 1\n2\n"), Error);        // weight, no pins
  EXPECT_THROW(ParseHmetis("1 4 1\n\n"), Error);         // blank = truncated
  EXPECT_THROW(ParseHmetis("1 4 10\n1 2\n3\n"), Error);  // node weights short
}

TEST(MalformedHmetis, OutOfRangePins) {
  EXPECT_THROW(ParseHmetis("1 3\n1 4\n"), Error);   // above num_nodes
  EXPECT_THROW(ParseHmetis("1 3\n0 1\n"), Error);   // hmetis pins are 1-based
  EXPECT_THROW(ParseHmetis("1 3\n-2 1\n"), Error);  // negative
}

TEST(MalformedHmetis, HostileHeaderCountsDoNotAllocate) {
  // A header declaring astronomically more nets/nodes than the input could
  // possibly spell out must be rejected up front, not drive a giant
  // reserve/resize.
  EXPECT_THROW(ParseHmetis("99999999999 2\n1 2\n"), Error);
  EXPECT_THROW(ParseHmetis("1 99999999999\n1 2\n"), Error);
  EXPECT_THROW(ParseHmetis("1152921504606846976 1152921504606846976\n"),
               Error);
}

// Parsing `text` throws htp::Error naming line `line`.
void ExpectErrorAtLine(const std::string& text, int line) {
  try {
    ParseHmetis(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("at line " + std::to_string(line) +
                                         ":"),
              std::string::npos)
        << e.what();
  }
}

// Tokens after `<nets> <nodes> [fmt]` used to be dropped: `2 3 junk` read
// as fmt 0.
TEST(MalformedHmetis, HeaderJunkIsRejected) {
  ExpectErrorAtLine("% c\n2 3 junk\n1 2\n2 3\n", 2);
  ExpectErrorAtLine("2 3 1 7\n1 1 2\n1 2 3\n", 1);
  ExpectErrorAtLine("2 3x\n1 2\n2 3\n", 1);
}

// A node-weight line `2 junk` used to read as size 2.
TEST(MalformedHmetis, NodeWeightJunkIsRejected) {
  ExpectErrorAtLine("1 2 10\n1 2\n2 junk\n1\n", 3);
  ExpectErrorAtLine("1 2 10\n1 2\n1\n2 3\n", 4);
}

// A sign alone or an integer beyond 64 bits used to end a net line
// silently, dropping that pin.
TEST(MalformedHmetis, DanglingPinIsRejected) {
  ExpectErrorAtLine("1 3\n1 2 +\n", 2);
  ExpectErrorAtLine("1 3\n1 2 99999999999999999999\n", 2);
}

TEST(MalformedHmetis, NonFiniteWeightsAreRejected) {
  for (const char* w : {"inf", "nan", "1e400", "-inf", "infinity"}) {
    ExpectErrorAtLine(std::string("1 2 1\n") + w + " 1 2\n", 2);
    ExpectErrorAtLine(std::string("1 2 10\n1 2\n1\n") + w + "\n", 4);
  }
}

TEST(MalformedHmetis, EveryTruncationThrowsOrParses) {
  const std::string text = "% c\n3 4 11\n2 1 2\n5 3 4\n1 2 3\n10\n20\n30\n40\n";
  ASSERT_NO_THROW(ParseHmetis(text));
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    try {
      ParseHmetis(std::string_view(text).substr(0, cut));
    } catch (const Error&) {
    }
  }
}

TEST(MalformedHmetis, RandomByteMutationsNeverCrash) {
  const std::string original = "3 4 11\n2 1 2\n5 3 4\n1 2 3\n1\n2\n3\n4\n";
  Rng rng(1997);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = original;
    const std::size_t flips = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < flips; ++i)
      text[rng.next_below(text.size())] =
          static_cast<char>(rng.next_below(256));
    try {
      ParseHmetis(text);
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace htp
