#include "netlist/hmetis_io.hpp"

#include <gtest/gtest.h>

#include "netlist/generators.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

TEST(HmetisIo, ParsesUnweighted) {
  Hypergraph hg = ParseHmetis(R"(% a comment
4 7
1 2
1 7 5 6
5 6 4
2 3 4
)");
  EXPECT_EQ(hg.num_nodes(), 7u);
  EXPECT_EQ(hg.num_nets(), 4u);
  EXPECT_EQ(hg.net_degree(1), 4u);
  EXPECT_TRUE(hg.unit_sizes());
  // Pins are converted to 0-based ids.
  const auto pins = hg.pins(0);
  EXPECT_EQ(pins[0], 0u);
  EXPECT_EQ(pins[1], 1u);
}

TEST(HmetisIo, ParsesWeights) {
  Hypergraph hg = ParseHmetis(R"(3 4 11
2 1 2
5 3 4
1 2 3
10
20
30
40
)");
  EXPECT_DOUBLE_EQ(hg.net_capacity(0), 2.0);
  EXPECT_DOUBLE_EQ(hg.net_capacity(1), 5.0);
  EXPECT_DOUBLE_EQ(hg.node_size(2), 30.0);
  EXPECT_DOUBLE_EQ(hg.total_size(), 100.0);
}

TEST(HmetisIo, AcceptsLeadingPlus) {
  // An explicit '+' reads as it always has, on counts, pins and weights.
  Hypergraph hg = ParseHmetis("+1 +3 +11\n+2.5 +1 +3\n+1\n2\n+0.5\n");
  EXPECT_EQ(hg.num_nets(), 1u);
  EXPECT_EQ(hg.pins(0)[1], 2u);
  EXPECT_DOUBLE_EQ(hg.net_capacity(0), 2.5);
  EXPECT_DOUBLE_EQ(hg.node_size(2), 0.5);
  EXPECT_THROW(ParseHmetis("1 3\n1 +-2\n"), Error);
}

TEST(HmetisIo, DropsDegenerateNets) {
  Hypergraph hg = ParseHmetis("2 3\n1 1 1\n2 3\n");
  EXPECT_EQ(hg.num_nets(), 1u);  // the self-net collapses and is dropped
}

TEST(HmetisIo, RejectsMalformedInput) {
  EXPECT_THROW(ParseHmetis(""), Error);
  EXPECT_THROW(ParseHmetis("x y\n"), Error);
  EXPECT_THROW(ParseHmetis("1 2 7\n1 2\n"), Error);      // bad fmt
  EXPECT_THROW(ParseHmetis("2 3\n1 2\n"), Error);        // missing net line
  EXPECT_THROW(ParseHmetis("1 3\n1 4\n"), Error);        // pin out of range
  EXPECT_THROW(ParseHmetis("1 3\n1 2\n1 2\n"), Error);   // trailing content
  EXPECT_THROW(ParseHmetis("1 3 1\n0 1 2\n"), Error);    // nonpositive weight
  EXPECT_THROW(ParseHmetis("1 2\n1 junk\n"), Error);     // junk on net line
}

TEST(HmetisIo, ErrorsMentionLineNumbers) {
  try {
    ParseHmetis("2 3\n1 2\n1 9\n");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(HmetisIo, RoundTripsRandomHypergraphs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Hypergraph hg = testutil::RandomConnectedHypergraph(30, 25, 5, seed);
    Hypergraph back = ParseHmetis(WriteHmetis(hg));
    ASSERT_EQ(back.num_nodes(), hg.num_nodes());
    ASSERT_EQ(back.num_nets(), hg.num_nets());
    ASSERT_EQ(back.num_pins(), hg.num_pins());
    for (NetId e = 0; e < hg.num_nets(); ++e) {
      const auto a = hg.pins(e);
      const auto b = back.pins(e);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
      EXPECT_DOUBLE_EQ(back.net_capacity(e), hg.net_capacity(e));
    }
  }
}

TEST(HmetisIo, RoundTripsWeights) {
  HypergraphBuilder builder;
  builder.add_node(2.0);
  builder.add_node(3.5);
  builder.add_node(1.0);
  builder.add_net({0u, 1u}, 4.0);
  builder.add_net({1u, 2u}, 0.25);
  Hypergraph hg = builder.build();
  Hypergraph back = ParseHmetis(WriteHmetis(hg));
  EXPECT_DOUBLE_EQ(back.node_size(1), 3.5);
  EXPECT_DOUBLE_EQ(back.net_capacity(1), 0.25);
}

TEST(HmetisIo, WriterPicksSmallestFormat) {
  Hypergraph plain = testutil::RandomConnectedHypergraph(6, 3, 3, 2);
  const std::string text = WriteHmetis(plain);
  // Header must not announce weights for an unweighted hypergraph: exactly
  // two tokens (nets, nodes), no fmt column.
  const std::size_t header_start = text.find('\n') + 1;
  const std::size_t header_end = text.find('\n', header_start);
  std::istringstream header(
      text.substr(header_start, header_end - header_start));
  std::string token;
  std::size_t tokens = 0;
  while (header >> token) ++tokens;
  EXPECT_EQ(tokens, 2u);
}

TEST(HmetisIo, FileHelpers) {
  Hypergraph hg = MakeIscas85Like("c1355");
  const std::string path = ::testing::TempDir() + "/htp_roundtrip.hgr";
  WriteHmetisFile(hg, path);
  Hypergraph back = ParseHmetisFile(path);
  EXPECT_EQ(back.num_nodes(), hg.num_nodes());
  EXPECT_EQ(back.num_pins(), hg.num_pins());
  std::remove(path.c_str());
  EXPECT_THROW(ParseHmetisFile("/nonexistent.hgr"), Error);
}

}  // namespace
}  // namespace htp
