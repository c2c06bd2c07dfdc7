// Differential test of the from_chars text layer against the iostream
// readers and writers it replaced (reference_text_io.hpp). On generated
// netlists in all four hMETIS fmts, on random partitions, on every
// truncation and on random byte mutations:
//  * the writers produce the same bytes;
//  * the readers both return a result whose written text is byte-equal, or
//    both throw htp::Error naming the same line (partition errors carry the
//    same whole message).
// The only exceptions are the hMETIS tightenings (docs/file-formats.md):
// trailing tokens on the header line or on a node-weight line, and a sign
// alone or an integer beyond 64 bits at the end of a net line, which the
// reference read past.
// IsListedTightening identifies them from the raw line alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/paper_examples.hpp"
#include "core/partition_io.hpp"
#include "netlist/generators.hpp"
#include "netlist/hmetis_io.hpp"
#include "netlist/rng.hpp"
#include "partition/random_partition.hpp"
#include "reference_text_io.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

struct Outcome {
  bool ok = false;
  std::string text;  // the result, written back (when ok)
  std::string what;  // the error message (when not)
  long line = -1;    // the line the error names, or -1
};

long LineOf(const std::string& what) {
  const std::size_t at = what.find("at line ");
  if (at == std::string::npos) return -1;
  return std::strtol(what.c_str() + at + 8, nullptr, 10);
}

template <typename Fn>
Outcome Run(Fn&& fn) {
  Outcome out;
  try {
    out.text = fn();
    out.ok = true;
  } catch (const Error& e) {
    out.what = e.what();
    out.line = LineOf(out.what);
  }
  return out;
}

// The helpers below judge tokens the way the reference reader did, with
// istream extraction, independently of the text layer under test.
std::vector<std::string> Tokens(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string word;
  while (in >> word) tokens.push_back(word);
  return tokens;
}

template <typename Number>
bool Whole(const std::string& token) {
  std::istringstream in(token);
  Number value{};
  return (in >> value) && in.peek() == std::char_traits<char>::eof();
}

// A sign alone, or a signed or unsigned integer beyond 64 bits: the tokens
// whose failed read ran into the end of the line, which the reference took
// for a clean end.
bool DanglingInteger(const std::string& token) {
  const std::size_t i = !token.empty() && (token[0] == '+' || token[0] == '-');
  if (i == token.size()) return i == 1;
  for (std::size_t k = i; k < token.size(); ++k)
    if (token[k] < '0' || token[k] > '9') return false;
  long long value = 0;
  return std::from_chars(token.data() + i, token.data() + token.size(), value)
             .ec == std::errc::result_out_of_range;
}

// True when line `line_no` of an input the reference accepted is one the
// library now rejects on purpose. Lines are classified by their rank among
// the significant (non-blank, non-comment) lines: the header, then the
// nets, then the node weights.
bool IsListedTightening(const std::string& input, long line_no) {
  std::istringstream in(input);
  std::string line;
  long number = 0, rank = -1;
  long long nets = 0;
  while (std::getline(in, line)) {
    ++number;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '%') continue;
    ++rank;
    const auto tokens = Tokens(line);
    if (rank == 0 && !tokens.empty())
      nets = std::atoll(tokens[0].c_str());
    if (number != line_no) continue;
    if (rank == 0)  // header: nets, nodes and an optional integer fmt
      return tokens.size() < 2 || tokens.size() > 3 ||
             !std::all_of(tokens.begin(), tokens.end(), Whole<long long>);
    if (rank <= nets)  // net line: a dangling integer ends it
      return !tokens.empty() && DanglingInteger(tokens.back());
    return tokens.size() != 1 || !Whole<double>(tokens[0]);  // node weight
  }
  return false;
}

// Returns 1 when the input hits a listed tightening, else 0.
std::size_t CheckHmetis(const std::string& input) {
  const Outcome ref = Run([&] {
    return reference::WriteHmetis(reference::ParseHmetis(input));
  });
  const Outcome now = Run([&] { return WriteHmetis(ParseHmetis(input)); });
  if (ref.ok && now.ok) {
    EXPECT_EQ(ref.text, now.text) << "input:\n" << input;
    return 0;
  }
  // A tightened line fails where the reference read on: it accepted the
  // input, or failed on a later line.
  if (!now.ok && (ref.ok || ref.line > now.line) &&
      IsListedTightening(input, now.line))
    return 1;
  EXPECT_EQ(ref.ok, now.ok) << now.what << ref.what << "\ninput:\n" << input;
  EXPECT_EQ(ref.line, now.line)
      << ref.what << " | " << now.what << "\ninput:\n" << input;
  EXPECT_NE(now.line, -1) << now.what;
  return 0;
}

void CheckPartition(const Hypergraph& hg, const std::string& input) {
  const Outcome ref = Run([&] {
    return reference::WritePartitionText(
        reference::ReadPartitionText(hg, input));
  });
  const Outcome now = Run(
      [&] { return WritePartitionText(ReadPartitionText(hg, input)); });
  EXPECT_EQ(ref.ok, now.ok) << ref.what << now.what << "\ninput:\n" << input;
  EXPECT_EQ(ref.text, now.text);
  EXPECT_EQ(ref.what, now.what) << "input:\n" << input;
}

// Every prefix of `valid`, then `count` mutants in each of the two styles
// of the robustness suites: digit/erase/insert-'9' edits, and raw byte
// flips.
std::vector<std::string> Corpus(const std::string& valid, std::uint64_t seed,
                                int count) {
  std::vector<std::string> docs;
  for (std::size_t cut = 0; cut <= valid.size(); ++cut)
    docs.push_back(valid.substr(0, cut));
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
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
    docs.push_back(std::move(doc));
    std::string flipped = valid;
    const std::size_t flips = 1 + rng.next_below(3);
    for (std::size_t k = 0; k < flips; ++k)
      flipped[rng.next_below(flipped.size())] =
          static_cast<char>(rng.next_below(256));
    docs.push_back(std::move(flipped));
  }
  return docs;
}

// The four fmts: unit, fractional net capacities (1), node sizes (10),
// both (11).
std::vector<Hypergraph> FourFmts(const Hypergraph& base, std::uint64_t seed) {
  std::vector<Hypergraph> out;
  out.push_back(base);
  const Hypergraph netw = testutil::WithFractionalCapacities(base, seed);
  out.push_back(netw);
  static constexpr double kSizes[] = {1.0, 2.0, 0.25, 1.5};
  for (const Hypergraph* nets : {&base, &netw}) {
    Rng rng(seed);
    HypergraphBuilder builder;
    for (NodeId v = 0; v < nets->num_nodes(); ++v)
      builder.add_node(kSizes[rng.next_below(4)]);
    for (NetId e = 0; e < nets->num_nets(); ++e)
      builder.add_net(nets->pins(e), nets->net_capacity(e));
    out.push_back(builder.build());
  }
  return out;
}

TEST(TextIoDiff, HmetisWriterAndReaderOnGeneratedCircuits) {
  std::vector<Hypergraph> bases;
  bases.push_back(MakeIscas85Like("c1355"));
  RentCircuitParams rent;
  rent.num_gates = 2000;
  rent.num_primary_inputs = 80;
  bases.push_back(RentCircuit(rent));
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    bases.push_back(testutil::RandomConnectedHypergraph(40, 60, 6, seed));
  std::uint64_t seed = 0;
  for (const Hypergraph& base : bases)
    for (const Hypergraph& hg : FourFmts(base, ++seed)) {
      const std::string text = reference::WriteHmetis(hg);
      ASSERT_EQ(WriteHmetis(hg), text);
      EXPECT_EQ(CheckHmetis(text), 0u);
    }
}

TEST(TextIoDiff, HmetisCorpora) {
  std::vector<std::string> valids = {
      WriteHmetis(Figure2Graph()),
      "% c\n3 4 11\n2 1 2\n5 3 4\n1 2 3\n10\n20\n30\n40\n",
      "3 4 11\n2 1 2\n5 3 4\n1 2 3\n1\n2\n3\n4\n",
      WriteHmetis(FourFmts(testutil::RandomConnectedHypergraph(12, 8, 4, 5),
                           5)[3]),
  };
  std::uint64_t seed = 1997;
  for (const std::string& valid : valids)
    for (const std::string& doc : Corpus(valid, seed++, 400))
      (void)CheckHmetis(doc);
}

TEST(TextIoDiff, HmetisEdgeCases) {
  // Layout, signs and number spellings the two readers must agree on.
  const std::vector<std::string> same = {
      "2 3\r\n1 2\r\n2 3\r\n",             // CRLF
      "  % indented comment\n2 3\n\n1 2\n\t\n2 3\n",
      "2 3\n1\t2\n2 3 \n",
      "1 3\n+1 +2\n",                       // '+' pins
      "+1 +3 +1\n+2 1 2\n",                 // '+' header and weight
      "1 3\n1+2\n",                         // a sign ends a number
      "1 3\n1 2-3\n",
      "1 3\n1 2.5\n",
      "1 3\n1 2x\n",
      "1 3\n0x1 2\n",
      "1 3\n1 2 %c\n",
      "1 3 1\n5. 1 2\n",
      "1 3 1\n.5 1 2\n",
      "1 3 1\n1e0 1 2\n",
      "1 3 1\n1e 1 2\n",
      "1 3 1\n1e-310 1 2\n",                // subnormal: accepted
      "1 3 1\n1e-400 1 2\n",                // underflows to 0: rejected
      "1 3 1\n1e400 1 2\n",                 // overflows: rejected
      "1 3 1\ninf 1 2\n",
      "1 3 1\nnan 1 2\n",
      "1 3 1\n-1 1 2\n",
      "1 3 1\n0x1p3 1 2\n",
      "1 2 10\n1 2\n1e-310\n1\n",
      "1 2 10\n1 2\ninf\n1\n",
      "1 2 10\n1 2\n1e\n1\n",
      "1 2 10\n1 2\n\v\n1\n",
      "1 2\n\v\n",
      "\f\n1 2\n1 2\n",
      "99999999999999999999 2\n1 2\n",
      "1 2 99999999999\n1 2\n",
      "1 3\n1 99999999999999999999 2\n",
      "1 3\n1 1 1\n",                       // one distinct pin: dropped
      std::string("1 3\n1 2\0\n", 9),
  };
  for (const std::string& input : same) EXPECT_EQ(CheckHmetis(input), 0u);
  // The tightenings: each was accepted before and fails now.
  const std::vector<std::string> tightened = {
      "2 3 junk\n1 2\n2 3\n",
      "2 3 1 7\n1 1 2\n1 2 3\n",
      "2 3x\n1 2\n2 3\n",
      "1 2 10\n1 2\n2 junk\n1\n",
      "1 3\n1 2 99999999999999999999\n",
      "1 3\n1 2 +\n",
      "1 3\n1 2 -\n",
  };
  for (const std::string& input : tightened) {
    EXPECT_NO_THROW(reference::ParseHmetis(input)) << input;
    EXPECT_THROW(ParseHmetis(input), Error) << input;
    EXPECT_EQ(CheckHmetis(input), 1u) << input;
  }
}

TEST(TextIoDiff, PartitionWriterAndReaderOnRandomPartitions) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Hypergraph hg =
        testutil::RandomConnectedHypergraph(60 + 10 * seed, 80, 5, seed);
    const HierarchySpec spec =
        testutil::FractionalWeightHierarchy(hg.total_size(), 1 + seed % 4);
    Rng rng(seed);
    const TreePartition tp = RandomPartition(hg, spec, rng);
    const std::string text = reference::WritePartitionText(tp);
    ASSERT_EQ(WritePartitionText(tp), text);
    CheckPartition(hg, text);
    for (const std::string& doc : Corpus(text, seed, 100))
      CheckPartition(hg, doc);
  }
}

// The table stores leaf ids in 1, 2 or 4 bytes; each width, at its block
// count boundaries, writes the reference writer's bytes.
TEST(TextIoDiff, PartitionTableWidthsMatchTheReferenceWriter) {
  const Hypergraph hg = testutil::RandomConnectedHypergraph(20, 10, 4, 1);
  constexpr std::pair<std::size_t, std::size_t> kCases[] = {
      {3, 1}, {256, 1}, {257, 2}, {65536, 2}, {65537, 4}};
  for (const auto& [num_blocks, width] : kCases) {
    SCOPED_TRACE(num_blocks);
    TreePartition tp(hg, 1);
    while (tp.num_blocks() < num_blocks) tp.AddChild(TreePartition::kRoot);
    // Every node in one of the highest-numbered leaves.
    for (NodeId v = 0; v < hg.num_nodes(); ++v)
      tp.AssignNode(v, static_cast<BlockId>(num_blocks - 1 - v % 2));
    const PartitionTable table = TabulatePartition(tp);
    EXPECT_EQ(table.leaf_width, width);
    EXPECT_EQ(WritePartitionText(table), reference::WritePartitionText(tp));
  }
}

TEST(TextIoDiff, PartitionCorpora) {
  const Hypergraph hg = Figure2Graph();
  const std::string valid = WritePartitionText(Figure2OptimalPartition(hg));
  for (const std::string& doc : Corpus(valid, 13, 400)) CheckPartition(hg, doc);
  std::string fingerprintless = valid;
  const std::size_t start = fingerprintless.find("netlist");
  fingerprintless.erase(start, fingerprintless.find('\n', start) - start + 1);
  const std::vector<std::string> edge = {
      "", "\n\n", "htp-partition v1", "htp-partition v1\n",
      "htp-partition v1\r\n", "\nhtp-partition v1\n\nroot_level 2\n",
      "htp-partition v1\n   \nroot_level 2\n",
      "htp-partition v1\nroot_level +2\nblocks 1\n",
      "htp-partition v1\nroot_level 2junk\nblocks 1\nblock 0 2 -1\n",
      "htp-partition v1\nnetlist5 1 2\n", valid + "\n\n", valid + " ",
      fingerprintless,
  };
  for (const std::string& doc : edge) CheckPartition(hg, doc);
  for (const std::string& doc : Corpus(fingerprintless, 14, 200))
    CheckPartition(hg, doc);
}

}  // namespace
}  // namespace htp
