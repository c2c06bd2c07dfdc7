// Malformed-input hardening for the ECO text front-ends (netlist_delta,
// warm_start), mirroring tests/netlist/malformed_input_test.cpp: hostile or
// truncated input must raise DeltaError/WarmStartError — never crash, never
// invoke UB (the suite also runs under the asan-ubsan preset).
#include <gtest/gtest.h>

#include <string>

#include "incremental/netlist_delta.hpp"
#include "incremental/warm_start.hpp"
#include "netlist/rng.hpp"

namespace htp {
namespace {

Hypergraph SmallBase() {
  HypergraphBuilder builder;
  for (int i = 0; i < 4; ++i) builder.add_node(1.0);
  builder.add_net({0u, 1u});
  builder.add_net({1u, 2u, 3u});
  return builder.build();
}

// ---- delta text -----------------------------------------------------------

TEST(MalformedDelta, HeaderRequired) {
  EXPECT_THROW(ParseDeltaText(""), DeltaError);
  EXPECT_THROW(ParseDeltaText("remove-net 0\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v2\n"), DeltaError);
  // Comments and blank lines before the header are fine; a directive is not.
  EXPECT_NO_THROW(ParseDeltaText("# comment first\nhtp-delta v1\n"));
}

TEST(MalformedDelta, TruncatedLines) {
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nadd-node\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nremove-node\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nset-node-size 1\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nadd-net 1.0\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nadd-net 1.0 3\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nset-net-capacity 0\n"),
               DeltaError);
}

TEST(MalformedDelta, UnknownDirectivesAndExtraTokens) {
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nfrobnicate 3\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nremove-net 0 0\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nadd-node 1.0 2.0\n"),
               DeltaError);
}

TEST(MalformedDelta, UnparsableAndNonPositiveNumbers) {
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nadd-node zero\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nadd-node 0\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nadd-node -1\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nadd-node inf\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nadd-node nan\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nremove-net -1\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nremove-net 1x\n"), DeltaError);
  EXPECT_THROW(ParseDeltaText("htp-delta v1\nset-net-capacity 0 0\n"),
               DeltaError);
}

TEST(MalformedDelta, AddedNetNeedsTwoDistinctPins) {
  // The parser keeps the pin list verbatim; distinctness is an application
  // property (duplicate pins may still merge through resolve()).
  const Hypergraph base = SmallBase();
  EXPECT_THROW(
      ApplyDelta(base, ParseDeltaText("htp-delta v1\nadd-net 1.0 2 2\n")),
      DeltaError);
}

TEST(MalformedDelta, ApplicationRejectsUnknownIds) {
  const Hypergraph base = SmallBase();
  const auto apply = [&](const std::string& text) {
    return ApplyDelta(base, ParseDeltaText(text));
  };
  EXPECT_THROW(apply("htp-delta v1\nremove-node 4\n"), DeltaError);
  EXPECT_THROW(apply("htp-delta v1\nremove-net 2\n"), DeltaError);
  EXPECT_THROW(apply("htp-delta v1\nset-node-size 9 1.0\n"), DeltaError);
  EXPECT_THROW(apply("htp-delta v1\nset-net-capacity 5 1.0\n"), DeltaError);
  // Pin references a node id beyond base + added.
  EXPECT_THROW(apply("htp-delta v1\nadd-net 1.0 0 9\n"), DeltaError);
}

TEST(MalformedDelta, ApplicationRejectsDuplicateRemoves) {
  const Hypergraph base = SmallBase();
  const auto apply = [&](const std::string& text) {
    return ApplyDelta(base, ParseDeltaText(text));
  };
  EXPECT_THROW(apply("htp-delta v1\nremove-node 1\nremove-node 1\n"),
               DeltaError);
  EXPECT_THROW(apply("htp-delta v1\nremove-net 0\nremove-net 0\n"),
               DeltaError);
}

TEST(MalformedDelta, ApplicationRejectsDeleteThenReference) {
  const Hypergraph base = SmallBase();
  const auto apply = [&](const std::string& text) {
    return ApplyDelta(base, ParseDeltaText(text));
  };
  // Resize/recap/connect something this same delta deletes.
  EXPECT_THROW(apply("htp-delta v1\nremove-node 1\nset-node-size 1 2.0\n"),
               DeltaError);
  EXPECT_THROW(apply("htp-delta v1\nremove-net 0\nset-net-capacity 0 2.0\n"),
               DeltaError);
  EXPECT_THROW(apply("htp-delta v1\nremove-node 0\nadd-net 1.0 0 2\n"),
               DeltaError);
}

TEST(MalformedDelta, ApplicationRejectsRemovingEveryNode) {
  const Hypergraph base = SmallBase();
  EXPECT_THROW(
      ApplyDelta(base, ParseDeltaText("htp-delta v1\nremove-node 0\n"
                                      "remove-node 1\nremove-node 2\n"
                                      "remove-node 3\n")),
      DeltaError);
}

TEST(MalformedDelta, EveryTruncationThrowsOrParses) {
  const std::string text =
      "htp-delta v1\n"
      "add-node 2.0\n"
      "remove-node 3\n"
      "set-node-size 1 0.5\n"
      "add-net 1.5 0 4\n"
      "remove-net 1\n"
      "set-net-capacity 0 2.0\n";
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    try {
      ParseDeltaText(text.substr(0, cut));
    } catch (const DeltaError&) {
      // expected for most cuts
    }
  }
}

TEST(MalformedDelta, RandomByteMutationsNeverCrash) {
  const std::string original =
      "htp-delta v1\n"
      "add-node 2.0\n"
      "add-net 1.5 0 4\n"
      "remove-net 1\n";
  const Hypergraph base = SmallBase();
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = original;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < flips; ++i)
      text[rng.next_below(text.size())] =
          static_cast<char>(rng.next_below(256));
    try {
      ApplyDelta(base, ParseDeltaText(text));
    } catch (const DeltaError&) {
    }
  }
}

TEST(MalformedDelta, MissingFileThrows) {
  EXPECT_THROW(ReadDeltaFile("/nonexistent/path/x.delta"), DeltaError);
}

// ---- warm-start text ------------------------------------------------------

TEST(MalformedWarmStart, HeaderAndStructure) {
  EXPECT_THROW(ParseWarmStartText(""), WarmStartError);
  EXPECT_THROW(ParseWarmStartText("htp-warm-start v2\n"), WarmStartError);
  EXPECT_THROW(ParseWarmStartText("htp-warm-start v1\n"), WarmStartError);
  EXPECT_THROW(ParseWarmStartText("htp-warm-start v1\nnetlist 2 1\n"),
               WarmStartError);
  EXPECT_THROW(
      ParseWarmStartText("htp-warm-start v1\nnetlist 2 1 2\nseed 1\n"
                         "metric 2\n0.5\n"),  // count != nets
      WarmStartError);
}

TEST(MalformedWarmStart, TruncationSweepNeverCrashes) {
  const std::string text =
      "htp-warm-start v1\n"
      "netlist 2 1 2\n"
      "seed 7\n"
      "metric 1\n"
      "0x1.8p+1\n"
      "partition 2\n"
      "htp-partition v1\n"
      "netlist 2 1 2\n";
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    try {
      ParseWarmStartText(text.substr(0, cut));
    } catch (const WarmStartError&) {
    }
  }
}

TEST(MalformedWarmStart, BadMetricValuesAndTrailingContent) {
  const auto doc = [](const std::string& value) {
    return "htp-warm-start v1\nnetlist 2 1 2\nseed 1\nmetric 1\n" + value +
           "\npartition 1\nhtp-partition v1\n";
  };
  EXPECT_THROW(ParseWarmStartText(doc("wat")), WarmStartError);
  EXPECT_THROW(ParseWarmStartText(doc("-0.5")), WarmStartError);
  EXPECT_THROW(ParseWarmStartText(doc("inf")), WarmStartError);
  EXPECT_THROW(ParseWarmStartText(doc("0.5 0.5")), WarmStartError);
  EXPECT_NO_THROW(ParseWarmStartText(doc("0.5")));
  EXPECT_THROW(ParseWarmStartText(doc("0.5") + "trailing\n"), WarmStartError);
}

TEST(MalformedWarmStart, HostileCountsAndOutOfRangeIntegers) {
  // A declared count must never drive an allocation past the input: both
  // headers below used to escape as std::length_error / std::bad_alloc.
  for (const std::string count : {"18446744073709551615", "1000000000000000"})
    EXPECT_THROW(ParseWarmStartText("htp-warm-start v1\nnetlist 1 " + count +
                                    " 1\nseed 1\nmetric " + count + "\n"),
                 WarmStartError)
        << count;
  EXPECT_THROW(ParseWarmStartText("htp-warm-start v1\nnetlist 2 1 2\n"
                                  "seed 1\nmetric 1\n0.5\n"
                                  "partition 1000000000000000\n"),
               WarmStartError);
  // Integers past 2^64 - 1 are rejected, not saturated.
  EXPECT_THROW(ParseWarmStartText("htp-warm-start v1\nnetlist 2 1 2\n"
                                  "seed 99999999999999999999999\nmetric 1\n"
                                  "0.5\npartition 1\nhtp-partition v1\n"),
               WarmStartError);
  EXPECT_EQ(ParseWarmStartText("htp-warm-start v1\nnetlist 2 1 2\n"
                               "seed 18446744073709551615\nmetric 1\n0.5\n"
                               "partition 1\nhtp-partition v1\n")
                .seed,
            18446744073709551615ull);
}

TEST(MalformedWarmStart, FingerprintMismatchRejected) {
  const Hypergraph base = SmallBase();
  const WarmStartState state = ParseWarmStartText(
      "htp-warm-start v1\nnetlist 2 1 2\nseed 1\nmetric 1\n0.5\n"
      "partition 1\nhtp-partition v1\n");
  EXPECT_THROW(CheckWarmStartMatches(state, base), WarmStartError);
}

TEST(MalformedWarmStart, MissingFileThrows) {
  EXPECT_THROW(ReadWarmStartFile("/nonexistent/path/x.warm"), WarmStartError);
}

}  // namespace
}  // namespace htp
