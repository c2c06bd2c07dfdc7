// Property suite for the family-(5) oracle's two certificates. The stop
// rule: ViolationScanner ends a growth once its concave stop certificate
// proves that no later prefix of S(v,k) can violate (docs/algorithms.md,
// "The concave stop certificate"). The ball certificate: a batch scan skips
// every source within a passing growth's ball radius ("Ball
// certificates"). Either may only save work, never change a verdict, so
// both scan forms are compared here against a reference with no early exit
// at all: the library-independent binary-heap walk (testutil::ReferenceGrow)
// grown to exhaustion, reporting the first prefix with wd + tol < g(T).
// Verdicts, k, the exact tree_size/lhs/rhs doubles and the violating tree's
// nets must all agree, and every certified source must pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spreading_metric.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace htp {
namespace {

struct ReferenceVerdict {
  bool violated = false;
  std::size_t tree_nodes = 0;
  double tree_size = 0.0;
  double lhs = 0.0;
  double rhs = 0.0;
  std::vector<NetId> tree_nets;
};

ReferenceVerdict ReferenceCheck(const Hypergraph& hg,
                                const HierarchySpec& spec, NodeId source,
                                const SpreadingMetric& metric,
                                double tolerance) {
  ReferenceVerdict verdict;
  ShortestPathTree tree = testutil::ReferenceGrow(
      hg, source, metric, [&](const GrowState& s) {
        const double rhs = spec.g(s.tree_size);
        if (!verdict.violated && s.weighted_dist + tolerance < rhs)
          verdict = {true, s.tree_nodes, s.tree_size, s.weighted_dist, rhs,
                     {}};
        return GrowAction::kContinue;
      });
  if (verdict.violated) {
    // Parents are final once a node settles, so the violating tree S(v,k)
    // is the first k entries of the exhausted growth.
    tree.order.resize(verdict.tree_nodes);
    verdict.tree_nets = TreeNets(tree);
  }
  return verdict;
}

std::vector<ReferenceVerdict> ReferenceVerdicts(const Hypergraph& hg,
                                               const HierarchySpec& spec,
                                               const SpreadingMetric& metric,
                                               double tolerance) {
  std::vector<ReferenceVerdict> verdicts;
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    verdicts.push_back(ReferenceCheck(hg, spec, v, metric, tolerance));
  return verdicts;
}

// Checks FindViolationFrom from every source, then FindFirstViolation from
// every cursor of a shuffled candidate list, on a serial and a 4-worker
// scanner, against the per-source reference verdicts `expect`.
void ExpectVerdictsMatch(const Hypergraph& hg, const HierarchySpec& spec,
                         const SpreadingMetric& metric, double tolerance,
                         const std::vector<ReferenceVerdict>& expect,
                         std::uint64_t shuffle_seed) {
  const NodeId n = hg.num_nodes();
  ViolationScanner serial(hg, spec, 1);
  for (NodeId v = 0; v < n; ++v) {
    SCOPED_TRACE(testing::Message() << "source " << v);
    const auto got = serial.FindViolationFrom(v, metric, tolerance);
    ASSERT_EQ(got.has_value(), expect[v].violated);
    if (!got) continue;
    EXPECT_EQ(got->source, v);
    EXPECT_EQ(got->tree_nodes, expect[v].tree_nodes);
    EXPECT_EQ(got->tree_size, expect[v].tree_size);  // bitwise
    EXPECT_EQ(got->lhs, expect[v].lhs);
    EXPECT_EQ(got->rhs, expect[v].rhs);
    EXPECT_EQ(TreeNets(got->tree), expect[v].tree_nets);
  }

  std::vector<NodeId> candidates(n);
  for (NodeId v = 0; v < n; ++v) candidates[v] = v;
  Rng rng(shuffle_seed);
  rng.shuffle(candidates);
  ViolationScanner parallel(hg, spec, 4);
  for (ViolationScanner* scanner : {&serial, &parallel}) {
    for (std::size_t begin = 0; begin <= n; ++begin) {
      SCOPED_TRACE(testing::Message() << "workers " << scanner->workers()
                                      << " begin " << begin);
      std::size_t want = begin;
      while (want < n && !expect[candidates[want]].violated) ++want;
      const auto hit =
          scanner->FindFirstViolation(candidates, begin, metric, tolerance);
      ASSERT_EQ(hit.has_value(), want < n);
      if (!hit) continue;
      const ReferenceVerdict& ref = expect[candidates[want]];
      EXPECT_EQ(hit->index, want);
      EXPECT_EQ(hit->source, candidates[want]);
      EXPECT_EQ(hit->tree_nodes, ref.tree_nodes);
      EXPECT_EQ(hit->tree_size, ref.tree_size);
      EXPECT_EQ(hit->lhs, ref.lhs);
      EXPECT_EQ(hit->rhs, ref.rhs);
      EXPECT_TRUE(std::equal(hit->tree_nets.begin(), hit->tree_nets.end(),
                             ref.tree_nets.begin(), ref.tree_nets.end()));
    }
  }
}

// Random instances sweeping what the certificate's proof leans on:
// non-dyadic node sizes (odd seeds), three disconnected components (every
// third seed), a zero-weight level (seed % 4 == 1), and a quarter of the
// nets at length zero. 20..89 nodes, so some instances clear the
// scanner's serial fallback and scan in parallel.
Hypergraph CertificateCircuit(std::uint64_t seed) {
  Rng rng(seed * 7919 + 3);
  const NodeId n = static_cast<NodeId>(20 + rng.next_below(70));
  const bool weighted = seed % 2 == 1;
  const NodeId components = seed % 3 == 0 ? 3 : 1;
  HypergraphBuilder builder;
  for (NodeId v = 0; v < n; ++v)
    builder.add_node(weighted ? 0.25 + 3.0 * rng.next_double() : 1.0);
  // Node v belongs to component v % components; every net stays inside one.
  const auto member = [&](NodeId component, std::uint64_t below) {
    return static_cast<NodeId>(component + components * rng.next_below(below));
  };
  for (NodeId v = components; v < n; ++v)
    builder.add_net({member(v % components, v / components), v});
  for (std::size_t i = 0; i < n / 2; ++i) {
    const NodeId component = static_cast<NodeId>(rng.next_below(components));
    const std::uint64_t size = (n - component + components - 1) / components;
    std::vector<NodeId> pins;
    for (std::size_t k = 2 + rng.next_below(3); k > 0; --k)
      pins.push_back(member(component, size));
    builder.add_net(pins);
  }
  return builder.build();
}

HierarchySpec CertificateSpec(const Hypergraph& hg, std::uint64_t seed) {
  const Level height = 2 + static_cast<Level>(seed % 2);
  std::vector<double> weights(height, 1.0);
  weights[height - 1] = 2.0;
  if (seed % 4 == 1) weights[seed % height] = 0.0;
  return UniformHierarchy(hg.total_size(), height, 2, 0.2, weights);
}

class StopCertificateProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StopCertificateProperty, VerdictsMatchExhaustiveReference) {
  const std::uint64_t seed = GetParam();
  const Hypergraph hg = CertificateCircuit(seed);
  const HierarchySpec spec = CertificateSpec(hg, seed);
  Rng rng(seed * 31 + 17);
  // Short metrics violate from most sources, long ones from none; the
  // scales in between mix both, which is where truncation could go wrong.
  std::size_t violated = 0, satisfied = 0;
  for (double scale : {0.05, 0.5, 5.0}) {
    SCOPED_TRACE(testing::Message() << "scale " << scale);
    SpreadingMetric metric(hg.num_nets());
    for (double& d : metric)
      d = rng.next_bool(0.25) ? 0.0 : scale * rng.next_double();
    const auto expect = ReferenceVerdicts(hg, spec, metric, 1e-7);
    for (const ReferenceVerdict& verdict : expect)
      ++(verdict.violated ? violated : satisfied);
    ExpectVerdictsMatch(hg, spec, metric, 1e-7, expect, seed);
  }
  EXPECT_GT(violated, 0u);
  EXPECT_GT(satisfied, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StopCertificateProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// A star of `leaves` unit-size leaves around node 0, each on its own net
// of length 0.1 (not a dyadic fraction, so sums round). From the centre
// every leaf lies at exactly r, the certificate's own lower bound, and
// with C_0 = 4 and w_0 = 0.1 each settled leaf adds 0.1 to the lhs but
// 0.2 to g: the tightest prefix is the whole star, k = leaves + 1.
struct Star {
  Hypergraph hg;
  HierarchySpec spec;
  SpreadingMetric metric;
};

Star MakeStar(NodeId leaves) {
  HypergraphBuilder builder;
  for (NodeId v = 0; v <= leaves; ++v) builder.add_node();
  for (NodeId v = 1; v <= leaves; ++v) builder.add_net({0u, v});
  Hypergraph hg = builder.build();
  HierarchySpec spec(
      {{4.0, 2, 0.1}, {static_cast<double>(leaves + 1), leaves + 1, 1.0}});
  return {std::move(hg), std::move(spec), SpreadingMetric(leaves, 0.1)};
}

TEST(StopCertificate, ToleranceEdgeMatchesReferenceToTheUlp) {
  for (NodeId leaves : {9u, 30u, 100u}) {
    const Star star = MakeStar(leaves);
    // The lhs the full growth from the centre accumulates, one leaf at a
    // time, exactly as the verdict sees it.
    const ShortestPathTree full =
        testutil::ReferenceDijkstra(star.hg, 0, star.metric);
    double lhs = 0.0;
    for (NodeId u : full.order) lhs += full.dist[u];
    const double g = star.spec.g(star.hg.total_size());
    ASSERT_GT(g, lhs);
    ASSERT_LT(g, 2 * lhs);  // Sterbenz: each target - lhs below is exact
    // lhs + tol lands exactly on g, one ulp below it (violated) and one ulp
    // above it (satisfied).
    const double targets[] = {std::nextafter(g, 0.0), g,
                              std::nextafter(g, 2 * g)};
    for (std::size_t i = 0; i < 3; ++i) {
      const double tolerance = targets[i] - lhs;
      ASSERT_EQ(lhs + tolerance, targets[i]);
      SCOPED_TRACE(testing::Message() << leaves << " leaves, edge offset "
                                      << static_cast<int>(i) - 1 << " ulp");
      const auto expect =
          ReferenceVerdicts(star.hg, star.spec, star.metric, tolerance);
      ASSERT_EQ(expect[0].violated, i == 0);
      EXPECT_EQ(expect[0].tree_nodes, i == 0 ? leaves + 1u : 0u);
      ExpectVerdictsMatch(star.hg, star.spec, star.metric, tolerance, expect,
                          leaves);
    }
  }
}

#if HTP_OBS_ENABLED
std::uint64_t Counter(const std::string& name) {
  for (const obs::CounterValue& c : obs::TakeSnapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}
#endif

TEST(StopCertificate, PathCertifiesAfterThreeSettles) {
  // Hand-worked: the path 0-1-2-3-4-5, unit sizes and lengths, so from
  // node 0 the k-th settled node lies at r = k - 1 and wd = k(k-1)/2.
  // C_0 = 2, w_0 = 1 gives g(x) = 2(x - 2) above 2, and g(s(V)) = 8.
  //   k  T  r  wd  g(T)  wd + r(6 - T)
  //   1  1  0   0   0     0
  //   2  2  1   1   0     5
  //   3  3  2   3   2     9  >= 8: certified, stop
  // No prefix violates (wd >= g(T) for every k, up to wd = 15 vs g = 8 at
  // k = 6). The older exit, wd + tol >= g(s(V)), waited until k = 5.
  HypergraphBuilder builder;
  for (int i = 0; i < 6; ++i) builder.add_node();
  for (NodeId v = 1; v < 6; ++v) builder.add_net({v - 1, v});
  const Hypergraph hg = builder.build();
  const HierarchySpec spec({{2.0, 2, 1.0}, {6.0, 3, 1.0}});
  const SpreadingMetric metric(hg.num_nets(), 1.0);
  ViolationScanner scanner(hg, spec, 1);
#if HTP_OBS_ENABLED
  const std::uint64_t settled_before = Counter("dijkstra.settled");
  const std::uint64_t pops_before = Counter("dijkstra.pops");
#endif
  EXPECT_FALSE(scanner.FindViolationFrom(0, metric).has_value());
#if HTP_OBS_ENABLED
  EXPECT_EQ(Counter("dijkstra.settled") - settled_before, 3u);
  EXPECT_EQ(Counter("dijkstra.pops") - pops_before, 3u);
#endif
  EXPECT_FALSE(ReferenceCheck(hg, spec, 0, metric, 1e-7).violated);
}

// Algorithm 2's loop in miniature, on one serial and several parallel
// scanners in lockstep: shuffled rounds of FindFirstViolation batches, each
// hit re-penalizing its tree's nets (lengths only grow). Every scanner must
// agree with the serial one on the hit, the certified set and the
// committed counter deltas. With `reference`, before every batch each
// certified source must also pass the exhaustive reference at the current
// metric, and the hit must be the reference's first violated candidate
// past the cursor. `totals` receives the batch count and the serial
// scanner's final certified-node count.
struct LockstepTotals {
  std::size_t certified = 0;
  std::size_t batches = 0;
};

void RunLockstep(const Hypergraph& hg, const HierarchySpec& spec,
                 SpreadingMetric metric,
                 const std::vector<std::size_t>& worker_counts,
                 std::uint64_t seed, std::size_t max_rounds, bool reference,
                 bool shuffle, LockstepTotals& totals) {
  const double tolerance = 1e-7;
  const NodeId n = hg.num_nodes();
  std::vector<std::unique_ptr<ViolationScanner>> scanners;
  for (std::size_t workers : worker_counts)
    scanners.push_back(std::make_unique<ViolationScanner>(hg, spec, workers));
  std::vector<NodeId> worklist(n);
  for (NodeId v = 0; v < n; ++v) worklist[v] = v;
  Rng rng(seed);
  for (std::size_t round = 0; round < max_rounds && !worklist.empty();
       ++round) {
    if (shuffle) rng.shuffle(worklist);
    std::vector<NodeId> still_violated;
    std::size_t cursor = 0;
    while (cursor < worklist.size()) {
      SCOPED_TRACE(testing::Message() << "round " << round << " cursor "
                                      << cursor);
      // Lazily memoized reference verdicts at the current metric.
      std::vector<std::optional<ReferenceVerdict>> memo(n);
      auto expect = [&](NodeId v) -> const ReferenceVerdict& {
        if (!memo[v]) memo[v] = ReferenceCheck(hg, spec, v, metric, tolerance);
        return *memo[v];
      };
      std::size_t want = cursor;
      if (reference) {
        for (NodeId v = 0; v < n; ++v) {
          if (scanners[0]->certified(v)) {
            EXPECT_FALSE(expect(v).violated) << "certified source " << v;
          }
        }
        while (want < worklist.size() && !expect(worklist[want]).violated)
          ++want;
      }

      std::optional<ViolationScanner::ScanHit> first;
      std::vector<std::uint64_t> first_counters;
      for (std::size_t s = 0; s < scanners.size(); ++s) {
        SCOPED_TRACE(testing::Message() << "workers " << worker_counts[s]);
#if HTP_OBS_ENABLED
        const std::uint64_t calls = Counter("dijkstra.calls");
        const std::uint64_t pops = Counter("dijkstra.pops");
        const std::uint64_t skips = Counter("flow.ball_skips");
#endif
        auto hit = scanners[s]->FindFirstViolation(worklist, cursor, metric,
                                                   tolerance);
        std::vector<std::uint64_t> counters;
#if HTP_OBS_ENABLED
        counters = {Counter("dijkstra.calls") - calls,
                    Counter("dijkstra.pops") - pops,
                    Counter("flow.ball_skips") - skips};
#endif
        // Without the exhaustive reference, the serial scanner is the
        // reference for the parallel ones.
        if (s == 0 && !reference) want = hit ? hit->index : worklist.size();
        ASSERT_EQ(hit.has_value(), want < worklist.size());
        if (hit) {
          EXPECT_EQ(hit->index, want);
          if (reference) {
            const ReferenceVerdict& ref = expect(worklist[want]);
            EXPECT_EQ(hit->tree_nodes, ref.tree_nodes);
            EXPECT_EQ(hit->tree_size, ref.tree_size);
            EXPECT_EQ(hit->lhs, ref.lhs);
            EXPECT_EQ(hit->rhs, ref.rhs);
            EXPECT_TRUE(std::equal(hit->tree_nets.begin(),
                                   hit->tree_nets.end(),
                                   ref.tree_nets.begin(),
                                   ref.tree_nets.end()));
          }
        }
        if (s == 0) {
          first = hit;
          first_counters = counters;
          continue;
        }
        EXPECT_EQ(counters, first_counters);
        for (NodeId v = 0; v < n; ++v)
          ASSERT_EQ(scanners[s]->certified(v), scanners[0]->certified(v))
              << "node " << v;
      }
      ++totals.batches;
      if (!first) break;
      // Re-penalize the violating tree, as an injection would. The serial
      // scanner's hit still points into its storage: it has not scanned
      // since.
      for (NetId e : first->tree_nets) metric[e] = metric[e] * 1.5 + 0.05;
      if (!first->tree_nets.empty()) still_violated.push_back(first->source);
      cursor = first->index + 1;
    }
    std::swap(worklist, still_violated);
  }
  for (NodeId v = 0; v < n; ++v) totals.certified += scanners[0]->certified(v);
}

class BallCertificateProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

// Random instances from CertificateCircuit (non-dyadic sizes, disconnected
// components, a zero-weight level, zero-length nets), driven from a short
// metric through Algorithm-2-style rounds until every source passes.
TEST_P(BallCertificateProperty, CertifiedSourcesPassExhaustiveReference) {
  const std::uint64_t seed = GetParam();
  const Hypergraph hg = CertificateCircuit(seed);
  const HierarchySpec spec = CertificateSpec(hg, seed);
  Rng rng(seed * 131 + 7);
  SpreadingMetric metric(hg.num_nets());
  for (double& d : metric)
    d = rng.next_bool(0.25) ? 0.0 : 0.1 * rng.next_double();
  LockstepTotals totals;
  RunLockstep(hg, spec, std::move(metric), {1, 4}, seed, 40, true, true,
              totals);
  EXPECT_GT(totals.batches, 1u);
  EXPECT_GT(totals.certified, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BallCertificateProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// A path with chords, scanned in path order, so that the balls of
// candidates that workers grow side by side overlap and cover the
// candidates just ahead: workers then skip candidates on each other's
// hints, including ones the serial order grows because it skipped the
// hinting candidate itself. The commit replay must still credit exactly
// the serial order's growths and balls at every worker count. Repeated,
// since which candidates get hint-skipped depends on the schedule (on a
// 4-core box each seed re-grows 20–40 of them at commit).
TEST(BallCertificate, CommitReplayIsThreadCountInvariant) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const NodeId n = 300;
    HypergraphBuilder builder;
    for (NodeId v = 0; v < n; ++v) builder.add_node();
    for (NodeId v = 1; v < n; ++v) builder.add_net({v - 1, v});
    for (NodeId v = 7; v < n; v += 5) builder.add_net({v - 7, v});
    const Hypergraph hg = builder.build();
    const HierarchySpec spec = FullBinaryHierarchy(hg.total_size(), 3, 0.2);
    Rng rng(seed);
    SpreadingMetric metric(hg.num_nets());
    for (double& d : metric) d = 0.02 * (0.5 + rng.next_double());
    LockstepTotals totals;
    RunLockstep(hg, spec, std::move(metric), {1, 2, 4, 8}, seed, 30, false,
                false, totals);
    EXPECT_GT(totals.batches, 1u);
    EXPECT_GT(totals.certified, 0u);
  }
}

// A star (MakeStar) whose centre u sits exactly on the tolerance edge, plus
// a pendant node p of negligible size (1e-20) hanging off the centre by a
// net of length delta. From p every other node lies exactly delta farther
// than from u, and p's own size adds nothing, so the ball certificate's
// triangle bound is tight: p passes by (leaves + 1)·delta, and its ball
// radius equals delta up to rounding, with u exactly at distance delta.
// Scanned in the order p, u, leaves..., u must be grown — and found
// violated one ulp below the edge — unless the certificate has room to
// spare: only the float margin keeps the rounding of ρ from certifying u.
TEST(BallCertificate, ToleranceEdgeMatchesReferenceToTheUlp) {
  std::size_t certified_with_room = 0;
  for (NodeId leaves : {9u, 30u}) {
    for (double delta : {0.01, 0.02, 0.03, 0.05, 0.07}) {
      HypergraphBuilder builder;
      for (NodeId v = 0; v <= leaves; ++v) builder.add_node();
      const NodeId pendant = builder.add_node(1e-20);
      for (NodeId v = 1; v <= leaves; ++v) builder.add_net({0u, v});
      builder.add_net({0u, pendant});
      const Hypergraph hg = builder.build();
      const HierarchySpec spec(
          {{4.0, 2, 0.1}, {hg.total_size(), leaves + 2, 1.0}});
      SpreadingMetric metric(hg.num_nets(), 0.1);
      metric.back() = delta;
      std::vector<NodeId> candidates = {pendant};
      for (NodeId v = 0; v <= leaves; ++v) candidates.push_back(v);

      const ShortestPathTree full = testutil::ReferenceDijkstra(hg, 0, metric);
      double lhs = 0.0;
      for (NodeId u : full.order) lhs += hg.node_size(u) * full.dist[u];
      const double g = spec.g(hg.total_size());
      ASSERT_GT(g, lhs);
      ASSERT_LT(g, 2 * lhs);  // Sterbenz: each target - lhs below is exact
      // lhs + tol lands k ulps from g, for k in [-3, 3], and far above.
      std::vector<double> targets;
      double below = g, above = g;
      for (int k = 0; k < 3; ++k) {
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, 2 * g);
        targets.push_back(below);
        targets.push_back(above);
      }
      targets.push_back(g);
      targets.push_back(g + 1e-9);
      for (double target : targets) {
        const double tolerance = target - lhs;
        if (target != g + 1e-9) {
          ASSERT_EQ(lhs + tolerance, target);
        }
        SCOPED_TRACE(testing::Message()
                     << leaves << " leaves, delta " << delta << ", lhs + tol "
                     << (target < g ? "below" : "at or above") << " g by "
                     << (target - g));
        const auto expect = ReferenceVerdicts(hg, spec, metric, tolerance);
        ASSERT_EQ(expect[0].violated, target < g);
        ASSERT_FALSE(expect[pendant].violated);
        for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
          ViolationScanner scanner(hg, spec, workers);
          const auto hit =
              scanner.FindFirstViolation(candidates, 0, metric, tolerance);
          ASSERT_EQ(hit.has_value(), target < g);
          if (hit) {
            EXPECT_EQ(hit->index, 1u);
            EXPECT_EQ(hit->lhs, expect[0].lhs);
            EXPECT_EQ(hit->rhs, expect[0].rhs);
            EXPECT_FALSE(scanner.certified(0));
          }
          if (target == g + 1e-9) certified_with_room += scanner.certified(0);
        }
      }
    }
  }
  // With real room (1e-9 of slack) the pendant's ball does cover the
  // centre, so the test exercises the certificate, not just its absence.
  EXPECT_GT(certified_with_room, 0u);
}

}  // namespace
}  // namespace htp
