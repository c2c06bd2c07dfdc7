// Property suite for the family-(5) oracle's stop rule: ViolationScanner
// ends a growth once its concave stop certificate proves that no later
// prefix of S(v,k) can violate (docs/algorithms.md, "The concave stop
// certificate"). The certificate may only save work, never change a
// verdict, so both scan forms are compared here against a reference with
// no early exit at all: the library-independent binary-heap walk
// (testutil::ReferenceGrow) grown to exhaustion, reporting the first
// prefix with wd + tol < g(T). Verdicts, k, the exact tree_size/lhs/rhs
// doubles and the violating tree's nets must all agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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

}  // namespace
}  // namespace htp
