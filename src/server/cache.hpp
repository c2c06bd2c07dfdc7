// ArtifactCache: the bounded, four-tier LRU cache behind htp_serve.
//
// A partition request repeats three expensive, perfectly-reusable
// computations: parsing/generating the netlist, lowering its CSR star
// expansion, and converging a spreading metric (Algorithm 2 — measured at
// ~90% of request CPU on the ISCAS85 suite). Each gets its own tier, and
// a fourth holds whole answers, each tier an independent entry-count
// bound (0 disables the tier):
//
//   * netlist — key: a hash of the request's *source* (built-in circuit
//     name + generator seed, or the full .bench text). Value: the parsed
//     Hypergraph plus its structural hash (artifact_key.hpp), computed
//     once at insert.
//   * csr — key: the structural netlist hash (of the whole graph or of a
//     subproblem — per-subproblem metrics cache their sub-CSRs the same
//     way). Value: the immutable CsrView.
//   * metric — key: combine(netlist-hash, spec-hash, injection-params-
//     hash); the injection hash covers the seed, so different seeds are
//     different artifacts. Value: the full FlowInjectionResult. Only
//     converged-or-round-capped results are cached — a result truncated
//     by a fired cancellation token is returned to its requester but
//     never inserted, so a deadline can shrink one response, not poison
//     later ones.
//   * response — key: HashResponseRequest (artifact_key.hpp), every
//     request member that reaches the wire's deterministic section.
//     Value: that section (protocol.hpp's ResponseSection), its partition
//     kept as a table. The daemon looks requests up here on the
//     connection's reader thread and answers a hit without the pool; it
//     stores only runs that completed untouched by a deadline.
//
// Concurrency: requests run on pool workers, so every tier is guarded by
// one mutex. The artifact tiers add an in-flight map for deduplication —
// when N identical computations race, one thread computes while the rest
// wait on a condvar and share the result (counted as hits: they did not
// compute). The compute callback runs OUTSIDE the lock; distinct keys
// never serialize on each other. The response tier has no in-flight map:
// its lookup and its store happen on different threads, so identical
// requests in flight together each run, and the first store wins.
//
// Observability: serve.cache_{hit,miss,evict}_{netlist,csr,metric,response}
// counters record every lookup outcome (a dedup wait counts as a hit). Like
// every obs record they belong to the looking-up thread's scope: inside
// RunSession, that run's; on the daemon's reader threads, the process's.
// Stats() keeps the same totals per cache, for the daemon's "stats" reply.
// The wire response's per-request `cache` section comes from the booleans
// GetOrCompute returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "core/flow_injection.hpp"
#include "graph/csr_view.hpp"
#include "netlist/hypergraph.hpp"

namespace htp::serve {

struct ResponseSection;  // protocol.hpp

/// A parsed netlist plus its structural hash (computed once at insert so
/// repeat requests skip the O(pins) fingerprint walk too).
struct NetlistArtifact {
  std::shared_ptr<const Hypergraph> hg;
  std::uint64_t structural_hash = 0;
};

/// Entry-count bound per tier; 0 disables a tier entirely (every lookup
/// reports a miss and computes).
struct CacheConfig {
  std::size_t netlist_capacity = 8;
  std::size_t csr_capacity = 16;
  std::size_t metric_capacity = 256;
  /// htp_serve has no flag for this one: the daemon always keeps 256.
  std::size_t response_capacity = 256;
};

/// One tier's occupancy, and its lookup outcomes since the cache was made.
struct TierStats {
  std::size_t entries = 0;
  std::size_t capacity = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

struct CacheStats {
  TierStats netlist, csr, metric, response;
};

class ArtifactCache {
 public:
  explicit ArtifactCache(const CacheConfig& config = {});
  ~ArtifactCache();
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  bool netlist_enabled() const;
  bool csr_enabled() const;
  bool metric_enabled() const;
  bool response_enabled() const;

  /// Each GetOrCompute returns (value, hit): `hit` is true when the value
  /// came from the cache or from another thread's in-flight computation,
  /// false when this call computed it. Compute callbacks run unlocked and
  /// may throw — the exception propagates to every deduplicated waiter.
  std::pair<NetlistArtifact, bool> GetOrComputeNetlist(
      std::uint64_t source_key, const std::function<NetlistArtifact()>& fn);
  std::pair<std::shared_ptr<const CsrView>, bool> GetOrComputeCsr(
      std::uint64_t netlist_hash,
      const std::function<std::shared_ptr<const CsrView>()>& fn);
  /// Never caches results with `cancelled == true` (see file comment).
  std::pair<FlowInjectionResult, bool> GetOrComputeMetric(
      std::uint64_t key, const std::function<FlowInjectionResult()>& fn);

  /// The response tier: a lookup that never computes (null on a miss or
  /// a disabled tier), and the store the daemon makes once a missed
  /// request has run. A key already present keeps its entry: identical
  /// requests have identical answers.
  std::shared_ptr<const ResponseSection> FindResponse(std::uint64_t key);
  void StoreResponse(std::uint64_t key,
                     std::shared_ptr<const ResponseSection> section);

  CacheStats Stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace htp::serve
