// ArtifactCache: the bounded, two-tier LRU cache behind htp_serve.
//
// The daemon keeps what a request's *text* fixes: its parsed netlist, and
// its whole answer. Each tier is an independent entry-count bound (0
// disables the tier):
//
//   * netlist — key: a hash of the request's *source* (built-in circuit
//     name + generator seed, or the full .bench text). Value: the parsed
//     Hypergraph plus its structural hash (artifact_key.hpp), computed
//     once at insert.
//   * response — key: HashResponseRequest (artifact_key.hpp), every
//     request member that reaches the wire's deterministic section.
//     Value: that section (protocol.hpp's ResponseSection), its partition
//     kept as a table. The daemon looks requests up here on the
//     connection's reader thread and answers a hit without the pool; it
//     stores only runs that completed untouched by a deadline.
//
// Everything a run derives from its netlist — CSR lowerings, spreading
// metrics — lives and dies with the run: a request that misses the
// response tier lowers and converges exactly as htp_cli does.
//
// Concurrency: requests run on pool workers, so every tier is guarded by
// one mutex. The netlist tier adds an in-flight map for deduplication —
// when N identical builds race, one thread computes while the rest wait
// on a condvar and share the result (counted as hits: they did not
// compute). The compute callback runs OUTSIDE the lock; distinct keys
// never serialize on each other. The response tier has no in-flight map:
// its lookup and its store happen on different threads, so identical
// requests in flight together each run, and the first store wins.
//
// Observability: serve.cache_{hit,miss,evict}_{netlist,response} counters
// record every lookup outcome (a dedup wait counts as a hit). Like every
// obs record they belong to the looking-up thread's scope: inside
// RunSession, that run's; on the daemon's reader threads, the process's.
// Stats() keeps the same totals per cache, for the daemon's "stats" reply.
// The wire response's per-request `cache` section comes from the boolean
// GetOrComputeNetlist returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

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
  TierStats netlist, response;
};

class ArtifactCache {
 public:
  explicit ArtifactCache(const CacheConfig& config = {});
  ~ArtifactCache();
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  bool netlist_enabled() const;
  bool response_enabled() const;

  /// Returns (value, hit): `hit` is true when the value came from the
  /// cache or from another thread's in-flight build, false when this call
  /// built it. `fn` runs unlocked and may throw — the exception propagates
  /// to every deduplicated waiter, and the key stays uncached.
  std::pair<NetlistArtifact, bool> GetOrComputeNetlist(
      std::uint64_t source_key, const std::function<NetlistArtifact()>& fn);

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
