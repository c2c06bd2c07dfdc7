// Artifact keys: stable 64-bit hashes of the immutable inputs the serve
// cache (src/server/cache.hpp) indexes by.
//
// Three hash domains, all FNV-1a 64 over a canonical byte serialization
// (version-tagged so a layout change can never silently alias old keys):
//
//   * netlist hash ("htp-netlist-hash-v1") — a structural fingerprint of a
//     Hypergraph: node count, net count, every node size, and every net's
//     capacity, degree, and pin list in stored order, doubles serialized
//     as their
//     IEEE-754 bit patterns. Two hypergraphs hash equal iff they are
//     structurally identical (names excluded — they never affect
//     partitioning). This is the hash serve responses report and
//     docs/file-formats.md specifies.
//   * hierarchy-spec hash — every level's (capacity, max_branches, weight).
//   * injection-params hash ("htp-injection-hash-v3") — the fields of
//     FlowInjectionParams that can change the computed metric: epsilon,
//     alpha, delta, tolerance, max_rounds, seed, and the full warm_metric
//     seed when one is set (ECO warm starts must never alias the cold
//     artifact). Deliberately excluded: `threads` (results are
//     thread-invariant by contract), `cancel` (a fired token truncates —
//     truncated results are never cached), and `csr` (a pure function of
//     the hypergraph).
//   * response hash ("htp-response-key-v1") — every SessionRequest member
//     that reaches a response's deterministic section: the netlist source
//     (circuit, bench text), algo, height, branching, slack, weights,
//     iterations, refine, multilevel, coarsen_threshold, max_rounds, seed,
//     delta_text, warm_text and emit_warm_state. Strings are length-
//     prefixed, so no two member lists share a byte stream. Excluded: the
//     wire's `id`, `threads`, `metric_threads` and `deadline_ms` (results
//     do not depend on them, and the tier stores only runs a deadline left
//     untouched), and `report` (report requests bypass the tier).
//
// Keys render as 16-hex-digit strings in JSON responses so 64-bit values
// survive consumers that parse numbers as doubles.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/flow_injection.hpp"
#include "core/hierarchy.hpp"
#include "netlist/hypergraph.hpp"
#include "server/session.hpp"

namespace htp::serve {

/// FNV-1a 64 offset basis — the running-state seed for HashBytes.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Folds `bytes` into FNV-1a state `h` and returns the new state.
std::uint64_t HashBytes(std::uint64_t h, std::string_view bytes);

/// Order-dependent combination of already-computed hashes.
std::uint64_t CombineHashes(std::span<const std::uint64_t> hashes);

/// Structural fingerprint of a hypergraph (names excluded).
std::uint64_t HashNetlist(const Hypergraph& hg);

/// Fingerprint of a hierarchy spec: per-level (capacity, branches, weight).
std::uint64_t HashSpec(const HierarchySpec& spec);

/// Fingerprint of the result-affecting FlowInjectionParams fields.
std::uint64_t HashInjectionParams(const FlowInjectionParams& params);

/// The response-tier key of a request decoded from the wire (no file
/// paths, no pre-parsed netlist: the wire cannot carry them).
std::uint64_t HashResponseRequest(const SessionRequest& request);

/// The 16-lowercase-hex-digit rendering used in serve responses.
std::string HexKey(std::uint64_t key);

}  // namespace htp::serve
