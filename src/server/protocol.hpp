// The htp_serve wire protocol: newline-delimited JSON, one request object
// per line, one response object per line (docs/server.md is the
// field-by-field handbook; docs/file-formats.md holds the format grammar).
//
// Requests carry schema "htp-serve-request", responses
// "htp-serve-response", both at schema_version 1 and versioned under the
// same policy as htp-run-report: additive fields keep the version,
// breaking changes bump it, consumers reject versions they do not know.
//
// Response layout is deliberate: the top-level "deterministic" key comes
// first and holds everything bit-identical across cache states and thread
// counts for a deadline-free request — meta, result, and the partition
// text — so obs::DeterministicSection() extracts the comparable slice
// directly (the warm-vs-cold byte-identity test does exactly that). The
// "cache" and "wall" sections sit outside it and may differ freely.
//
// A response renders in two steps: MakeResponseSection turns a run into
// its deterministic section (the form the daemon's response tier stores),
// and RenderServeResponse writes a section under an id with the request's
// cache and wall fields. A run's response and every later hit on its
// stored section go through the same rendering, so their deterministic
// bytes are equal by construction.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "core/partition_io.hpp"
#include "incremental/warm_start.hpp"
#include "server/json_parse.hpp"
#include "server/session.hpp"

namespace htp::serve {

inline constexpr std::string_view kServeRequestSchema = "htp-serve-request";
inline constexpr std::string_view kServeResponseSchema = "htp-serve-response";
inline constexpr int kServeSchemaVersion = 1;

/// One decoded request line.
struct ServeRequest {
  /// "partition" (default), "ping" (liveness probe), "stats" (cache and
  /// pool counts), or "shutdown".
  std::string op = "partition";
  /// The request's `id` member re-rendered as a JSON fragment (string,
  /// number, or "null" when absent), echoed verbatim in the response so
  /// clients can match responses arriving in completion order.
  std::string id_json = "null";
  SessionRequest session;
  /// Per-request wall-clock SLA in milliseconds; 0 = none. Routed into
  /// Budget::time_budget_seconds — the same safepoint machinery as
  /// htp_cli --time-budget — armed when the request starts *running*
  /// (queue wait is excluded; serve.queue_wait observes it instead).
  double deadline_ms = 0.0;
  /// Embed the full RunReport under the top-level "report" key: this
  /// request's telemetry alone. Off by default, and NOT part of the
  /// deterministic response section: its counters include the request's
  /// cache outcomes, and its wall section times the run. A report request
  /// always runs: the response tier neither answers nor stores it.
  bool want_report = false;
};

/// The deterministic section of a partition response, as the response
/// tier stores it: the rendered "meta" and "result" objects, the partition
/// as its table, and the warm-start state. Both texts are rendered at
/// answer time, the partition's by WritePartitionText.
struct ResponseSection {
  std::string meta;
  std::string result;
  PartitionTable partition;
  /// Engaged iff the request set emit_warm_state. Its partition_text
  /// stays empty: the document embeds the "partition" member's text.
  std::optional<WarmStartState> warm_state;
  double cost = 0.0;  ///< the result's final "cost", for serve.request
};

/// Everything a success response carries outside its deterministic section.
struct ResponseEnvelope {
  std::string_view response_cache = "off";  ///< "hit" | "miss" | "off"
  std::string_view netlist_cache = "off";   ///< "hit" | "miss" | "off"
  double run_seconds = 0.0;
  double queue_wait_ms = 0.0;
  std::string_view report;  ///< embedded under "report" when non-empty
};

/// Decodes one parsed request document. Strict: unknown members, wrong
/// types, or an unsupported schema/schema_version throw htp::Error, so
/// client typos fail loudly instead of silently running defaults.
ServeRequest ParseServeRequest(const JsonValue& doc);

/// The deterministic section of a completed partition request.
ResponseSection MakeResponseSection(const ServeRequest& request,
                                    const SessionResult& result);

/// Renders a success response: `section` under `id_json`, then the
/// envelope's cache, wall and report fields.
std::string RenderServeResponse(const std::string& id_json,
                                const ResponseSection& section,
                                const ResponseEnvelope& envelope);

/// Renders the success response for a completed partition request that
/// did not consult the response tier ("response": "off").
std::string RenderServeResponse(const ServeRequest& request,
                                const SessionResult& result,
                                double queue_wait_ms);

/// Renders the response for "ping" and "shutdown" ops.
std::string RenderServeAck(const std::string& id_json, std::string_view op);

/// Renders the reply to a "stats" op: each cache tier's entries,
/// capacity, hits, misses and evictions, and the pool's queued and
/// running partition requests.
std::string RenderServeStats(const std::string& id_json,
                             const CacheStats& cache, std::size_t queued,
                             std::size_t in_flight);

/// Renders an error response (parse failures, rejected requests, run
/// errors). `id_json` may be "null" when the id never decoded.
std::string RenderServeError(const std::string& id_json,
                             std::string_view message);

}  // namespace htp::serve
