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
#pragma once

#include <string>
#include <string_view>

#include "server/json_parse.hpp"
#include "server/session.hpp"

namespace htp::serve {

inline constexpr std::string_view kServeRequestSchema = "htp-serve-request";
inline constexpr std::string_view kServeResponseSchema = "htp-serve-response";
inline constexpr int kServeSchemaVersion = 1;

/// One decoded request line.
struct ServeRequest {
  /// "partition" (default), "ping" (liveness probe), or "shutdown".
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
  /// cache outcomes, and its wall section times the run.
  bool want_report = false;
};

/// Decodes one parsed request document. Strict: unknown members, wrong
/// types, or an unsupported schema/schema_version throw htp::Error, so
/// client typos fail loudly instead of silently running defaults.
ServeRequest ParseServeRequest(const JsonValue& doc);

/// Renders the success response for a completed partition request.
std::string RenderServeResponse(const ServeRequest& request,
                                const SessionResult& result,
                                double queue_wait_ms);

/// Renders the response for "ping" and "shutdown" ops.
std::string RenderServeAck(const std::string& id_json, std::string_view op);

/// Renders an error response (parse failures, rejected requests, run
/// errors). `id_json` may be "null" when the id never decoded.
std::string RenderServeError(const std::string& id_json,
                             std::string_view message);

}  // namespace htp::serve
