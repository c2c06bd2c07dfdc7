// Output sinks for the telemetry layer (obs/obs.hpp):
//   * RenderStatsReport  — human-readable aligned table of a Snapshot,
//   * WriteChromeTrace   — Chrome trace_event JSON ("X" complete events,
//                          one lane per thread) for chrome://tracing /
//                          Perfetto,
//   * WriteJsonlSnapshot — one JSON object per line per metric, the
//                          machine-readable stream the benches emit.
// The schema-versioned RunReport artifact has its own assembler
// (obs/report.hpp).
//
// All caller-provided strings (bench names, scopes, timer names, arg keys,
// lane names) are routed through EscapeJson (obs/json.hpp) before being
// interpolated into JSON, so hostile names cannot produce an invalid
// artifact. The sinks operate on plain Snapshot / TraceEvent data.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace htp::obs {

/// Aligned text report: all counters, then all timers (ms), then all
/// histograms. Zero-valued entries are kept so the report always names
/// every instrumented subsystem.
std::string RenderStatsReport(const Snapshot& snapshot);

/// Chrome trace_event JSON: {"traceEvents":[...]} with one "X" (complete)
/// event per span plus thread_name metadata naming each lane. Timestamps
/// are microseconds since the obs epoch. Lanes take their names from
/// `lane_names` (indexed by tid; obs::TakeLaneNames()) — the runtime names
/// pool workers `worker-<i>` by pool index, so traces from repeated runs
/// line up — and fall back to `htp-thread-<tid>` for unnamed lanes. Loads
/// in chrome://tracing and https://ui.perfetto.dev.
void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events,
                      const std::vector<std::string>& lane_names = {});

/// JSONL: one line per counter
///   {"bench":B,"scope":S,"type":"counter","name":N,"kind":"sum","value":V}
/// per recorded timer
///   {"bench":B,"scope":S,"type":"timer","name":N,"count":C,
///    "total_ns":T,"min_ns":m,"max_ns":M}
/// and per recorded histogram
///   {"bench":B,"scope":S,"type":"histogram","name":N,"kind":"value",
///    "count":C,"sum":S,"min":m,"max":M,"buckets":[...]}
/// `bench` and `scope` let concatenated streams from several runs stay
/// self-describing (e.g. bench name / circuit name).
void WriteJsonlSnapshot(std::ostream& os, const Snapshot& snapshot,
                        std::string_view bench, std::string_view scope);

}  // namespace htp::obs
