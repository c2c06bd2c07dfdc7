// Output sinks for the telemetry layer (obs/obs.hpp):
//   * RenderStatsReport  — human-readable aligned table of a Snapshot,
//   * WriteChromeTrace   — Chrome trace_event JSON ("X" complete events,
//                          one lane per thread) for chrome://tracing /
//                          Perfetto.
// The machine-readable account of a run's counters, timers and histograms
// is the schema-versioned RunReport, which has its own assembler
// (obs/report.hpp).
//
// All caller-provided strings (span names, arg keys, lane names) are
// routed through EscapeJson (obs/json.hpp) before being interpolated into
// JSON, so hostile names cannot produce an invalid artifact. The sinks
// operate on plain Snapshot / TraceEvent data.
#pragma once

#include <iosfwd>
#include <string>
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

}  // namespace htp::obs
