// WarmStartState: the persisted outcome of a converged FLOW run — the
// spreading metric d(e) plus the final partition — so a later run on an
// edited netlist can resume instead of starting cold (docs/incremental.md).
//
// Text format (one file, embeds the htp-partition document):
//
//   htp-warm-start v1
//   netlist <nodes> <nets> <pins>     # fingerprint of the run's netlist
//   seed <seed>                       # the run seed that produced it
//   metric <count>                    # then one hexfloat d(e) per line,
//   <hexfloat>                        # in net id order
//   ...
//   partition <line-count>            # then the embedded htp-partition v1
//   <partition text>                  # document, exactly <line-count> lines
//
// Metric values are written as C hexfloats ("0x1.8p+1"-style), which
// round-trip IEEE-754 doubles exactly — so resuming from a file is
// bit-identical to resuming from the in-memory state, the property the
// empty-delta equivalence battery (tests/incremental/) enforces.
#pragma once

#include <cstdint>
#include <string>

#include "core/spreading_metric.hpp"
#include "core/tree_partition.hpp"
#include "incremental/netlist_delta.hpp"

namespace htp {

/// Thrown on malformed warm-start text or a state that does not match the
/// netlist it is applied to. Derives from htp::Error; drivers map it to
/// exit code 2 (usage) like DeltaError.
class WarmStartError : public Error {
 public:
  explicit WarmStartError(const std::string& what) : Error(what) {}
};

/// A converged run's reusable state, tied to its netlist by fingerprint.
struct WarmStartState {
  std::size_t nodes = 0;  ///< fingerprint: node count of the run's netlist
  std::size_t nets = 0;   ///< fingerprint: net count
  std::size_t pins = 0;   ///< fingerprint: pin count
  std::uint64_t seed = 0;  ///< the run seed (informational)
  SpreadingMetric metric;  ///< converged d(e), one value per net
  std::string partition_text;  ///< embedded htp-partition v1 document
};

/// Captures the state of a finished run: `metric` must span `hg`'s nets
/// and `tp` must be a valid partition of `hg`.
WarmStartState MakeWarmStartState(const Hypergraph& hg,
                                  const SpreadingMetric& metric,
                                  const TreePartition& tp, std::uint64_t seed);

/// Renders the text format (exact: metric values as hexfloats).
std::string WriteWarmStartText(const WarmStartState& state);

/// Parses the text format. Throws WarmStartError (with a line number) on
/// structural problems; fingerprint matching is CheckWarmStartMatches.
WarmStartState ParseWarmStartText(const std::string& text);

/// File helpers (throw WarmStartError when the file cannot be opened).
void WriteWarmStartFile(const WarmStartState& state, const std::string& path);
WarmStartState ReadWarmStartFile(const std::string& path);

/// Throws WarmStartError unless `state`'s fingerprint matches `hg` (the
/// *pre-delta* netlist: warm state is always captured before the edit).
void CheckWarmStartMatches(const WarmStartState& state, const Hypergraph& hg);

/// Remaps a pre-delta metric through a delta application: the returned
/// vector spans the *edited* netlist's nets; every net the delta did not
/// touch keeps its converged d(e), every touched or added net restarts at
/// 0 (the cold initial length). This is the `warm_metric` seed
/// FlowInjectionParams consumes.
SpreadingMetric RemapWarmMetric(const WarmStartState& state,
                                const DeltaApplication& app);

}  // namespace htp
