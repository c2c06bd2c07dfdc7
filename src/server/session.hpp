// Session: the reusable run-pipeline extracted from htp_cli.
//
// One SessionRequest describes everything a partition run needs — netlist
// source, hierarchy shape, algorithm, parallelism knobs, budget — and
// RunSession executes the exact pipeline htp_cli used to inline: resolve
// the netlist, build the hierarchy spec, arm the budget once, run the
// chosen algorithm (flow / flow-mst, optionally multilevel or ECO; rfm;
// gfm), optionally refine with generalized FM, validate the result, and
// render the run's one RunReport after the last stage. htp_cli
// is now a thin driver over this function (parse argv, call, print), and
// htp_serve drives the same function per request — the library/driver
// split ROADMAP calls for, so the two binaries cannot drift apart.
//
// Determinism: for a fixed request (and no wall-clock deadline) the
// partition, cost, and iteration stats are bit-identical whether cache is
// null or warm, and identical between htp_cli and htp_serve — the serve
// smoke test diffs the two binaries' partitions byte for byte. The one
// tier a run consults, the netlist tier, serves a parse that is a pure
// function of its key (docs/server.md, "Cache key derivation"); every
// metric is computed afresh, with no provider installed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/htp_flow.hpp"
#include "incremental/warm_start.hpp"
#include "multilevel/multilevel_flow.hpp"
#include "partition/htp_fm.hpp"
#include "server/cache.hpp"

namespace htp::serve {

/// One partition run. Field defaults mirror htp_cli's flag defaults.
struct SessionRequest {
  /// Netlist source — exactly one of the four. `circuit` names a built-in
  /// ISCAS85-like generator (instantiated with the run seed, matching
  /// htp_cli); `bench_text` is inline .bench source; `bench_file` is a
  /// path read up-front into `bench_text` (so cache keys stay
  /// content-based, never path-based); `netlist` is a pre-parsed
  /// hypergraph (tests, embedding callers).
  std::string circuit;
  std::string bench_text;
  std::string bench_file;
  std::shared_ptr<const Hypergraph> netlist;

  std::string algo = "flow";  ///< flow | flow-mst | rfm | gfm
  Level height = 4;
  std::size_t branching = 2;
  double slack = 0.10;
  std::vector<double> weights;  ///< per-level; empty = all 1.0
  std::size_t iterations = 4;
  /// In-process callers only: htp_serve's wire carries neither, since a
  /// daemon request runs serially on its pool worker.
  std::size_t threads = 0;
  std::size_t metric_threads = 1;
  bool refine = false;
  bool multilevel = false;
  std::size_t coarsen_threshold = 800;
  /// Incremental (ECO) repartitioning inputs (docs/incremental.md).
  /// `delta_text` is an inline "htp-delta v1" document, `delta_file` a path
  /// read up-front (mutually exclusive). The delta applies to the resolved
  /// netlist (the PRE-delta base); the run partitions the edited result,
  /// but the hierarchy spec is still built from the base's total size —
  /// the hierarchy is the physical target an ECO edits into. Requires
  /// algo flow/flow-mst and excludes multilevel.
  std::string delta_text;
  std::string delta_file;
  /// Prior-run warm-start state ("htp-warm-start v1"), inline or a path
  /// (mutually exclusive). Must match the PRE-delta netlist. When present,
  /// the prior metric is remapped through the delta and the run goes
  /// through RunEcoRepartition: Algorithm 2 resumes injection and the
  /// prior partition's untouched root subtrees are cloned. Without a
  /// delta, this is the empty-delta resume (bit-identical to the run that
  /// produced the state). A delta without warm state runs cold on the
  /// edited netlist.
  std::string warm_text;
  std::string warm_file;
  /// Capture the run's winning converged metric plus the FINAL
  /// (post-refine) partition as SessionResult::warm_state — the next
  /// run's warm-start input. Requires algo flow/flow-mst, no multilevel.
  bool emit_warm_state = false;
  std::uint64_t seed = 1;
  /// Armed once at the top of RunSession and shared by every stage, like
  /// htp_cli's --time-budget / --max-rounds.
  Budget budget;
  /// Optional external cancellation, linked as the budget's parent.
  CancellationToken cancel;
  /// Assemble the run's RunReport into SessionResult::report, under
  /// `report_tool`, after the last stage (so it covers FM refinement).
  bool collect_report = false;
  std::string report_tool = "htp_cli";
};

/// Per-request cache outcome: the netlist tier resolves exactly once per
/// request.
struct SessionCacheOutcome {
  std::string netlist = "off";  ///< "hit" | "miss" | "off"
  /// CsrViews lowered (the run's `flow.metrics`); perfbench's replay reads it.
  std::size_t csr_misses = 0;
};

/// Everything the drivers print or serialize.
struct SessionResult {
  std::shared_ptr<const Hypergraph> netlist;
  /// Structural fingerprint (artifact_key.hpp) of the netlist the run
  /// partitioned — the identity serve responses report. Computed for a
  /// built-in circuit or .bench source (the netlist tier stores it) and
  /// for an ECO's edited netlist; 0 for a caller-provided `netlist`, which
  /// no wire request carries.
  std::uint64_t netlist_hash = 0;
  HierarchySpec spec;
  /// Always engaged on a successful return (optional only because
  /// TreePartition needs its hypergraph to construct).
  std::optional<TreePartition> partition;
  /// Interconnection cost of `partition` as the algorithm produced it
  /// (before refinement; `fm.final_cost` is the post-refinement cost). A
  /// FLOW, multilevel or ECO run reports the PartitionCost it computed for
  /// the partition it returned.
  double cost = 0.0;
  bool completed = true;
  StopReason stop_reason = StopReason::kCompleted;
  /// Flow-algorithm iteration stats (empty for rfm/gfm/multilevel).
  std::vector<HtpFlowIteration> iterations;

  /// Multilevel extras, populated iff `used_multilevel`.
  bool used_multilevel = false;
  std::size_t coarsen_levels = 0;
  NodeId coarsest_nodes = 0;
  double coarse_cost = 0.0;
  std::size_t feasibility_fallbacks = 0;
  std::vector<MultilevelLevelStats> level_stats;

  bool refined = false;
  HtpFmStats fm;  ///< valid iff `refined`

  /// ECO extras, populated iff `eco` (a delta or warm source was given).
  /// All of them are deterministic — pure functions of the request.
  bool eco = false;
  /// Structural hash of the PRE-delta netlist, caller-provided ones
  /// included (`netlist_hash` above is the post-delta hash).
  std::uint64_t pre_delta_hash = 0;
  std::string warm_source = "none";  ///< "state" | "none"
  std::size_t eco_blocks_reused = 0;
  std::size_t eco_blocks_recarved = 0;
  bool eco_full_rebuild = false;
  std::size_t eco_warm_rounds = 0;
  std::size_t eco_warm_injections = 0;
  bool eco_converged = false;

  /// The run's warm-start state, engaged iff request.emit_warm_state;
  /// WriteWarmStartText renders its "htp-warm-start v1" document.
  std::optional<WarmStartState> warm_state;

  std::string report;  ///< RunReport JSON, iff collect_report
  SessionCacheOutcome cache;
  double run_seconds = 0.0;  ///< wall clock (outside determinism)
};

/// Runs one session. `cache` may be null (htp_cli passes null: identical
/// behaviour to the pre-extraction CLI). Throws htp::Error on invalid
/// requests (unknown algo, bad weights length, --multilevel with a
/// non-flow algo — same messages the CLI raised inline) and propagates
/// parse/validation errors.
SessionResult RunSession(const SessionRequest& request, ArtifactCache* cache);

}  // namespace htp::serve
