// Delta-scoped incremental repartitioning (the ECO scenario, ROADMAP item
// 4; docs/incremental.md).
//
// Given a prior run's converged state (warm_start.hpp) and a netlist delta
// (netlist_delta.hpp), RunEcoRepartition:
//
//   1. re-converges the spreading metric on the edited netlist with the
//      remapped prior metric as the warm seed (Algorithm 2 resumes instead
//      of starting cold — the regression gate holds the warm root metric
//      to <= 0.5x the cold run's injections on a single-net delta);
//   2. marks the prior partition's root-child subtrees whose node sets the
//      delta touched, clones every untouched subtree verbatim into the new
//      partition (journal record `eco.block_reused`), and re-runs the
//      Algorithm-3 recursion (BuildPartitionSubtree) only inside the
//      touched ones — added nodes anchor to the touched subtree of their
//      first edited-net neighbor;
//   3. falls back to a full warm-metric rebuild when stitching cannot work
//      (root level changed, a touched region outgrew its subtree, every
//      subtree touched, or the stitched result fails validation) — and
//      races every stitched result against rebuild replicas (including the
//      carry-over candidate: the prior partition cloned onto the edited
//      netlist and polished), returning whichever costs less.
//
// Determinism: ECO results are bit-identical across the full
// threads x metric_threads matrix — `threads` has no outer iterations to
// parallelize and `metric_threads` is bit-transparent by the
// ViolationScanner contract. The warm-start property battery enforces this
// invariance.
#pragma once

#include "core/htp_flow.hpp"
#include "incremental/netlist_delta.hpp"
#include "incremental/warm_start.hpp"

namespace htp {

/// Outcome of one incremental repartition.
struct EcoResult {
  TreePartition partition;  ///< valid partition of the edited netlist
  double cost = 0.0;        ///< its Equation-(1) cost
  /// The re-converged metric on the edited netlist — persist it (with the
  /// partition) as the next warm-start state, so ECO runs chain.
  SpreadingMetric metric;
  std::size_t warm_rounds = 0;      ///< injection rounds the warm metric took
  std::size_t warm_injections = 0;  ///< injections the warm metric took
  bool metric_converged = false;
  std::size_t blocks_reused = 0;    ///< root subtrees cloned from the prior run
  std::size_t blocks_recarved = 0;  ///< root subtrees rebuilt
  /// True when stitching was impossible and the whole tree was rebuilt
  /// (still seeded with the warm metric, so convergence savings remain).
  bool full_rebuild = false;
  /// True when the budget/cancel token stopped the metric re-convergence
  /// early (the partition is still valid — construction is the floor).
  bool metric_cancelled = false;
};

/// Repartitions `*app.hg` (the edited netlist) against `spec`, reusing
/// `old_tp` (the prior partition, over the PRE-delta netlist) and `warm`
/// (the prior metric remapped via RemapWarmMetric — one value per edited
/// net). `flow` configures warm and cold runs alike; fields without an ECO
/// meaning are ignored (`iterations` — ECO is one warm pass — plus
/// `threads` and `keep_best_metric`). Every re-carved or rebuilt result is
/// polished with a boundary-seeded hierarchical FM pass (RefineHtpFm — the
/// paper's Table-3 "+" treatment), closing the quality gap a
/// delta-anchored metric leaves versus a cold run; pure clone runs (empty
/// delta) skip it, so the bit-identity resume contract holds. The returned
/// partition references `*app.hg`; keep the shared_ptr alive. The budget
/// in `flow` scopes the metric re-convergence only: construction is the
/// anytime floor and always runs to completion, so every call returns a
/// valid partition.
EcoResult RunEcoRepartition(const DeltaApplication& app,
                            const HierarchySpec& spec,
                            const TreePartition& old_tp,
                            const SpreadingMetric& warm,
                            const HtpFlowParams& flow);

}  // namespace htp
