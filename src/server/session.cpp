#include "server/session.hpp"

#include <array>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/cost.hpp"
#include "core/partition_io.hpp"
#include "core/tree_partition.hpp"
#include "incremental/eco_repartition.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist/generators.hpp"
#include "obs/report.hpp"
#include "partition/gfm.hpp"
#include "partition/rfm.hpp"
#include "server/artifact_key.hpp"

namespace htp::serve {

namespace {

// Key of the netlist *source* (what the request asked for), as opposed to
// the structural hash of the parsed result. A built-in circuit is keyed by
// (name, seed) because MakeIscas85Like instantiates from the run seed;
// .bench text is keyed by its full content.
std::uint64_t SourceKey(const SessionRequest& request) {
  std::uint64_t h = HashBytes(kFnvOffset, "htp-netlist-source-v1");
  if (!request.bench_text.empty()) {
    h = HashBytes(h, "bench");
    h = HashBytes(h, request.bench_text);
    return h;
  }
  h = HashBytes(h, "circuit");
  h = HashBytes(h, request.circuit);
  return CombineHashes(std::array<std::uint64_t, 2>{h, request.seed});
}

std::string ReadBenchFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open bench file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

NetlistArtifact BuildNetlist(const SessionRequest& request) {
  Hypergraph hg = request.bench_text.empty()
                      ? MakeIscas85Like(request.circuit, request.seed)
                      : ParseBench(request.bench_text).hg;
  auto shared = std::make_shared<const Hypergraph>(std::move(hg));
  const std::uint64_t hash = HashNetlist(*shared);
  return NetlistArtifact{std::move(shared), hash};
}

// The run's one RunReport (obs/report.hpp), rendered after the last stage
// so it covers every stage: `cost` is the final (post-refinement) cost and
// `algo_cost` the constructor's, as in the wire response. It runs inside
// the run's obs::RunScope, so the snapshot and the journal are this run's
// alone, and RunSession is the one place a run's telemetry is collected.
std::string RenderRunReport(const SessionRequest& request,
                            const SessionResult& result,
                            const obs::Snapshot& snapshot) {
  const Hypergraph& hg = *result.netlist;
  obs::RunReportBuilder rb(request.report_tool);
  rb.MetaString("algorithm", request.algo);
  rb.MetaNumber("nodes", static_cast<double>(hg.num_nodes()));
  rb.MetaNumber("nets", static_cast<double>(hg.num_nets()));
  rb.MetaNumber("levels", static_cast<double>(result.spec.num_levels()));
  rb.MetaNumber("seed", static_cast<double>(request.seed));
  rb.MetaNumber("iterations_requested",
                static_cast<double>(request.iterations));
  rb.MetaBool("multilevel", request.multilevel);
  if (request.multilevel)
    rb.MetaNumber("coarsen_threshold",
                  static_cast<double>(request.coarsen_threshold));

  rb.ResultNumber("cost",
                  result.refined ? result.fm.final_cost : result.cost);
  rb.ResultNumber("algo_cost", result.cost);
  rb.ResultBool("completed", result.completed);
  rb.ResultString("stop_reason", StopReasonName(result.stop_reason));
  if (!result.iterations.empty())
    rb.ResultNumber("iterations_run",
                    static_cast<double>(result.iterations.size()));
  rb.ResultBool("refined", result.refined);
  if (result.refined) {
    rb.ResultNumber("fm_moves_kept", static_cast<double>(result.fm.moves_kept));
    rb.ResultNumber("fm_passes", static_cast<double>(result.fm.passes));
  }
  if (result.used_multilevel) {
    rb.ResultNumber("coarse_cost", result.coarse_cost);
    rb.ResultNumber("coarsen_levels",
                    static_cast<double>(result.coarsen_levels));
    rb.ResultNumber("coarsest_nodes",
                    static_cast<double>(result.coarsest_nodes));
    rb.ResultNumber("feasibility_fallbacks",
                    static_cast<double>(result.feasibility_fallbacks));
  }
  if (result.eco) {
    rb.ResultString("eco_pre_delta_hash", HexKey(result.pre_delta_hash));
    rb.ResultString("eco_warm_source", result.warm_source);
    rb.ResultNumber("eco_blocks_reused",
                    static_cast<double>(result.eco_blocks_reused));
    rb.ResultNumber("eco_blocks_recarved",
                    static_cast<double>(result.eco_blocks_recarved));
    rb.ResultBool("eco_full_rebuild", result.eco_full_rebuild);
    rb.ResultNumber("eco_warm_rounds",
                    static_cast<double>(result.eco_warm_rounds));
    rb.ResultNumber("eco_warm_injections",
                    static_cast<double>(result.eco_warm_injections));
    rb.ResultBool("eco_converged", result.eco_converged);
  }
  rb.WallNumber("threads", static_cast<double>(request.threads));
  rb.WallNumber("metric_threads", static_cast<double>(request.metric_threads));
  return rb.Render(snapshot, obs::DrainEvents());
}

std::uint64_t CounterTotal(const obs::Snapshot& snapshot,
                           std::string_view name) {
  for (const obs::CounterValue& c : snapshot.counters)
    if (c.name == name) return c.value;
  return 0;
}

}  // namespace

SessionResult RunSession(const SessionRequest& request, ArtifactCache* cache) {
  const auto start = std::chrono::steady_clock::now();
  // Every record this run makes, on any thread it forks, goes to this
  // scope: the report, when one is requested, holds this run's telemetry
  // alone. At the end the totals fold into the caller's scope and the
  // journal is dropped (a daemon must not keep past runs' journals).
  obs::RunScope run_scope;
  SessionResult result;

  // --- Netlist: provided > cache > direct build. A file path is read
  // into text first so every cached key is content-derived. ---
  SessionRequest normalized;
  const SessionRequest* req = &request;
  if (!request.bench_file.empty()) {
    normalized = request;
    normalized.bench_text = ReadBenchFile(request.bench_file);
    // An explicitly named bench file must never fall back to the
    // request's (defaulted) built-in circuit.
    if (normalized.bench_text.empty())
      throw Error("session: bench file is empty: " + request.bench_file);
    normalized.bench_file.clear();
    req = &normalized;
  }
  if (req->netlist) {
    result.netlist = req->netlist;
    result.netlist_hash = HashNetlist(*result.netlist);
  } else {
    if (req->circuit.empty() && req->bench_text.empty())
      throw Error("session: no netlist source (circuit or bench_text)");
    if (cache && cache->netlist_enabled()) {
      auto [artifact, hit] = cache->GetOrComputeNetlist(
          SourceKey(*req), [&] { return BuildNetlist(*req); });
      result.netlist = std::move(artifact.hg);
      result.netlist_hash = artifact.structural_hash;
      result.cache.netlist = hit ? "hit" : "miss";
    } else {
      NetlistArtifact artifact = BuildNetlist(*req);
      result.netlist = std::move(artifact.hg);
      result.netlist_hash = artifact.structural_hash;
    }
  }
  // --- Incremental (ECO) inputs: parse the delta and warm state, apply
  // the delta to the resolved base netlist. The request's netlist source
  // always names the PRE-delta base; the run partitions the edited
  // result (docs/incremental.md). ---
  if (!request.delta_text.empty() && !request.delta_file.empty())
    throw Error("session: delta_text and delta_file are mutually exclusive");
  if (!request.warm_text.empty() && !request.warm_file.empty())
    throw Error("session: warm_text and warm_file are mutually exclusive");
  const bool have_warm_state =
      !request.warm_text.empty() || !request.warm_file.empty();
  const bool have_delta =
      !request.delta_text.empty() || !request.delta_file.empty();
  // A warm source without a delta is the empty-delta resume: the delta
  // application below degenerates to an identity rebuild of the base.
  NetlistDelta delta;
  if (!request.delta_file.empty())
    delta = ReadDeltaFile(request.delta_file);
  else if (!request.delta_text.empty())
    delta = ParseDeltaText(request.delta_text);
  std::optional<WarmStartState> warm_state;
  if (!request.warm_file.empty())
    warm_state = ReadWarmStartFile(request.warm_file);
  else if (!request.warm_text.empty())
    warm_state = ParseWarmStartText(request.warm_text);

  const bool eco_mode = have_delta || have_warm_state;
  if ((eco_mode || request.emit_warm_state) &&
      (request.algo != "flow" && request.algo != "flow-mst"))
    throw Error(
        "session: delta/warm-start/emit_warm_state require --algo flow "
        "or flow-mst");
  if ((eco_mode || request.emit_warm_state) && request.multilevel)
    throw Error(
        "session: delta/warm-start/emit_warm_state cannot combine with "
        "--multilevel");
  std::shared_ptr<const Hypergraph> base;
  std::optional<DeltaApplication> app;
  if (eco_mode) {
    base = result.netlist;
    result.eco = true;
    result.pre_delta_hash = result.netlist_hash;
    app.emplace(ApplyDelta(*base, delta));
    result.netlist = app->hg;
    result.netlist_hash = HashNetlist(*app->hg);
  }
  const Hypergraph& hg = *result.netlist;

  const std::vector<double> weights =
      request.weights.empty() ? std::vector<double>(request.height, 1.0)
                              : request.weights;
  if (weights.size() != request.height)
    throw Error("session: weights must carry exactly `height` values");
  // With a delta the spec is still derived from the PRE-delta total: the
  // hierarchy is the physical target an ECO edits into, not a function of
  // the edited netlist (a delta that outgrows it fails validation).
  result.spec =
      UniformHierarchy(base ? base->total_size() : hg.total_size(),
                       request.height, request.branching, request.slack,
                       weights);
  const HierarchySpec& spec = result.spec;

  // The deadline is armed once, here, and shared by every stage below —
  // construction and refinement draw from the same clock. Passing the
  // token as params.cancel (not re-arming params.budget) keeps the budget
  // from being granted twice. Identical to the pre-extraction htp_cli.
  const CancellationToken run_token =
      StartBudget(request.budget, request.cancel);

  if (request.multilevel && request.algo != "flow" &&
      request.algo != "flow-mst")
    throw Error("--multilevel requires --algo flow or flow-mst");

  TreePartition tp(hg, 0);
  // Converged metric retained for request.emit_warm_state (set on every
  // path that can emit: plain flow via keep_best_metric, ECO directly).
  std::optional<SpreadingMetric> emit_metric;
  if (request.algo == "flow" || request.algo == "flow-mst") {
    HtpFlowParams params;
    params.iterations = request.iterations;
    params.seed = request.seed;
    params.keep_best_metric = request.emit_warm_state;
    params.threads = request.threads;
    params.metric_threads = request.metric_threads;
    params.budget.max_rounds = request.budget.max_rounds;
    params.cancel = run_token;
    if (request.algo == "flow-mst") params.carver = CarverKind::kMstSplit;

    if (request.multilevel) {
      MultilevelParams ml;
      ml.flow = params;
      ml.coarsen_threshold = static_cast<NodeId>(request.coarsen_threshold);
      MultilevelResult ml_result = RunMultilevelFlow(hg, spec, ml);
      result.used_multilevel = true;
      result.coarsen_levels = ml_result.coarsen_levels;
      result.coarsest_nodes = ml_result.coarsest_nodes;
      result.coarse_cost = ml_result.coarse_cost;
      result.feasibility_fallbacks = ml_result.feasibility_fallbacks;
      result.level_stats = std::move(ml_result.level_stats);
      result.completed = ml_result.completed;
      result.stop_reason = ml_result.stop_reason;
      tp = std::move(ml_result.partition);
    } else if (warm_state) {
      // Full ECO: warm metric re-convergence plus delta-scoped re-carving,
      // cloning the prior partition's untouched root subtrees.
      CheckWarmStartMatches(*warm_state, *base);
      const TreePartition old_tp =
          ReadPartitionText(*base, warm_state->partition_text);
      const SpreadingMetric warm = RemapWarmMetric(*warm_state, *app);
      EcoResult er = RunEcoRepartition(*app, spec, old_tp, warm, params);
      result.warm_source = "state";
      result.eco_blocks_reused = er.blocks_reused;
      result.eco_blocks_recarved = er.blocks_recarved;
      result.eco_full_rebuild = er.full_rebuild;
      result.eco_warm_rounds = er.warm_rounds;
      result.eco_warm_injections = er.warm_injections;
      result.eco_converged = er.metric_converged;
      if (er.metric_cancelled) {
        result.completed = false;
        result.stop_reason = request.cancel.Cancelled()
                                 ? StopReason::kCancelled
                                 : StopReason::kDeadline;
      }
      tp = std::move(er.partition);
      if (request.emit_warm_state) emit_metric = std::move(er.metric);
    } else {
      HtpFlowResult flow_result = RunHtpFlow(hg, spec, params);
      result.completed = flow_result.completed;
      result.stop_reason = flow_result.stop_reason;
      result.iterations = std::move(flow_result.iterations);
      tp = std::move(flow_result.partition);
      if (request.emit_warm_state)
        emit_metric = std::move(flow_result.best_metric);
      if (result.eco) {
        // A delta without warm state: a cold run on the edited netlist.
        result.eco_full_rebuild = true;
        if (!result.iterations.empty()) {
          result.eco_warm_injections = result.iterations[0].injections;
          result.eco_converged = result.iterations[0].metric_converged;
        }
      }
    }
  } else if (request.algo == "rfm") {
    RfmParams rfm_params;
    rfm_params.seed = request.seed;
    rfm_params.cancel = run_token;
    tp = RunRfm(hg, spec, rfm_params);
  } else if (request.algo == "gfm") {
    GfmParams gfm_params;
    gfm_params.seed = request.seed;
    gfm_params.cancel = run_token;
    tp = RunGfm(hg, spec, gfm_params);
  } else {
    throw Error("unknown --algo '" + request.algo + "'");
  }
  result.cost = PartitionCost(tp, spec);

  if (request.refine) {
    HtpFmParams fm_params;
    fm_params.seed = request.seed;
    fm_params.cancel = run_token;
    result.fm = RefineHtpFm(tp, spec, fm_params);
    result.refined = true;
  }
  // A token that fired before the last stage returned cut the run short,
  // even where that stage cannot say so: rfm and gfm degrade their carves
  // instead of stopping, FM stops between passes, and a FLOW or ECO
  // construction drops its remaining carve attempts or replicas.
  if (result.completed && run_token.Cancelled()) {
    result.completed = false;
    result.stop_reason = run_token.FiredReason();
  }
  RequireValidPartition(tp, spec);
  result.partition = std::move(tp);

  if (request.emit_warm_state) {
    HTP_CHECK_MSG(emit_metric.has_value(),
                  "emit_warm_state: no converged metric on this path");
    result.warm_state =
        MakeWarmStartState(hg, *emit_metric, *result.partition, request.seed);
  }

  const obs::Snapshot snapshot = obs::TakeSnapshot();
  if (request.collect_report)
    result.report = RenderRunReport(request, result, snapshot);
  // No metric provider is installed, so every metric computation lowered
  // one private CsrView.
  result.cache.csr_misses = CounterTotal(snapshot, "flow.metrics");
  result.run_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace htp::serve
