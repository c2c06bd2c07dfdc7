#include "core/flow_injection.hpp"

#include <algorithm>
#include <cmath>

#include "netlist/rng.hpp"
#include "obs/obs.hpp"

namespace htp {
namespace {

// Algorithm 2 telemetry. Totals are schedule-independent (each metric
// computation is a deterministic function of its pre-forked seed), so they
// share the `threads`-invariance guarantee of the FLOW driver.
obs::Counter c_metrics("flow.metrics");
obs::Counter c_rounds("flow.rounds");
obs::Counter c_injections("flow.injections");
obs::Counter c_flooded_nets("flow.flooded_nets");
obs::Counter c_violated_tree_nodes("flow.violated_tree_nodes");
obs::Counter c_converged("flow.converged");
// Metric computations cut short by a fired CancellationToken. Non-zero only
// when a budget actually fires, so unbudgeted totals stay bit-identical.
obs::Counter c_rounds_truncated("flow.rounds_truncated");
// Computations seeded from a prior converged metric (ECO warm starts,
// docs/incremental.md); zero on cold runs, so cold totals are untouched.
obs::Counter c_warm_starts("flow.warm_starts");
obs::Timer t_compute_metric("flow.compute_metric");
// Distributions across metric computations (one Record per call). kValue:
// deterministic, so they land in the RunReport's deterministic section.
obs::Histogram h_rounds_per_metric("flow.rounds_per_metric");
obs::Histogram h_injections_per_metric("flow.injections_per_metric");
obs::Histogram h_compute_metric_ns("flow.compute_metric_ns",
                                   obs::HistogramKind::kTimeNs);
// Per-round journal record; `metric_seed` leads the payload so records from
// nested subproblems (multilevel levels, driver iterations — each with its
// own pre-forked seed) sort into distinct runs, `round` orders within one.
obs::Event e_round("flow.round");

// Applies FlowInjectionParams::warm_metric to the freshly epsilon-filled
// flow vector: each seed value d is inverted back into the flow that would
// produce it, clamped below by epsilon so a zeroed (touched) net starts
// exactly where a cold run would. No-op when no seed is set, keeping the
// cold path bit-identical.
void MaybeSeedWarmFlow(const Hypergraph& hg, const FlowInjectionParams& params,
                       std::vector<double>& flow) {
  if (!params.warm_metric) return;
  const SpreadingMetric& seed = *params.warm_metric;
  HTP_CHECK_MSG(seed.size() == hg.num_nets(),
                "warm_metric must carry exactly one value per net");
  for (NetId e = 0; e < hg.num_nets(); ++e) {
    HTP_CHECK_MSG(seed[e] >= 0.0, "warm_metric values must be >= 0");
    flow[e] = std::max(params.epsilon,
                       hg.net_capacity(e) * std::log1p(seed[e]) / params.alpha);
  }
  c_warm_starts.Add();
}

}  // namespace

FlowInjectionResult ComputeSpreadingMetric(const Hypergraph& hg,
                                           const HierarchySpec& spec,
                                           const FlowInjectionParams& params) {
  HTP_CHECK(params.epsilon > 0.0);
  HTP_CHECK(params.alpha > 0.0);
  HTP_CHECK(params.delta > 0.0);
  Rng rng(params.seed);
  obs::PhaseScope obs_span(t_compute_metric);
  obs::ScopedHistogramTimer obs_hist_span(h_compute_metric_ns);
  std::uint64_t flooded_nets = 0, violated_tree_nodes = 0;

  FlowInjectionResult result;
  result.flow.assign(hg.num_nets(), params.epsilon);
  MaybeSeedWarmFlow(hg, params, result.flow);
  result.metric.assign(hg.num_nets(), 0.0);
  // Running sum_e c(e) d(e), maintained incrementally: O(tree_nets) per
  // injection instead of an O(nets) sweep per round just to journal it.
  // Commits are serialized in deterministic order for every `threads`
  // value, so the float accumulation order — and the journaled mass — is
  // bit-identical too.
  double metric_mass = 0.0;
  auto update_length = [&](NetId e) {
    const double cap = hg.net_capacity(e);
    metric_mass -= cap * result.metric[e];
    result.metric[e] = std::exp(params.alpha * result.flow[e] / cap) - 1.0;
    metric_mass += cap * result.metric[e];
  };
  for (NetId e = 0; e < hg.num_nets(); ++e) update_length(e);

  // Worklist V' of possibly-violated sources. Lengths only grow, so a node
  // that passes a full constraint sweep can never become violated again and
  // leaves the worklist permanently.
  std::vector<NodeId> worklist(hg.num_nodes());
  for (NodeId v = 0; v < hg.num_nodes(); ++v) worklist[v] = v;
  std::vector<NodeId> still_violated;

  // Each round is a sequence of scan/commit batches over the shuffled
  // worklist: the scanner finds the lowest-index violating source after the
  // cursor against the current metric (in parallel when params.threads > 1),
  // then this thread — alone — injects flow and re-penalizes lengths. The
  // candidates the scanner looked at past the hit are re-scanned next batch
  // against the updated metric, so the sequence of injections, the RNG draw
  // order, and the surviving worklist are bit-for-bit the old serial sweep.
  ViolationScanner scanner(hg, spec, params.threads, params.csr);

  while (!worklist.empty() && result.rounds < params.max_rounds) {
    // Safepoint: between rounds the metric is fully re-penalized and the
    // worklist consistent, so stopping here leaves a usable partial metric.
    if (params.cancel.Cancelled()) {
      result.cancelled = true;
      break;
    }
    ++result.rounds;
    rng.shuffle(worklist);
    still_violated.clear();
    const std::size_t round_start_injections = result.injections;
    std::uint64_t round_flooded = 0, round_tree_nodes = 0;
    std::size_t cursor = 0;
    while (cursor < worklist.size()) {
      auto hit = scanner.FindFirstViolation(worklist, cursor, result.metric,
                                            params.tolerance);
      if (!hit) break;  // every source from cursor on is satisfied: drop all
      // Steps 2.1.4 / 2.1.5: flood the violating tree and re-penalize.
      for (NetId e : hit->tree_nets) {
        result.flow[e] += params.delta;
        update_length(e);
      }
      ++result.injections;
      flooded_nets += hit->tree_nets.size();
      violated_tree_nodes += hit->tree_nodes;
      round_flooded += hit->tree_nets.size();
      round_tree_nodes += hit->tree_nodes;
      // A tree with no nets (k == 1 with a single oversized node) can never
      // be repaired by injection; drop the node to guarantee progress.
      if (!hit->tree_nets.empty()) still_violated.push_back(hit->source);
      cursor = hit->index + 1;
      // Safepoint: after a commit (flood + re-penalize applied in full),
      // never mid-scan.
      if (params.cancel.Cancelled()) {
        result.cancelled = true;
        break;
      }
    }
    // One journal record per committed round, cancelled or not: the
    // trajectory of the convergence (how much mass each round added, how
    // fast the violating set shrank) is what the RunReport visualizes.
    e_round.Record(
        {{"metric_seed", static_cast<double>(params.seed)},
         {"round", static_cast<double>(result.rounds)},
         {"injections",
          static_cast<double>(result.injections - round_start_injections)},
         {"flooded_nets", static_cast<double>(round_flooded)},
         {"tree_nodes", static_cast<double>(round_tree_nodes)},
         {"metric_mass", metric_mass}});
    if (result.cancelled) break;
    std::swap(worklist, still_violated);
  }

  result.converged = worklist.empty() && !result.cancelled;
  if (result.cancelled) c_rounds_truncated.Add();
  result.metric_cost = MetricCost(hg, result.metric);
  c_metrics.Add();
  c_rounds.Add(result.rounds);
  c_injections.Add(result.injections);
  c_flooded_nets.Add(flooded_nets);
  c_violated_tree_nodes.Add(violated_tree_nodes);
  if (result.converged) c_converged.Add();
  h_rounds_per_metric.Record(result.rounds);
  h_injections_per_metric.Record(result.injections);
  return result;
}

FlowInjectionResult ComputePairPathSpreadingMetric(
    const Hypergraph& hg, const HierarchySpec& spec,
    const FlowInjectionParams& params) {
  HTP_CHECK(params.epsilon > 0.0);
  HTP_CHECK(params.alpha > 0.0);
  HTP_CHECK(params.delta > 0.0);
  Rng rng(params.seed);
  obs::PhaseScope obs_span(t_compute_metric);
  obs::ScopedHistogramTimer obs_hist_span(h_compute_metric_ns);
  std::uint64_t flooded_nets = 0;

  FlowInjectionResult result;
  result.flow.assign(hg.num_nets(), params.epsilon);
  MaybeSeedWarmFlow(hg, params, result.flow);
  result.metric.assign(hg.num_nets(), 0.0);
  auto update_length = [&](NetId e) {
    result.metric[e] =
        std::exp(params.alpha * result.flow[e] / hg.net_capacity(e)) - 1.0;
  };
  for (NetId e = 0; e < hg.num_nets(); ++e) update_length(e);

  std::vector<NodeId> worklist(hg.num_nodes());
  for (NodeId v = 0; v < hg.num_nodes(); ++v) worklist[v] = v;
  // Serial: the injection step walks the violating tree's parent links,
  // which only the single-source form returns.
  ViolationScanner scanner(hg, spec, 1, params.csr);

  while (!worklist.empty() && result.rounds < params.max_rounds) {
    // Same safepoint placement as ComputeSpreadingMetric: round top and
    // after each committed injection.
    if (params.cancel.Cancelled()) {
      result.cancelled = true;
      break;
    }
    ++result.rounds;
    rng.shuffle(worklist);
    std::vector<NodeId> still_violated;
    for (NodeId v : worklist) {
      if (result.cancelled) break;
      auto violation =
          scanner.FindViolationFrom(v, result.metric, params.tolerance);
      if (!violation) continue;
      // Pair-path injection: pick a random partner inside the violating
      // (under-spread) region and flood only the v -> u shortest path.
      const ShortestPathTree& tree = violation->tree;
      if (tree.order.size() < 2) continue;  // lone oversized node
      const NodeId u = tree.order[1 + rng.next_below(tree.order.size() - 1)];
      for (NodeId x = u; x != v && x != kInvalidNode;
           x = tree.parent[x].node) {
        const NetId e = tree.parent[x].net;
        if (e == kInvalidNet) break;
        result.flow[e] += params.delta;
        update_length(e);
        ++flooded_nets;
      }
      ++result.injections;
      still_violated.push_back(v);
      if (params.cancel.Cancelled()) result.cancelled = true;
    }
    if (result.cancelled) break;
    worklist = std::move(still_violated);
  }

  result.converged = worklist.empty() && !result.cancelled;
  if (result.cancelled) c_rounds_truncated.Add();
  result.metric_cost = MetricCost(hg, result.metric);
  c_metrics.Add();
  c_rounds.Add(result.rounds);
  c_injections.Add(result.injections);
  c_flooded_nets.Add(flooded_nets);
  if (result.converged) c_converged.Add();
  h_rounds_per_metric.Record(result.rounds);
  h_injections_per_metric.Record(result.injections);
  return result;
}

}  // namespace htp
