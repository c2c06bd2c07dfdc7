#include "lp/spreading_lp.hpp"

#include <algorithm>

namespace htp {

SpreadingLpResult SolveSpreadingLp(const Hypergraph& hg,
                                   const HierarchySpec& spec,
                                   const SpreadingLpOptions& options) {
  SpreadingLpResult result;
  const NetId m = hg.num_nets();

  LpProblem lp;
  lp.num_vars = m;
  lp.objective.resize(m);
  for (NetId e = 0; e < m; ++e) lp.objective[e] = hg.net_capacity(e);

  SpreadingMetric metric(m, 0.0);
  // Serial: each cut row needs the violating tree's subtree sizes, which
  // only the single-source form returns.
  ViolationScanner scanner(hg, spec, 1);
  for (std::size_t round = 1; round <= options.max_rounds; ++round) {
    result.rounds = round;

    // Separation sweep: one violated tree-prefix row per violated source.
    std::size_t added = 0;
    bool pool_capped = false;
    for (NodeId v = 0; v < hg.num_nodes(); ++v) {
      if (lp.rows.size() >= options.max_cuts) {
        pool_capped = true;
        break;
      }
      auto violation = scanner.FindViolationFrom(v, metric, options.tolerance);
      if (!violation) continue;
      LpRow row;
      row.coeffs.assign(m, 0.0);
      for (const auto& [e, delta] : TreeSubtreeSizes(hg, violation->tree))
        row.coeffs[e] = delta;
      row.rel = Relation::kGreaterEqual;
      row.rhs = violation->rhs;
      lp.rows.push_back(std::move(row));
      ++added;
    }
    if (added == 0) {
      // Converged only when a FULL sweep found nothing to separate; a sweep
      // cut short by the pool cap proves nothing about feasibility.
      result.converged = !pool_capped;
      break;
    }

    const LpSolution sol = SolveLp(lp);
    if (sol.status != LpStatus::kOptimal) {
      // (P1) is always feasible (large enough d satisfies everything) and
      // bounded below by 0; any other status signals numeric trouble.
      result.status = sol.status;
      return result;
    }
    // d >= 0 in (P1); the simplex may leave round-off just below zero,
    // which the oracle's growths must not see.
    for (std::size_t e = 0; e < m; ++e) metric[e] = std::max(sol.x[e], 0.0);
    result.lower_bound = sol.objective;
  }

  result.status = LpStatus::kOptimal;
  result.metric = std::move(metric);
  result.cuts = lp.rows.size();
  return result;
}

}  // namespace htp
