#include "core/spreading_metric.hpp"

#include <algorithm>
#include <atomic>

#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace htp {
namespace {

// Batch-scan telemetry. Every counter here is a function of (begin, hit,
// end) only — quantities the determinism contract already fixes — so totals
// are bit-identical across worker counts. Speculative work that a higher
// worker count performs and then cancels shows up in wall time only, never
// in a counter; the committed dijkstra.* totals are likewise restricted to
// the serial-order prefix [begin..hit].
obs::Counter c_scan_batches("flow.scan_batches");
obs::Counter c_scan_window("flow.scan_window");
obs::Counter c_scan_committed("flow.scan_committed");
obs::Counter c_scan_discarded("flow.scan_discarded");

// Below this many nodes a fork-join costs more than the scan it shelters.
// Safe to flip serially: results are worker-count independent by contract.
constexpr std::size_t kMinParallelNodes = 64;

// Relative safety margin on the stop certificate's extrapolated term
// r·(s(V) − T). The later verdicts accumulate lhs and size one settled node
// at a time; their rounding against this one product stays below 1e-9
// relative up to several million nodes (docs/algorithms.md).
constexpr double kCertificateMargin = 1e-9;

}  // namespace

SpreadingMetric MetricFromPartition(const TreePartition& tp,
                                    const HierarchySpec& spec) {
  const Hypergraph& hg = tp.hypergraph();
  SpreadingMetric metric(hg.num_nets(), 0.0);
  for (NetId e = 0; e < hg.num_nets(); ++e)
    metric[e] = NetCost(tp, spec, e) / hg.net_capacity(e);
  return metric;
}

double MetricCost(const Hypergraph& hg, const SpreadingMetric& metric) {
  HTP_CHECK(metric.size() == hg.num_nets());
  double total = 0.0;
  for (NetId e = 0; e < hg.num_nets(); ++e)
    total += hg.net_capacity(e) * metric[e];
  return total;
}

std::optional<SpreadingViolation> CheckSpreadingMetric(
    const Hypergraph& hg, const HierarchySpec& spec,
    const SpreadingMetric& metric, double tolerance) {
  ViolationScanner scanner(hg, spec, 1);
  for (NodeId v = 0; v < hg.num_nodes(); ++v)
    if (auto violation = scanner.FindViolationFrom(v, metric, tolerance))
      return violation;
  return std::nullopt;
}

// One candidate's scan result. Slots are indexed by candidate position, so
// workers never write the same slot and the committing thread reads them
// race-free after the fork-join barrier.
struct ViolationScanner::Slot {
  bool violated = false;
  std::size_t tree_nodes = 0;
  double tree_size = 0.0;
  double lhs = 0.0;
  double rhs = 0.0;
  std::vector<NetId> nets;  // sorted distinct tree nets, violated only
  DijkstraStats stats;      // this candidate's Dijkstra work (even if clean)
};

// Per-worker reusable state: the workspace keeps its epoch-stamped arrays
// and heap across batches, the tree keeps its node-sized vectors. Together
// these eliminate every per-candidate allocation on the steady state.
struct ViolationScanner::Worker {
  DijkstraWorkspace workspace;
  ShortestPathTree tree;
};

ViolationScanner::ViolationScanner(const Hypergraph& hg,
                                   const HierarchySpec& spec,
                                   std::size_t threads,
                                   std::shared_ptr<const CsrView> shared_csr)
    : hg_(hg),
      spec_(spec),
      csr_(std::move(shared_csr)),
      total_size_(hg.total_size()),
      g_cap_(spec.g(total_size_)) {
  if (!csr_) {
    csr_ = std::make_shared<const CsrView>(hg);
  } else {
    // A mismatched view would silently scan the wrong topology; the check
    // is cheap and catches stale cache entries at the boundary.
    HTP_CHECK(csr_->num_nodes() == hg.num_nodes());
    HTP_CHECK(csr_->num_nets() == hg.num_nets());
  }
  workers_ = ResolveThreadCount(threads);
  // Nested-parallelism guard: inside a parallel FLOW iteration each pool
  // worker gets a serial scanner instead of a pool-within-a-pool.
  if (InParallelWorker()) workers_ = 1;
  if (hg.num_nodes() < kMinParallelNodes) workers_ = 1;
  if (workers_ > 1) pool_ = std::make_unique<ThreadPool>(workers_);
  worker_state_ = std::make_unique<Worker[]>(workers_);
}

ViolationScanner::~ViolationScanner() = default;

// On a violated prefix, records it into `slot` and stops the growth. Also
// stops once no remaining prefix can violate — the concave stop certificate
// (docs/algorithms.md). Every node settled later lies at distance >= r, the
// distance just settled, so a future prefix of size X has
// lhs >= wd + r·(X − T). g is convex (w_i >= 0), so wd + r·(X − T) − g(X)
// is concave on [T, s(V)] and its minimum sits at an endpoint: X = T is the
// prefix just checked, and X = s(V) is the test below. The extrapolated
// term is shrunk by kCertificateMargin to absorb its rounding against the
// sums the later verdicts would accumulate; at r = 0 it vanishes and the
// test is exactly the older exit wd + tol >= g(s(V)).
// Deterministic — a pure function of (source, metric) — so thread-invariant.
inline GrowAction ViolationScanner::CheckPrefix(const GrowState& state,
                                                double tolerance,
                                                Slot& slot) const {
  const double rhs = spec_.g(state.tree_size);
  if (state.weighted_dist + tolerance < rhs) {
    slot.violated = true;
    slot.tree_nodes = state.tree_nodes;
    slot.tree_size = state.tree_size;
    slot.lhs = state.weighted_dist;
    slot.rhs = rhs;
    return GrowAction::kStop;
  }
  const double reach = state.distance * (total_size_ - state.tree_size) *
                       (1.0 - kCertificateMargin);
  if (state.weighted_dist + reach + tolerance >= g_cap_)
    return GrowAction::kStop;
  return GrowAction::kContinue;
}

std::optional<SpreadingViolation> ViolationScanner::FindViolationFrom(
    NodeId source, const SpreadingMetric& metric, double tolerance) {
  HTP_CHECK(metric.size() == hg_.num_nets());
  Worker& worker = worker_state_[0];
  Slot slot;
  worker.workspace.Grow(
      *csr_, source, metric,
      [&](const GrowState& state) {
        return CheckPrefix(state, tolerance, slot);
      },
      worker.tree, &slot.stats);
  RecordDijkstraCounters(slot.stats, 1);
  if (!slot.violated) return std::nullopt;
  return SpreadingViolation{source,         slot.tree_nodes,
                            slot.tree_size, slot.lhs,
                            slot.rhs,       std::move(worker.tree)};
}

std::optional<ViolationScanner::ScanHit> ViolationScanner::FindFirstViolation(
    std::span<const NodeId> candidates, std::size_t begin,
    const SpreadingMetric& metric, double tolerance) {
  HTP_CHECK(metric.size() == hg_.num_nets());
  const std::size_t end = candidates.size();
  HTP_CHECK(begin <= end);
  if (begin == end) return std::nullopt;
  if (slots_.size() < end) slots_.resize(end);

  // Workers grab candidate indices from `next`; `first_violation` is the
  // CAS-min of violating indices found so far. A worker holding index i may
  // stop — mid-Dijkstra or before starting — once first_violation < i,
  // because a lower-indexed violation always wins the commit. Cancellation
  // never loses work we need: grabbed indices only increase and
  // first_violation only decreases, so every index below the final hit was
  // scanned to completion.
  std::atomic<std::size_t> next{begin};
  std::atomic<std::size_t> first_violation{end};

  auto scan = [&](std::size_t /*worker_rank*/, Worker& worker) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      if (first_violation.load(std::memory_order_acquire) < i) return;
      Slot& slot = slots_[i];
      slot.violated = false;
      slot.stats = DijkstraStats{};
      bool cancelled = false;
      worker.workspace.Grow(
          *csr_, candidates[i], metric,
          [&](const GrowState& state) {
            if (first_violation.load(std::memory_order_relaxed) < i) {
              cancelled = true;
              return GrowAction::kStop;
            }
            return CheckPrefix(state, tolerance, slot);
          },
          worker.tree, &slot.stats);
      if (cancelled) return;  // a lower index already won; nothing after
                              // this index can commit either
      if (slot.violated) {
        TreeNetsInto(worker.tree, slot.nets);
        // CAS-min: publish i as the best-so-far violation.
        std::size_t cur = first_violation.load(std::memory_order_relaxed);
        while (i < cur && !first_violation.compare_exchange_weak(
                              cur, i, std::memory_order_release,
                              std::memory_order_relaxed)) {
        }
      }
    }
  };

  const std::size_t window = end - begin;
  const std::size_t launch = std::min(workers_, window);
  if (launch > 1) {
    ParallelFor(*pool_, launch,
                [&](std::size_t r) { scan(r, worker_state_[r]); });
  } else {
    scan(0, worker_state_[0]);
  }

  // Deterministic sequential commit: everything up to and including the hit
  // is exactly the work a serial sweep would have done — credit it to the
  // dijkstra.* counters; everything past the hit is speculation the caller
  // will re-scan, so it stays out of every counter.
  const std::size_t hit = first_violation.load(std::memory_order_acquire);
  const std::size_t commit_end = std::min(hit + 1, end);
  DijkstraStats committed;
  for (std::size_t i = begin; i < commit_end; ++i) committed += slots_[i].stats;
  RecordDijkstraCounters(committed, commit_end - begin);
  c_scan_batches.Add();
  c_scan_window.Add(window);
  c_scan_committed.Add(commit_end - begin);
  c_scan_discarded.Add(end - commit_end);

  if (hit == end) return std::nullopt;
  Slot& slot = slots_[hit];
  ScanHit result;
  result.index = hit;
  result.source = candidates[hit];
  result.tree_nodes = slot.tree_nodes;
  result.tree_size = slot.tree_size;
  result.lhs = slot.lhs;
  result.rhs = slot.rhs;
  result.tree_nets = slot.nets;
  return result;
}

}  // namespace htp
