#include "core/spreading_metric.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

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
// Committed candidates that a ball certificate let pass without a growth.
// Credited in serial order like dijkstra.*, so it is schedule-independent.
obs::Counter c_ball_skips("flow.ball_skips");

// Below this many nodes a fork-join costs more than the scan it shelters.
// Safe to flip serially: results are worker-count independent by contract.
constexpr std::size_t kMinParallelNodes = 64;

// Relative safety margin on the stop certificate's extrapolated term
// r·(s(V) − T). The later verdicts accumulate lhs and size one settled node
// at a time; their rounding against this one product stays below 1e-9
// relative up to several million nodes (docs/algorithms.md).
constexpr double kCertificateMargin = 1e-9;

// Unit roundoff of double: every rounded operation has relative error at
// most this. The ball certificate's margin is a multiple of it
// (docs/algorithms.md, "Ball certificates").
constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Calls `mark` on every settled node of `tree` within `radius` of its
// source: the ball a passing growth certifies (a negative radius marks
// nothing). Settling order is nondecreasing in distance.
template <typename Mark>
void ForEachInBall(const ShortestPathTree& tree, double radius, Mark&& mark) {
  for (NodeId x : tree.order) {
    if (tree.dist[x] > radius) return;
    mark(x);
  }
}

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
  bool grown = false;      // parallel scans: a worker grew it to a verdict
  bool violated = false;
  bool cancelled = false;
  std::size_t tree_nodes = 0;
  double tree_size = 0.0;
  double lhs = 0.0;
  double rhs = 0.0;
  std::vector<NetId> nets;  // sorted distinct tree nets, violated only
  DijkstraStats stats;      // this candidate's Dijkstra work (even if clean)
  // Parallel scans, passing growths only: the ball, as the range
  // [ball_begin, ball_end) of worker `ball_worker`'s ball buffer.
  std::size_t ball_worker = 0;
  std::size_t ball_begin = 0;
  std::size_t ball_end = 0;
};

// Per-worker reusable state: the workspace keeps its epoch-stamped arrays
// and heap across batches, the tree keeps its node-sized vectors. Together
// these eliminate every per-candidate allocation on the steady state.
// `balls` holds the balls this worker grew in the current parallel batch,
// for the commit replay (serial scans apply balls straight from the tree).
struct ViolationScanner::Worker {
  DijkstraWorkspace workspace;
  ShortestPathTree tree;
  std::vector<NodeId> balls;
};

// The ball certificate of one growth from v (docs/algorithms.md, "Ball
// certificates"). With F the nearest-first fill of the settled prefix —
// W_{k-1} + d_k·(X − T_{k-1}) on [T_{k-1}, T_k], continued at the last
// settled distance r past T_k — every node u with d(v,u) <= ρ passes (5),
// where
//
//   ρ = min over X in [C_0, s(V)] of (F(X) − g(X) + tol) / X.
//
// F and g are linear between the settled sizes T_k and g's breakpoints C_l,
// and on a linear piece the ratio is monotone, so the minimum sits at one
// of those points or at s(V). The points up to T_k (the settled part) only
// ever gain members as the growth goes on, so their minimum is tracked one
// settled node at a time; the points past T_k (the tail) are re-evaluated
// from the current r, which grows, so the tail only rises. A growth that
// settles v's whole component has no tail: every other node is infinitely
// far from v and from every u in the ball, so no prefix of u reaches it.
class ViolationScanner::BallBound {
 public:
  BallBound(const ViolationScanner& scanner, double tolerance)
      : scanner_(scanner), tolerance_(tolerance) {}

  // Folds in the node just settled; `rhs` = g(state.tree_size).
  void Settle(const GrowState& state, double rhs) {
    const double r = state.distance;
    const std::vector<BallCap>& caps = scanner_.ball_caps_;
    // Breakpoints of g crossed by this node's piece [T_{k-1}, T_k].
    for (; next_cap_ < caps.size() && caps[next_cap_].size <= state.tree_size;
         ++next_cap_) {
      const BallCap& cap = caps[next_cap_];
      settled_min_ = std::min(
          settled_min_,
          Ratio(weighted_ + r * (cap.size - size_), cap.size, cap.g));
    }
    if (!caps.empty() && state.tree_size > caps.front().size)
      settled_min_ = std::min(
          settled_min_, Ratio(state.weighted_dist, state.tree_size, rhs));
    if (state.tree_nodes == 2) nearest_other_ = r;
    size_ = state.tree_size;
    weighted_ = state.weighted_dist;
    radius_ = r;
  }

  // The extension's stop rule, checked after Settle once the concave stop
  // certificate has fired on the growth's `tree`: (b) the ball can never
  // hold another node; (a) the tail no longer lowers ρ, so ρ already equals
  // its value at exhaustion; or (c) the ball can no longer change: ρ only
  // rises during the extension and never exceeds the settled part's
  // minimum S, so once the first settled node outside the current ball
  // lies farther than S, no later node can join it.
  bool Done(const ShortestPathTree& tree) {
    const std::size_t settled = tree.order.size();
    if (settled >= 2 && settled_min_ < nearest_other_) return true;
    if (TailMin() >= settled_min_) return true;
    // No settled node lies past radius_, the distance just settled, so (c)
    // needs radius_ > S. Then the node just settled is outside the ball
    // (Radius() <= S), which bounds the forward scan.
    if (radius_ <= settled_min_) return false;
    const double ball = Radius();
    const auto dist_at = [&](std::size_t i) {
      return tree.dist[tree.order[i]];
    };
    while (dist_at(outside_) <= ball) ++outside_;
    while (outside_ > 0 && dist_at(outside_ - 1) > ball) --outside_;
    return dist_at(outside_) > settled_min_;
  }

  // The growth ended with an empty frontier: v's component is settled.
  void Exhausted() { exhausted_ = true; }

  // ρ shrunk by the float margin; negative radii certify nothing.
  double Radius() const {
    const double rho = std::min(settled_min_, TailMin());
    const double c0 = scanner_.spec_.capacity(0);
    return rho - scanner_.ball_margin_ *
                     (radius_ + scanner_.g_slope_ + tolerance_ / c0);
  }

 private:
  // (F(X) − g(X) + tol) / X at one point X = `size`.
  double Ratio(double fill, double size, double g) const {
    return (fill + tolerance_ - g) / size;
  }

  // The ratio at the tail's points: g's breakpoints past T_k, and s(V).
  double TailMin() const {
    const double total = scanner_.total_size_;
    if (exhausted_ || size_ >= total) return kInf;
    const std::vector<BallCap>& caps = scanner_.ball_caps_;
    double best =
        Ratio(weighted_ + radius_ * (total - size_), total, scanner_.g_cap_);
    for (std::size_t l = next_cap_; l < caps.size(); ++l)
      best = std::min(best, Ratio(weighted_ + radius_ * (caps[l].size - size_),
                                  caps[l].size, caps[l].g));
    return best;
  }

  const ViolationScanner& scanner_;
  double tolerance_;
  double settled_min_ = kInf;
  double nearest_other_ = kInf;
  double size_ = 0.0;      // T_k
  double weighted_ = 0.0;  // W_k
  double radius_ = 0.0;    // r = d_k
  std::size_t next_cap_ = 0;
  // Settling-order index of the first settled node outside the ball, as of
  // the last check of rule (c).
  std::size_t outside_ = 0;
  bool exhausted_ = false;
};

ViolationScanner::ViolationScanner(const Hypergraph& hg,
                                   const HierarchySpec& spec,
                                   std::size_t threads,
                                   std::shared_ptr<const CsrView> shared_csr)
    : hg_(hg),
      spec_(spec),
      csr_(std::move(shared_csr)),
      total_size_(hg.total_size()),
      g_cap_(spec.g(total_size_)),
      certified_(hg.num_nodes(), 0) {
  for (Level l = 0; l < spec.root_level(); ++l) {
    const double cap = spec.capacity(l);
    if (cap < total_size_) ball_caps_.push_back({cap, spec.g(cap)});
    g_slope_ += 2.0 * spec.weight(l);
  }
  // Covers the rounding of path sums over up to n nets, of prefix sums
  // over up to n nodes, and of ρ's own evaluation (docs/algorithms.md,
  // "Ball certificates", float margin).
  ball_margin_ = 8.0 *
                 static_cast<double>(hg.num_nodes() + spec.num_levels() + 4) *
                 kUnitRoundoff;
  if (!csr_) {
    csr_ = std::make_shared<const CsrView>(hg);
  } else {
    // A mismatched view would silently scan the wrong topology; the check
    // is cheap and catches a view lowered from another hypergraph.
    HTP_CHECK(csr_->num_nodes() == hg.num_nodes());
    HTP_CHECK(csr_->num_nets() == hg.num_nets());
  }
  workers_ = ResolveThreadCount(threads);
  // Nested-parallelism guard: inside a parallel FLOW iteration each pool
  // worker gets a serial scanner instead of a pool-within-a-pool.
  if (InParallelWorker()) workers_ = 1;
  if (hg.num_nodes() < kMinParallelNodes) workers_ = 1;
  if (workers_ > 1) {
    pool_ = std::make_unique<ThreadPool>(workers_);
    hint_ = std::make_unique<std::atomic<std::uint32_t>[]>(hg.num_nodes());
  }
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
                                                double rhs, double tolerance,
                                                Slot& slot) const {
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
        return CheckPrefix(state, spec_.g(state.tree_size), tolerance, slot);
      },
      worker.tree, &slot.stats);
  RecordDijkstraCounters(slot.stats, 1);
  if (!slot.violated) return std::nullopt;
  return SpreadingViolation{source,         slot.tree_nodes,
                            slot.tree_size, slot.lhs,
                            slot.rhs,       std::move(worker.tree)};
}

// Until the concave stop certificate fires, this is FindViolationFrom's
// growth. A passing growth then keeps going for its ball — without further
// verdict checks, since the certificate already proved that no later prefix
// violates — until BallBound::Done. Everything here is a pure function of
// (source, metric), so the ball is as thread-invariant as the verdict.
double ViolationScanner::GrowCandidate(
    NodeId source, const SpreadingMetric& metric, double tolerance,
    Worker& worker, Slot& slot, const std::atomic<std::size_t>* cancel_below,
    std::size_t index) const {
  slot.violated = false;
  slot.cancelled = false;
  slot.stats = DijkstraStats{};
  BallBound ball(*this, tolerance);
  bool passed = false;  // set once the stop certificate fires
  bool stopped = false;
  worker.workspace.Grow(
      *csr_, source, metric,
      [&](const GrowState& state) {
        if (cancel_below &&
            cancel_below->load(std::memory_order_relaxed) < index) {
          slot.cancelled = true;
          stopped = true;
          return GrowAction::kStop;
        }
        const double rhs = spec_.g(state.tree_size);
        if (!passed) {
          const GrowAction action = CheckPrefix(state, rhs, tolerance, slot);
          if (slot.violated) {
            stopped = true;
            return GrowAction::kStop;
          }
          passed = action == GrowAction::kStop;
        }
        ball.Settle(state, rhs);
        if (!passed) return GrowAction::kContinue;
        stopped = ball.Done(worker.tree);
        return stopped ? GrowAction::kStop : GrowAction::kContinue;
      },
      worker.tree, &slot.stats);
  if (slot.violated || slot.cancelled) return -1.0;
  if (!stopped) ball.Exhausted();
  return ball.Radius();
}

std::optional<ViolationScanner::ScanHit> ViolationScanner::FindFirstViolation(
    std::span<const NodeId> candidates, std::size_t begin,
    const SpreadingMetric& metric, double tolerance) {
  HTP_CHECK(metric.size() == hg_.num_nets());
  const std::size_t end = candidates.size();
  HTP_CHECK(begin <= end);
  if (begin == end) return std::nullopt;
  if (slots_.size() < end) slots_.resize(end);
  const std::size_t window = end - begin;
  const std::size_t launch = std::min(workers_, window);

  // Parallel speculation. Workers grab candidate indices from `next`;
  // `first_violation` is the CAS-min of violating indices found so far. A
  // worker holding index i may stop — mid-Dijkstra or before starting —
  // once first_violation < i, because a lower-indexed violation always wins
  // the commit. Cancellation never loses work we need: grabbed indices only
  // increase and first_violation only decreases, so every index below the
  // final hit was scanned to completion. A certified candidate passes, so
  // workers skip it; so is one covered by a ball a concurrent worker just
  // grew (a hint: sound at this metric, but not necessarily what the
  // serial order applies). Violated candidates are never certified, so the
  // CAS-min still finds the serial hit.
  std::atomic<std::size_t> first_violation{end};
  if (launch > 1) {
    if (++hint_epoch_ == 0) {  // wrapped: clear every stale stamp
      for (std::size_t v = 0; v < hg_.num_nodes(); ++v)
        hint_[v].store(0, std::memory_order_relaxed);
      hint_epoch_ = 1;
    }
    const std::uint32_t epoch = hint_epoch_;
    std::atomic<std::size_t> next{begin};
    ParallelFor(*pool_, launch, [&](std::size_t rank) {
      Worker& worker = worker_state_[rank];
      worker.balls.clear();
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= end) return;
        if (first_violation.load(std::memory_order_acquire) < i) return;
        Slot& slot = slots_[i];
        slot.grown = false;
        const NodeId v = candidates[i];
        if (certified_[v] ||
            hint_[v].load(std::memory_order_relaxed) == epoch)
          continue;
        const double radius = GrowCandidate(v, metric, tolerance, worker,
                                            slot, &first_violation, i);
        if (slot.cancelled) return;  // a lower index already won; nothing
                                     // after this index can commit either
        slot.grown = true;
        if (slot.violated) {
          TreeNetsInto(worker.tree, slot.nets);
          // CAS-min: publish i as the best-so-far violation.
          std::size_t cur = first_violation.load(std::memory_order_relaxed);
          while (i < cur && !first_violation.compare_exchange_weak(
                                cur, i, std::memory_order_release,
                                std::memory_order_relaxed)) {
          }
          continue;
        }
        slot.ball_worker = rank;
        slot.ball_begin = worker.balls.size();
        ForEachInBall(worker.tree, radius, [&](NodeId x) {
          worker.balls.push_back(x);
          hint_[x].store(epoch, std::memory_order_relaxed);
        });
        slot.ball_end = worker.balls.size();
      }
    });
  }

  // Deterministic commit: replay [begin, hit] in serial order. A candidate
  // counts as skipped iff a ball committed before it covers it; every other
  // one is grown — by a worker above, or here when a worker skipped it on a
  // hint (or this is a serial scan, which grows everything here) — its work
  // is credited to the dijkstra.* counters, and its ball is committed.
  // Balls of candidates the serial order skips are never applied, and work
  // past the hit is speculation the caller re-scans, so it stays out of
  // every counter: totals and the certified set match the serial scan.
  const std::size_t scanned = first_violation.load(std::memory_order_acquire);
  const std::size_t replay_end = std::min(scanned + 1, end);
  std::size_t hit = end;
  std::uint64_t grown = 0, skipped = 0;
  DijkstraStats committed;
  Worker& local = worker_state_[0];
  for (std::size_t i = begin; i < replay_end; ++i) {
    const NodeId v = candidates[i];
    if (certified_[v]) {
      ++skipped;
      continue;
    }
    Slot& slot = slots_[i];
    if (launch > 1 && slot.grown) {
      const std::vector<NodeId>& balls =
          worker_state_[slot.ball_worker].balls;
      if (!slot.violated)
        for (std::size_t b = slot.ball_begin; b < slot.ball_end; ++b)
          certified_[balls[b]] = 1;
    } else {
      const double radius =
          GrowCandidate(v, metric, tolerance, local, slot, nullptr, i);
      if (slot.violated) TreeNetsInto(local.tree, slot.nets);
      ForEachInBall(local.tree, radius, [&](NodeId x) { certified_[x] = 1; });
    }
    ++grown;
    committed += slot.stats;
    if (slot.violated) {
      hit = i;
      break;
    }
  }
  // A sound certificate never covers a violated candidate, so a parallel
  // replay stops exactly where the workers' CAS-min did.
  HTP_CHECK_MSG(launch == 1 || hit == scanned,
                "ball certificate covered a violation");
  const std::size_t commit_end = std::min(hit + 1, end);
  RecordDijkstraCounters(committed, grown);
  c_ball_skips.Add(skipped);
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
