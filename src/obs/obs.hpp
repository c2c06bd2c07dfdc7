// htp-obs: the telemetry layer (counters, timers, histograms, journal
// events, trace spans).
//
// The paper's evaluation is all per-phase numbers — injections per metric,
// worklist rounds, carve attempts, FM pass gains — so the pipeline records
// them through this layer instead of every bench re-deriving wall clocks.
//
// Model:
//   * `Counter` — a named monotonic value. Kind kSum accumulates, kind kMax
//     keeps the maximum recorded value (e.g. recursion depth). Counter
//     handles intern their name once (at static initialization) and then
//     increment a plain cell in a thread-local shard: no locks, no atomics
//     on the hot path.
//   * `Timer` + RAII `ScopedTimer` / `PhaseScope` — duration summaries
//     (count / total / min / max, in ns). `PhaseScope` additionally emits a
//     Chrome trace_event span (one lane per thread) while tracing is on.
//   * `Histogram` — log2-bucketed distribution of recorded values (count /
//     sum / min / max plus one bucket per power of two). Kind kValue for
//     algorithm quantities (rounds per metric, injections per metric) —
//     these join the determinism contract; kind kTimeNs for durations —
//     excluded, like timers. `ScopedHistogramTimer` is the RAII recorder
//     for the latter.
//   * `Event` — one journal record: interned name + up to kMaxEventFields
//     (key, double) payload pairs, buffered on the thread-local shard and
//     drained via `DrainEvents`. Events are the run journal the RunReport
//     (obs/report.hpp) serializes: per-injection-round records, per-
//     iteration records, per-uncoarsening-level records. Each record also
//     carries a timestamp for diagnostics; the timestamp is carved out of
//     the determinism contract exactly like timers, and DrainEvents orders
//     records by (name, payload) — never by time — so the drained journal
//     is a deterministic function of the recorded payloads.
//   * Scopes. Every record belongs to the scope active on the thread that
//     made it: the innermost `RunScope` installed there, else the process
//     scope. A record lands in the thread's shard first (plain cells, no
//     locks) and reaches its scope when the shard flushes: when the thread
//     enters or leaves a scope (`ScopeGuard`), when it reads its scope
//     (`TakeSnapshot`, `DrainEvents`, `DrainTrace`), and when it exits.
//     The runtime's `ParallelFor` runs each task under its caller's scope
//     and flushes the task's records before the join releases the caller,
//     so a caller that can observe anything sees every record its tasks
//     made. A `RunScope` that ends folds its counters, timers, histograms
//     and spans into the enclosing scope and drops its undrained journal:
//     a long-lived process (the htp_serve daemon) reports each run's
//     telemetry alone, still sums every run at the process scope, and never
//     keeps past runs' journals. Integer sums and maxes are
//     order-independent, which extends the `threads`-invariance guarantee
//     to counter and value-histogram totals; timers measure real durations
//     and are excluded from that guarantee (like
//     `HtpFlowIteration::wall_seconds`).
//
// Naming scheme (see docs/observability.md): dotted `subsystem.metric`
// paths — `flow.*` (Algorithm 2), `dijkstra.*`, `carve.*` (find_cut / MST
// split), `build.*` (Algorithm 3), `fm.*` (refiner), `driver.*`
// (Algorithm 1 phase spans), `multilevel.*` / `uncoarsen.*`.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace htp::obs {

/// How a counter merges: accumulate or keep the maximum.
enum class CounterKind : std::uint8_t { kSum, kMax };

/// What a histogram's values mean. kValue distributions are deterministic
/// functions of the inputs (they join the bit-identity contract); kTimeNs
/// distributions measure wall time and are excluded, like timers. The
/// RunReport uses the kind to route a histogram into its deterministic or
/// wall section.
enum class HistogramKind : std::uint8_t { kValue, kTimeNs };

/// One counter in a snapshot.
struct CounterValue {
  std::string name;
  CounterKind kind = CounterKind::kSum;
  std::uint64_t value = 0;
};

/// One timer in a snapshot. All durations in nanoseconds.
struct TimerValue {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
};

/// One histogram in a snapshot. `buckets[i]` counts recorded values v with
/// bit_width(v) == i: bucket 0 holds v == 0, bucket i >= 1 holds
/// v in [2^(i-1), 2^i). Trailing zero buckets are trimmed.
struct HistogramValue {
  std::string name;
  HistogramKind kind = HistogramKind::kValue;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;
};

/// Deterministic totals (counters, value histograms) + duration summaries
/// (timers, time histograms), all sorted by name. Interned-but-never-
/// recorded entries appear with zeros, so a report always covers every
/// instrumented subsystem.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<TimerValue> timers;
  std::vector<HistogramValue> histograms;
};

/// One completed phase span, resolved for the sinks. Timestamps are ns
/// since the process-wide epoch; `tid` is a small stable per-thread lane id
/// (assignment order is scheduling-dependent — traces are diagnostics, not
/// part of the determinism guarantee). Lane *names* are assigned by role
/// via NameThisThread (the thread pool names its workers `worker-<i>`), so
/// traces from repeated runs line up even though tids may not.
struct TraceEvent {
  std::string name;
  std::string arg_key;  ///< empty when the span carries no argument
  std::uint64_t arg_value = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// Maximum payload pairs one journal event can carry.
inline constexpr std::size_t kMaxEventFields = 8;

/// One drained journal record. `fields` preserves the order the recording
/// site passed them in — the site's order is the record's sort key, so put
/// the discriminating indices (iteration, round, level) first. `ts_ns` is
/// diagnostics only (see TraceEvent) and must not feed deterministic
/// artifacts; the RunReport drops it.
struct EventRecord {
  std::string name;
  std::uint64_t ts_ns = 0;
  std::vector<std::pair<std::string, double>> fields;
};

/// One payload pair at a recording site; `key` must be a string literal
/// (the hot path stores the pointer, resolution happens at drain time).
struct EventField {
  const char* key;
  double value;
};

/// A run scope's merged records (opaque). Shared by the RunScope that owns
/// it and by the ParallelFor tasks that run under it.
struct ScopeRecords;
using ScopeRef = std::shared_ptr<ScopeRecords>;

/// Named monotonic counter. Construct once (namespace-scope static at the
/// instrumentation site); `Add` is cheap enough for per-call use — batch
/// per-element quantities in a local and add once per call.
class Counter {
 public:
  explicit Counter(const char* name, CounterKind kind = CounterKind::kSum);
  void Add(std::uint64_t n = 1);

 private:
  std::uint32_t id_;
  CounterKind kind_;
};

/// Named duration summary; recorded through ScopedTimer / PhaseScope.
class Timer {
 public:
  explicit Timer(const char* name);
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// Named log2-bucketed distribution. Like Counter, construct once at
/// namespace scope; `Record` is a shard write plus a bit_width — cheap
/// enough for per-call use at phase granularity (per metric, per pass),
/// not meant for per-element loops.
class Histogram {
 public:
  explicit Histogram(const char* name,
                     HistogramKind kind = HistogramKind::kValue);
  void Record(std::uint64_t value);
  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

/// Records the wall-clock lifetime of the scope into a kTimeNs histogram.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram& histogram);
  ~ScopedHistogramTimer();
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram& histogram_;
  std::uint64_t start_ns_;
};

/// Named journal record type. `Record` buffers one EventRecord-to-be on the
/// calling thread's shard: name id, timestamp, and up to kMaxEventFields
/// (literal key, double) pairs — excess fields are dropped. Use at decision
/// granularity (once per injection round / iteration / level), not in hot
/// loops.
class Event {
 public:
  explicit Event(const char* name);
  void Record(std::initializer_list<EventField> fields);

 private:
  std::uint32_t id_;
};

/// Records the lifetime of the scope into `timer`. No trace event.
class ScopedTimer {
 public:
  explicit ScopedTimer(const Timer& timer);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::uint32_t id_;
  std::uint64_t start_ns_;
};

/// ScopedTimer that additionally emits a trace span (named after the timer,
/// on this thread's lane) while tracing is enabled. The optional argument
/// tags the span, e.g. {"iter": 3}; `arg_key` must be a string literal.
class PhaseScope {
 public:
  explicit PhaseScope(const Timer& timer, const char* arg_key = nullptr,
                      std::uint64_t arg_value = 0);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  std::uint32_t id_;
  std::uint64_t start_ns_;
  const char* arg_key_;
  std::uint64_t arg_value_;
};

/// Turns trace-span collection on/off (off by default; counters, timers,
/// histograms, and events are always recorded).
void SetTracing(bool enabled);
bool TracingEnabled();

/// Names the calling thread's trace lane (e.g. "main", "worker-0"). The
/// thread pool names its workers by pool index, which makes lane naming a
/// deterministic function of the code path rather than of first-touch
/// scheduling order. Survives ResetAll (the threads are still alive).
void NameThisThread(const std::string& name);

/// Lane names indexed by tid; unnamed lanes are empty strings (sinks fall
/// back to `htp-thread-<tid>`).
std::vector<std::string> TakeLaneNames();

/// The calling thread's scope's totals, after flushing the thread's own
/// shard. Another thread's records in the scope are included once that
/// thread flushed: after the ParallelFor that ran it returns, or after it
/// exited.
Snapshot TakeSnapshot();

/// Moves out the calling thread's scope's trace spans, ordered by (tid, ts)
/// so each lane reads chronologically.
std::vector<TraceEvent> DrainTrace();

/// Moves out the calling thread's scope's journal records, ordered by
/// (name, fields) — field pairs compare in recorded order, (key, value)
/// lexicographically — never by timestamp, so the order is bit-identical
/// across thread counts whenever the payloads are.
std::vector<EventRecord> DrainEvents();

/// Zeroes the calling thread's scope's counters, timers and histograms and
/// discards its trace spans and journal records, the thread's unflushed
/// ones included (benches use this to scope totals per circuit).
void ResetAll();

/// The calling thread's active run scope (null for the process scope).
ScopeRef CurrentScope();

/// Makes `scope` (null: the process scope) the calling thread's scope for
/// this object's lifetime, then restores the previous one. Both switches
/// first flush the thread's shard into the scope it leaves. ParallelFor
/// runs each task under one holding its caller's scope.
class ScopeGuard {
 public:
  explicit ScopeGuard(ScopeRef scope);
  ~ScopeGuard();
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  ScopeRef previous_;
};

/// One run's scope: a fresh scope installed on the calling thread until
/// destruction, so TakeSnapshot and DrainEvents there read the run's own
/// telemetry. On destruction its counters, timers, histograms and spans
/// fold into the enclosing scope and its undrained journal is dropped.
/// `serve::RunSession` installs one per run.
class RunScope {
 public:
  RunScope();
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

 private:
  ScopeRef scope_;
  ScopeRef enclosing_;
};

}  // namespace htp::obs
