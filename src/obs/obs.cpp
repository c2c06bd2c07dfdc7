#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <mutex>
#include <utility>

namespace htp::obs {
namespace {

std::uint64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::atomic<bool> g_tracing{false};

struct TimerCell {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ns = 0;

  void Record(std::uint64_t dur_ns) {
    ++count;
    total_ns += dur_ns;
    min_ns = std::min(min_ns, dur_ns);
    max_ns = std::max(max_ns, dur_ns);
  }
  void MergeFrom(const TimerCell& other) {
    count += other.count;
    total_ns += other.total_ns;
    min_ns = std::min(min_ns, other.min_ns);
    max_ns = std::max(max_ns, other.max_ns);
  }
};

// bit_width(v) in [0, 64] indexes the log2 bucket: 0 for v == 0, i for
// v in [2^(i-1), 2^i).
constexpr std::size_t kHistogramBuckets = 65;

struct HistogramCell {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  void Record(std::uint64_t value) {
    ++count;
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
    ++buckets[std::bit_width(value)];
  }
  void MergeFrom(const HistogramCell& other) {
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    for (std::size_t i = 0; i < kHistogramBuckets; ++i)
      buckets[i] += other.buckets[i];
  }
};

// A span as recorded on the hot path: timer id + literal arg key, resolved
// to strings only when drained.
struct RawEvent {
  std::uint32_t timer_id;
  std::uint32_t tid;
  const char* arg_key;
  std::uint64_t arg_value;
  std::uint64_t ts_ns;
  std::uint64_t dur_ns;
};

// A journal record as buffered on the hot path: event id, timestamp, and
// the literal-key payload pairs. Fixed capacity — excess fields at the
// recording site are dropped (the sites are ours; kMaxEventFields is an
// API promise, not a runtime surprise).
struct RawJournal {
  std::uint32_t event_id;
  std::uint32_t num_fields;
  std::uint64_t ts_ns;
  std::array<EventField, kMaxEventFields> fields;
};

}  // namespace

// Records by interned id: a thread's unflushed shard, or a scope's merged
// totals. Cells past the end of a vector read zero.
struct ScopeRecords {
  std::vector<std::uint64_t> counters;
  std::vector<TimerCell> timers;
  std::vector<HistogramCell> histograms;
  std::vector<RawEvent> spans;
  std::vector<RawJournal> journal;

  bool empty() const {
    return counters.empty() && timers.empty() && histograms.empty() &&
           spans.empty() && journal.empty();
  }
  void clear() {
    counters.clear();
    timers.clear();
    histograms.clear();
    spans.clear();
    journal.clear();
  }
};

namespace {

// Process-wide registry: interned names plus the process scope. One mutex
// serializes interning and every scope's totals; a thread's shard is
// touched only by that thread until it flushes here.
class Registry {
 public:
  static Registry& Get() {
    static Registry registry;
    return registry;
  }

  std::uint32_t InternCounter(const char* name, CounterKind kind) {
    std::lock_guard<std::mutex> lock(mutex_);
    counter_names_.emplace_back(name);
    counter_kinds_.push_back(kind);
    return static_cast<std::uint32_t>(counter_names_.size() - 1);
  }

  std::uint32_t InternTimer(const char* name) {
    std::lock_guard<std::mutex> lock(mutex_);
    timer_names_.emplace_back(name);
    return static_cast<std::uint32_t>(timer_names_.size() - 1);
  }

  std::uint32_t InternHistogram(const char* name, HistogramKind kind) {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_names_.emplace_back(name);
    histogram_kinds_.push_back(kind);
    return static_cast<std::uint32_t>(histogram_names_.size() - 1);
  }

  std::uint32_t InternEvent(const char* name) {
    std::lock_guard<std::mutex> lock(mutex_);
    event_names_.emplace_back(name);
    return static_cast<std::uint32_t>(event_names_.size() - 1);
  }

  std::uint32_t AssignTid() {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_tid_++;
  }

  void NameLane(std::uint32_t tid, const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (lane_names_.size() <= tid) lane_names_.resize(tid + 1);
    lane_names_[tid] = name;
  }

  std::vector<std::string> LaneNames() {
    std::lock_guard<std::mutex> lock(mutex_);
    return lane_names_;
  }

  // In each of these, a null `scope` names the process scope.

  // Moves a thread's shard into its scope.
  void Flush(ScopeRecords& shard, ScopeRecords* scope) {
    if (shard.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    ScopeRecords& into = Target(scope);
    MergeTotalsLocked(shard, into);
    into.journal.insert(into.journal.end(), shard.journal.begin(),
                        shard.journal.end());
    shard.clear();
  }

  // Folds an ended run scope into its enclosing scope; the journal is
  // dropped.
  void Fold(ScopeRecords& run, ScopeRecords* enclosing) {
    std::lock_guard<std::mutex> lock(mutex_);
    MergeTotalsLocked(run, Target(enclosing));
    run.clear();
  }

  Snapshot TakeSnapshot(ScopeRecords* scope);
  std::vector<TraceEvent> DrainTrace(ScopeRecords* scope);
  std::vector<EventRecord> DrainEvents(ScopeRecords* scope);

  void Reset(ScopeRecords* scope) {
    std::lock_guard<std::mutex> lock(mutex_);
    Target(scope).clear();
  }

 private:
  ScopeRecords& Target(ScopeRecords* scope) {
    return scope ? *scope : process_;
  }

  void MergeTotalsLocked(const ScopeRecords& from, ScopeRecords& into) {
    if (into.counters.size() < from.counters.size())
      into.counters.resize(from.counters.size(), 0);
    for (std::size_t i = 0; i < from.counters.size(); ++i) {
      if (counter_kinds_[i] == CounterKind::kSum)
        into.counters[i] += from.counters[i];
      else
        into.counters[i] = std::max(into.counters[i], from.counters[i]);
    }
    if (into.timers.size() < from.timers.size())
      into.timers.resize(from.timers.size());
    for (std::size_t i = 0; i < from.timers.size(); ++i)
      if (from.timers[i].count > 0) into.timers[i].MergeFrom(from.timers[i]);
    if (into.histograms.size() < from.histograms.size())
      into.histograms.resize(from.histograms.size());
    for (std::size_t i = 0; i < from.histograms.size(); ++i)
      if (from.histograms[i].count > 0)
        into.histograms[i].MergeFrom(from.histograms[i]);
    into.spans.insert(into.spans.end(), from.spans.begin(), from.spans.end());
  }

  TraceEvent Resolve(const RawEvent& raw) const {
    return TraceEvent{timer_names_[raw.timer_id],
                      raw.arg_key ? raw.arg_key : "",
                      raw.arg_value,
                      raw.ts_ns,
                      raw.dur_ns,
                      raw.tid};
  }
  EventRecord ResolveJournal(const RawJournal& raw) const {
    EventRecord record;
    record.name = event_names_[raw.event_id];
    record.ts_ns = raw.ts_ns;
    record.fields.reserve(raw.num_fields);
    for (std::uint32_t i = 0; i < raw.num_fields; ++i)
      record.fields.emplace_back(raw.fields[i].key, raw.fields[i].value);
    return record;
  }

  std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::vector<CounterKind> counter_kinds_;
  std::vector<std::string> timer_names_;
  std::vector<std::string> histogram_names_;
  std::vector<HistogramKind> histogram_kinds_;
  std::vector<std::string> event_names_;
  ScopeRecords process_;
  std::vector<std::string> lane_names_;
  std::uint32_t next_tid_ = 0;
};

// A thread's unflushed records and its active scope (null: the process
// scope). Touched without synchronization by the owning thread only.
struct ThreadShard {
  ScopeRecords records;
  ScopeRef scope;
  std::uint32_t tid;

  ThreadShard() : tid(Registry::Get().AssignTid()) {}
  ~ThreadShard() { Flush(); }
  void Flush() { Registry::Get().Flush(records, scope.get()); }
};

ThreadShard& Shard() {
  thread_local ThreadShard shard;
  return shard;
}

// Flushes the calling thread's shard into its scope, then makes `next` its
// scope. Returns the scope it left.
ScopeRef SwitchScope(ScopeRef next) {
  ThreadShard& shard = Shard();
  shard.Flush();
  return std::exchange(shard.scope, std::move(next));
}

// The calling thread's scope, with the thread's own records flushed in.
ScopeRecords* FlushedScope() {
  ThreadShard& shard = Shard();
  shard.Flush();
  return shard.scope.get();
}

Snapshot Registry::TakeSnapshot(ScopeRecords* scope) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ScopeRecords& totals = Target(scope);
  // Every interned entry, zero where the scope never recorded it.
  Snapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i)
    snap.counters.push_back(CounterValue{
        counter_names_[i], counter_kinds_[i],
        i < totals.counters.size() ? totals.counters[i] : 0});
  snap.timers.reserve(timer_names_.size());
  for (std::size_t i = 0; i < timer_names_.size(); ++i) {
    const TimerCell cell =
        i < totals.timers.size() ? totals.timers[i] : TimerCell{};
    snap.timers.push_back(TimerValue{timer_names_[i], cell.count,
                                     cell.total_ns,
                                     cell.count ? cell.min_ns : 0,
                                     cell.max_ns});
  }
  snap.histograms.reserve(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    const HistogramCell cell =
        i < totals.histograms.size() ? totals.histograms[i] : HistogramCell{};
    HistogramValue value{histogram_names_[i], histogram_kinds_[i],
                         cell.count,          cell.sum,
                         cell.count ? cell.min : 0,
                         cell.max,            {}};
    std::size_t used = kHistogramBuckets;
    while (used > 0 && cell.buckets[used - 1] == 0) --used;
    value.buckets.assign(cell.buckets.begin(), cell.buckets.begin() + used);
    snap.histograms.push_back(std::move(value));
  }
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const CounterValue& a, const CounterValue& b) {
              return a.name < b.name;
            });
  std::sort(snap.timers.begin(), snap.timers.end(),
            [](const TimerValue& a, const TimerValue& b) {
              return a.name < b.name;
            });
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramValue& a, const HistogramValue& b) {
              return a.name < b.name;
            });
  return snap;
}

std::vector<TraceEvent> Registry::DrainTrace(ScopeRecords* scope) {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RawEvent>& spans = Target(scope).spans;
    out.reserve(spans.size());
    for (const RawEvent& raw : spans) out.push_back(Resolve(raw));
    spans.clear();
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.tid != b.tid ? a.tid < b.tid : a.ts_ns < b.ts_ns;
            });
  return out;
}

std::vector<EventRecord> Registry::DrainEvents(ScopeRecords* scope) {
  std::vector<EventRecord> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RawJournal>& journal = Target(scope).journal;
    out.reserve(journal.size());
    for (const RawJournal& raw : journal) out.push_back(ResolveJournal(raw));
    journal.clear();
  }
  // Order by (name, fields) only — never by timestamp or by flush order —
  // so the drained journal is bit-identical across thread counts whenever
  // the payloads are. Recording sites make the payload tuples unique
  // (leading iteration/round/level indices), so ties can only occur between
  // records that are identical up to their timestamps.
  std::sort(out.begin(), out.end(),
            [](const EventRecord& a, const EventRecord& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.fields < b.fields;
            });
  return out;
}

void RecordTimer(std::uint32_t id, std::uint64_t dur_ns) {
  std::vector<TimerCell>& timers = Shard().records.timers;
  if (timers.size() <= id) timers.resize(id + 1);
  timers[id].Record(dur_ns);
}

}  // namespace

Counter::Counter(const char* name, CounterKind kind)
    : id_(Registry::Get().InternCounter(name, kind)), kind_(kind) {}

void Counter::Add(std::uint64_t n) {
  std::vector<std::uint64_t>& counters = Shard().records.counters;
  if (counters.size() <= id_) counters.resize(id_ + 1, 0);
  if (kind_ == CounterKind::kSum)
    counters[id_] += n;
  else
    counters[id_] = std::max(counters[id_], n);
}

Timer::Timer(const char* name) : id_(Registry::Get().InternTimer(name)) {}

Histogram::Histogram(const char* name, HistogramKind kind)
    : id_(Registry::Get().InternHistogram(name, kind)) {}

void Histogram::Record(std::uint64_t value) {
  std::vector<HistogramCell>& histograms = Shard().records.histograms;
  if (histograms.size() <= id_) histograms.resize(id_ + 1);
  histograms[id_].Record(value);
}

ScopedHistogramTimer::ScopedHistogramTimer(Histogram& histogram)
    : histogram_(histogram), start_ns_(NowNs()) {}

ScopedHistogramTimer::~ScopedHistogramTimer() {
  histogram_.Record(NowNs() - start_ns_);
}

Event::Event(const char* name) : id_(Registry::Get().InternEvent(name)) {}

void Event::Record(std::initializer_list<EventField> fields) {
  RawJournal raw;
  raw.event_id = id_;
  raw.ts_ns = NowNs();
  raw.num_fields = 0;
  for (const EventField& field : fields) {
    if (raw.num_fields == kMaxEventFields) break;
    raw.fields[raw.num_fields++] = field;
  }
  Shard().records.journal.push_back(raw);
}

ScopedTimer::ScopedTimer(const Timer& timer)
    : id_(timer.id()), start_ns_(NowNs()) {}

ScopedTimer::~ScopedTimer() { RecordTimer(id_, NowNs() - start_ns_); }

PhaseScope::PhaseScope(const Timer& timer, const char* arg_key,
                       std::uint64_t arg_value)
    : id_(timer.id()), start_ns_(NowNs()), arg_key_(arg_key),
      arg_value_(arg_value) {}

PhaseScope::~PhaseScope() {
  const std::uint64_t end_ns = NowNs();
  RecordTimer(id_, end_ns - start_ns_);
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  ThreadShard& shard = Shard();
  shard.records.spans.push_back(RawEvent{id_, shard.tid, arg_key_, arg_value_,
                                         start_ns_, end_ns - start_ns_});
}

void SetTracing(bool enabled) {
  g_tracing.store(enabled, std::memory_order_relaxed);
}

bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

void NameThisThread(const std::string& name) {
  Registry::Get().NameLane(Shard().tid, name);
}

std::vector<std::string> TakeLaneNames() {
  return Registry::Get().LaneNames();
}

Snapshot TakeSnapshot() {
  return Registry::Get().TakeSnapshot(FlushedScope());
}

std::vector<TraceEvent> DrainTrace() {
  return Registry::Get().DrainTrace(FlushedScope());
}

std::vector<EventRecord> DrainEvents() {
  return Registry::Get().DrainEvents(FlushedScope());
}

void ResetAll() {
  ThreadShard& shard = Shard();
  shard.records.clear();
  Registry::Get().Reset(shard.scope.get());
  // Lane names survive: the threads that claimed them are still alive.
}

ScopeRef CurrentScope() { return Shard().scope; }

ScopeGuard::ScopeGuard(ScopeRef scope)
    : previous_(SwitchScope(std::move(scope))) {}

ScopeGuard::~ScopeGuard() { SwitchScope(std::move(previous_)); }

RunScope::RunScope()
    : scope_(std::make_shared<ScopeRecords>()),
      enclosing_(SwitchScope(scope_)) {}

RunScope::~RunScope() {
  SwitchScope(enclosing_);
  Registry::Get().Fold(*scope_, enclosing_.get());
}

}  // namespace htp::obs
