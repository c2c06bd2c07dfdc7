#include "obs/obs.hpp"

#if HTP_OBS_ENABLED

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

// A run scope's records, shared by every thread working for the run.
struct ScopeJournal {
  std::mutex mutex;
  std::vector<RawJournal> records;
};

namespace {

struct ThreadShard;

// Process-wide registry: interned names (written only during static
// initialization of the instrumentation sites, i.e. single-threaded) plus
// the merged totals of every exited thread. All mutation of the merged
// state is serialized by `mutex_`; live shards are touched only by their
// owning thread.
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
    counter_totals_.push_back(0);
    return static_cast<std::uint32_t>(counter_names_.size() - 1);
  }

  std::uint32_t InternTimer(const char* name) {
    std::lock_guard<std::mutex> lock(mutex_);
    timer_names_.emplace_back(name);
    timer_totals_.emplace_back();
    return static_cast<std::uint32_t>(timer_names_.size() - 1);
  }

  std::uint32_t InternHistogram(const char* name, HistogramKind kind) {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_names_.emplace_back(name);
    histogram_kinds_.push_back(kind);
    histogram_totals_.emplace_back();
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

  void Merge(ThreadShard& shard);
  Snapshot TakeSnapshot(const ThreadShard& local);
  std::vector<TraceEvent> DrainTrace(ThreadShard& local);
  std::vector<EventRecord> DrainEvents(ThreadShard& local);
  std::vector<EventRecord> ResolveJournal(const std::vector<RawJournal>& raw);
  void Reset(ThreadShard& local);

 private:
  void MergeCountersLocked(const std::vector<std::uint64_t>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (counter_kinds_[i] == CounterKind::kSum)
        counter_totals_[i] += cells[i];
      else
        counter_totals_[i] = std::max(counter_totals_[i], cells[i]);
    }
  }
  void MergeTimersLocked(const std::vector<TimerCell>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      if (cells[i].count > 0) timer_totals_[i].MergeFrom(cells[i]);
  }
  void MergeHistogramsLocked(const std::vector<HistogramCell>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      if (cells[i].count > 0) histogram_totals_[i].MergeFrom(cells[i]);
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
  std::vector<std::uint64_t> counter_totals_;
  std::vector<std::string> timer_names_;
  std::vector<TimerCell> timer_totals_;
  std::vector<std::string> histogram_names_;
  std::vector<HistogramKind> histogram_kinds_;
  std::vector<HistogramCell> histogram_totals_;
  std::vector<std::string> event_names_;
  std::vector<RawEvent> events_;
  std::vector<RawJournal> journal_;
  std::vector<std::string> lane_names_;
  std::uint32_t next_tid_ = 0;
};

// Per-thread cells, indexed by interned id and grown on demand. Touched
// without synchronization by the owning thread only; merged into the
// registry exactly once, when the thread exits (thread_local destruction).
// ParallelFor joins its transient workers before returning, so fork-join
// boundaries imply merged shards.
struct ThreadShard {
  std::vector<std::uint64_t> counters;
  std::vector<TimerCell> timers;
  std::vector<HistogramCell> histograms;
  std::vector<RawEvent> events;
  std::vector<RawJournal> journal;
  std::uint32_t tid;

  ThreadShard() : tid(Registry::Get().AssignTid()) {}
  ~ThreadShard() { Registry::Get().Merge(*this); }
};

ThreadShard& Shard() {
  thread_local ThreadShard shard;
  return shard;
}

// The calling thread's active run scope (see RunScope); null outside runs.
thread_local ScopeRef tls_scope;

void Registry::Merge(ThreadShard& shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  MergeCountersLocked(shard.counters);
  MergeTimersLocked(shard.timers);
  MergeHistogramsLocked(shard.histograms);
  events_.insert(events_.end(), shard.events.begin(), shard.events.end());
  journal_.insert(journal_.end(), shard.journal.begin(), shard.journal.end());
  shard.counters.clear();
  shard.timers.clear();
  shard.histograms.clear();
  shard.events.clear();
  shard.journal.clear();
}

Snapshot Registry::TakeSnapshot(const ThreadShard& local) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Merged totals overlaid with the calling thread's live cells.
  std::vector<std::uint64_t> counters = counter_totals_;
  for (std::size_t i = 0; i < local.counters.size(); ++i) {
    if (counter_kinds_[i] == CounterKind::kSum)
      counters[i] += local.counters[i];
    else
      counters[i] = std::max(counters[i], local.counters[i]);
  }
  std::vector<TimerCell> timers = timer_totals_;
  for (std::size_t i = 0; i < local.timers.size(); ++i)
    if (local.timers[i].count > 0) timers[i].MergeFrom(local.timers[i]);
  std::vector<HistogramCell> histograms = histogram_totals_;
  for (std::size_t i = 0; i < local.histograms.size(); ++i)
    if (local.histograms[i].count > 0)
      histograms[i].MergeFrom(local.histograms[i]);

  Snapshot snap;
  snap.counters.reserve(counters.size());
  for (std::size_t i = 0; i < counters.size(); ++i)
    snap.counters.push_back(
        CounterValue{counter_names_[i], counter_kinds_[i], counters[i]});
  snap.timers.reserve(timers.size());
  for (std::size_t i = 0; i < timers.size(); ++i) {
    const TimerCell& cell = timers[i];
    snap.timers.push_back(TimerValue{timer_names_[i], cell.count,
                                     cell.total_ns,
                                     cell.count ? cell.min_ns : 0,
                                     cell.max_ns});
  }
  snap.histograms.reserve(histograms.size());
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramCell& cell = histograms[i];
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

std::vector<TraceEvent> Registry::DrainTrace(ThreadShard& local) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(events_.size() + local.events.size());
  for (const RawEvent& raw : events_) out.push_back(Resolve(raw));
  for (const RawEvent& raw : local.events) out.push_back(Resolve(raw));
  events_.clear();
  local.events.clear();
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.tid != b.tid ? a.tid < b.tid : a.ts_ns < b.ts_ns;
            });
  return out;
}

std::vector<EventRecord> Registry::DrainEvents(ThreadShard& local) {
  std::vector<RawJournal> raw;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    raw.swap(journal_);
  }
  raw.insert(raw.end(), local.journal.begin(), local.journal.end());
  local.journal.clear();
  return ResolveJournal(raw);
}

std::vector<EventRecord> Registry::ResolveJournal(
    const std::vector<RawJournal>& raw) {
  std::vector<EventRecord> out;
  out.reserve(raw.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const RawJournal& record : raw)
      out.push_back(ResolveJournal(record));
  }
  // Order by (name, fields) only — never by timestamp or by shard merge
  // order — so the drained journal is bit-identical across thread counts
  // whenever the payloads are. Recording sites make the payload tuples
  // unique (leading iteration/round/level indices), so ties can only occur
  // between records that are identical up to their timestamps.
  std::sort(out.begin(), out.end(),
            [](const EventRecord& a, const EventRecord& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.fields < b.fields;
            });
  return out;
}

void Registry::Reset(ThreadShard& local) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fill(counter_totals_.begin(), counter_totals_.end(), 0);
  std::fill(timer_totals_.begin(), timer_totals_.end(), TimerCell{});
  std::fill(histogram_totals_.begin(), histogram_totals_.end(),
            HistogramCell{});
  events_.clear();
  journal_.clear();
  local.counters.clear();
  local.timers.clear();
  local.histograms.clear();
  local.events.clear();
  local.journal.clear();
  // lane_names_ survives: the threads that claimed them are still alive.
}

void RecordTimer(std::uint32_t id, std::uint64_t dur_ns) {
  ThreadShard& shard = Shard();
  if (shard.timers.size() <= id) shard.timers.resize(id + 1);
  shard.timers[id].Record(dur_ns);
}

}  // namespace

Counter::Counter(const char* name, CounterKind kind)
    : id_(Registry::Get().InternCounter(name, kind)), kind_(kind) {}

void Counter::Add(std::uint64_t n) {
  ThreadShard& shard = Shard();
  if (shard.counters.size() <= id_) shard.counters.resize(id_ + 1, 0);
  if (kind_ == CounterKind::kSum)
    shard.counters[id_] += n;
  else
    shard.counters[id_] = std::max(shard.counters[id_], n);
}

Timer::Timer(const char* name) : id_(Registry::Get().InternTimer(name)) {}

Histogram::Histogram(const char* name, HistogramKind kind)
    : id_(Registry::Get().InternHistogram(name, kind)) {}

void Histogram::Record(std::uint64_t value) {
  ThreadShard& shard = Shard();
  if (shard.histograms.size() <= id_) shard.histograms.resize(id_ + 1);
  shard.histograms[id_].Record(value);
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
  // Inside a run the record belongs to the run's scope, which pool tasks
  // share (hence the lock); outside, to this thread's shard.
  if (ScopeJournal* scope = tls_scope.get()) {
    std::lock_guard<std::mutex> lock(scope->mutex);
    scope->records.push_back(raw);
    return;
  }
  Shard().journal.push_back(raw);
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
  shard.events.push_back(RawEvent{id_, shard.tid, arg_key_, arg_value_,
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

Snapshot TakeSnapshot() { return Registry::Get().TakeSnapshot(Shard()); }

std::vector<TraceEvent> DrainTrace() {
  return Registry::Get().DrainTrace(Shard());
}

std::vector<EventRecord> DrainEvents() {
  return Registry::Get().DrainEvents(Shard());
}

void ResetAll() { Registry::Get().Reset(Shard()); }

ScopeRef CurrentScope() { return tls_scope; }

ScopeGuard::ScopeGuard(ScopeRef scope)
    : previous_(std::exchange(tls_scope, std::move(scope))) {}

ScopeGuard::~ScopeGuard() { tls_scope = std::move(previous_); }

RunScope::RunScope()
    : journal_(std::make_shared<ScopeJournal>()), guard_(journal_) {}

RunScope::~RunScope() = default;

std::vector<EventRecord> RunScope::DrainEvents() {
  std::vector<RawJournal> raw;
  {
    std::lock_guard<std::mutex> lock(journal_->mutex);
    raw.swap(journal_->records);
  }
  return Registry::Get().ResolveJournal(raw);
}

}  // namespace htp::obs

#endif  // HTP_OBS_ENABLED
