#include "server/cache.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <list>
#include <mutex>
#include <unordered_map>

#include "obs/obs.hpp"

namespace htp::serve {

namespace {

obs::Counter c_hit_netlist("serve.cache_hit_netlist");
obs::Counter c_miss_netlist("serve.cache_miss_netlist");
obs::Counter c_evict_netlist("serve.cache_evict_netlist");
obs::Counter c_hit_response("serve.cache_hit_response");
obs::Counter c_miss_response("serve.cache_miss_response");
obs::Counter c_evict_response("serve.cache_evict_response");

// One LRU tier: bounded map + in-flight deduplication. The compute
// callback runs outside the lock; waiters on the same key block on the
// condvar and share the leader's value (or its exception). Distinct keys
// never serialize on each other beyond the map operations themselves.
template <typename V>
class Tier {
 public:
  Tier(std::size_t capacity, obs::Counter& hit, obs::Counter& miss,
       obs::Counter& evict)
      : capacity_(capacity), hit_(hit), miss_(miss), evict_(evict) {}

  bool enabled() const { return capacity_ > 0; }

  TierStats Stats() const {
    TierStats stats;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats.entries = map_.size();
    }
    stats.capacity = capacity_;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    return stats;
  }

  template <typename Fn>
  std::pair<V, bool> GetOrCompute(std::uint64_t key, const Fn& fn) {
    if (capacity_ == 0) {
      CountMiss();
      return {fn(), false};
    }
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (const V* cached = FindLocked(key)) return {*cached, true};
      auto inflight = inflight_.find(key);
      if (inflight == inflight_.end()) break;
      // Deduplication: another thread is computing this key right now.
      // Wait for it and share the outcome — value or exception alike.
      std::shared_ptr<InFlight> slot = inflight->second;
      cv_.wait(lock, [&] { return slot->done; });
      if (slot->error) std::rethrow_exception(slot->error);
      CountHit();
      return {slot->value, true};
    }
    auto slot = std::make_shared<InFlight>();
    inflight_.emplace(key, slot);
    lock.unlock();
    V value;
    try {
      value = fn();
    } catch (...) {
      lock.lock();
      slot->error = std::current_exception();
      slot->done = true;
      inflight_.erase(key);
      cv_.notify_all();
      throw;
    }
    lock.lock();
    slot->value = value;
    slot->done = true;
    inflight_.erase(key);
    InsertLocked(key, value);
    cv_.notify_all();
    CountMiss();
    return {std::move(value), false};
  }

  /// A lookup that never computes: the cached value, or V{} on a miss.
  V Find(std::uint64_t key) {
    if (capacity_ > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (const V* cached = FindLocked(key)) return *cached;
    }
    CountMiss();
    return V{};
  }

  void Insert(std::uint64_t key, V value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    InsertLocked(key, std::move(value));
  }

 private:
  struct Entry {
    V value;
    std::list<std::uint64_t>::iterator pos;
  };
  struct InFlight {
    V value{};
    std::exception_ptr error;
    bool done = false;
  };

  // A hit moves its key to the LRU front.
  const V* FindLocked(std::uint64_t key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    CountHit();
    return &it->second.value;
  }

  // Inserts at the LRU front and evicts from the back. A key already
  // present keeps its entry (GetOrCompute's dedup rules that out; two
  // identical requests that both missed the response tier store the same
  // answer twice).
  void InsertLocked(std::uint64_t key, V value) {
    if (auto it = map_.find(key); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      return;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{std::move(value), lru_.begin()});
    while (map_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      evict_.Add();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void CountHit() {
    hit_.Add();
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountMiss() {
    miss_.Add();
    misses_.fetch_add(1, std::memory_order_relaxed);
  }

  const std::size_t capacity_;
  obs::Counter& hit_;
  obs::Counter& miss_;
  obs::Counter& evict_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, Entry> map_;
  std::unordered_map<std::uint64_t, std::shared_ptr<InFlight>> inflight_;
};

}  // namespace

struct ArtifactCache::Impl {
  explicit Impl(const CacheConfig& config)
      : netlist(config.netlist_capacity, c_hit_netlist, c_miss_netlist,
                c_evict_netlist),
        response(config.response_capacity, c_hit_response, c_miss_response,
                 c_evict_response) {}

  Tier<NetlistArtifact> netlist;
  Tier<std::shared_ptr<const ResponseSection>> response;
};

ArtifactCache::ArtifactCache(const CacheConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

ArtifactCache::~ArtifactCache() = default;

bool ArtifactCache::netlist_enabled() const { return impl_->netlist.enabled(); }
bool ArtifactCache::response_enabled() const {
  return impl_->response.enabled();
}

std::pair<NetlistArtifact, bool> ArtifactCache::GetOrComputeNetlist(
    std::uint64_t source_key, const std::function<NetlistArtifact()>& fn) {
  return impl_->netlist.GetOrCompute(source_key, fn);
}

std::shared_ptr<const ResponseSection> ArtifactCache::FindResponse(
    std::uint64_t key) {
  return impl_->response.Find(key);
}

void ArtifactCache::StoreResponse(
    std::uint64_t key, std::shared_ptr<const ResponseSection> section) {
  impl_->response.Insert(key, std::move(section));
}

CacheStats ArtifactCache::Stats() const {
  return {impl_->netlist.Stats(), impl_->response.Stats()};
}

}  // namespace htp::serve
