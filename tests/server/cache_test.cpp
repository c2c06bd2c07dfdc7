#include "server/cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "server/artifact_key.hpp"
#include "server/protocol.hpp"
#include "test_util.hpp"

namespace htp::serve {
namespace {

NetlistArtifact MakeArtifact(std::uint64_t seed) {
  auto hg = std::make_shared<const Hypergraph>(
      testutil::RandomConnectedHypergraph(16, 8, 4, seed));
  return NetlistArtifact{hg, HashNetlist(*hg)};
}

TEST(ArtifactCache, NetlistHitMissAndLruEviction) {
  CacheConfig config;
  config.netlist_capacity = 2;
  ArtifactCache cache(config);

  std::size_t computes = 0;
  auto fetch = [&](std::uint64_t key) {
    return cache.GetOrComputeNetlist(key, [&] {
      ++computes;
      return MakeArtifact(key);
    });
  };

  EXPECT_FALSE(fetch(1).second);  // miss
  EXPECT_TRUE(fetch(1).second);   // hit
  EXPECT_FALSE(fetch(2).second);
  EXPECT_EQ(cache.Stats().netlist.entries, 2u);

  // Key 1 is MRU after its hit above; inserting key 3 evicts key 2.
  EXPECT_TRUE(fetch(1).second);
  EXPECT_FALSE(fetch(3).second);
  EXPECT_EQ(cache.Stats().netlist.entries, 2u);
  EXPECT_TRUE(fetch(1).second);
  EXPECT_FALSE(fetch(2).second);  // evicted: recomputes
  EXPECT_EQ(computes, 4u);
}

TEST(ArtifactCache, DisabledTierAlwaysComputes) {
  CacheConfig config;
  config.netlist_capacity = 0;
  ArtifactCache cache(config);
  EXPECT_FALSE(cache.netlist_enabled());

  std::size_t computes = 0;
  for (int i = 0; i < 3; ++i) {
    auto [value, hit] = cache.GetOrComputeNetlist(7, [&] {
      ++computes;
      return MakeArtifact(42);
    });
    EXPECT_FALSE(hit);
    EXPECT_EQ(value.structural_hash, HashNetlist(*value.hg));
  }
  EXPECT_EQ(computes, 3u);
  const TierStats stats = cache.Stats().netlist;
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(ArtifactCache, ConcurrentIdenticalRequestsComputeOnce) {
  ArtifactCache cache;
  std::atomic<int> computes{0};
  std::atomic<int> hits{0};
  constexpr int kThreads = 8;
  const NetlistArtifact built = MakeArtifact(99);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto [value, hit] = cache.GetOrComputeNetlist(99, [&] {
        computes.fetch_add(1);
        // Hold the build long enough that the other threads pile into the
        // in-flight wait instead of racing past it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return built;
      });
      EXPECT_EQ(value.hg.get(), built.hg.get());  // the one shared parse
      if (hit) hits.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(hits.load(), kThreads - 1);  // dedup waiters count as hits
  EXPECT_EQ(cache.Stats().netlist.entries, 1u);
}

TEST(ArtifactCache, ComputeExceptionPropagatesAndLeavesNoEntry) {
  ArtifactCache cache;
  EXPECT_THROW(cache.GetOrComputeNetlist(
                   5, []() -> NetlistArtifact {
                     throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  EXPECT_EQ(cache.Stats().netlist.entries, 0u);
  // The key is usable again after the failure.
  auto [value, hit] =
      cache.GetOrComputeNetlist(5, [] { return MakeArtifact(5); });
  EXPECT_FALSE(hit);
  ASSERT_NE(value.hg, nullptr);
  EXPECT_EQ(cache.Stats().netlist.entries, 1u);
}

TEST(ArtifactCache, ResponseTierFindsStoresAndEvicts) {
  CacheConfig config;
  config.response_capacity = 2;
  ArtifactCache cache(config);
  const auto section = [](double cost) {
    auto s = std::make_shared<ResponseSection>();
    s->cost = cost;
    return std::shared_ptr<const ResponseSection>(std::move(s));
  };
  EXPECT_EQ(cache.FindResponse(1), nullptr);  // miss: nothing computed
  cache.StoreResponse(1, section(1.0));
  cache.StoreResponse(2, section(2.0));
  ASSERT_NE(cache.FindResponse(1), nullptr);  // key 1 is now MRU
  // A second store of a present key keeps the first entry.
  cache.StoreResponse(1, section(-1.0));
  EXPECT_EQ(cache.FindResponse(1)->cost, 1.0);
  cache.StoreResponse(3, section(3.0));  // evicts key 2, the LRU
  EXPECT_EQ(cache.FindResponse(2), nullptr);
  EXPECT_EQ(cache.FindResponse(3)->cost, 3.0);

  const TierStats stats = cache.Stats().response;
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ArtifactCache, DisabledResponseTierStoresNothing) {
  CacheConfig config;
  config.response_capacity = 0;
  ArtifactCache cache(config);
  EXPECT_FALSE(cache.response_enabled());
  cache.StoreResponse(1, std::make_shared<const ResponseSection>());
  EXPECT_EQ(cache.FindResponse(1), nullptr);
  EXPECT_EQ(cache.Stats().response.entries, 0u);
}

TEST(ArtifactKey, StructuralHashDistinguishesGraphs) {
  const Hypergraph a = testutil::RandomConnectedHypergraph(20, 10, 4, 1);
  const Hypergraph b = testutil::RandomConnectedHypergraph(20, 10, 4, 2);
  EXPECT_EQ(HashNetlist(a), HashNetlist(a));
  EXPECT_NE(HashNetlist(a), HashNetlist(b));
}

TEST(ArtifactKey, HexKeyRendersFixedWidth) {
  EXPECT_EQ(HexKey(0), "0000000000000000");
  EXPECT_EQ(HexKey(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(HexKey(~0ULL), "ffffffffffffffff");
}

}  // namespace
}  // namespace htp::serve
