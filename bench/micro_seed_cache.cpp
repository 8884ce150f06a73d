// Node seed-cache microbench (google-benchmark): lookup-then-insert-on-miss
// churn on one node's cache at the reference workload's shape — capacity
// 2^18, k = 51, 1–3 hits per seed, and a seed pool 5.5x the capacity so
// ~18% of lookups hit and nearly every miss evicts (unique-101 measures
// 18% hits, with 1.9 M of its 2.4 M inserts evicting). Threads share node
// 0, as the rank threads of one node do, so the 2-thread row includes the
// node mutex's contention.
//
//   build/bench/micro_seed_cache --benchmark_min_time=2
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <random>
#include <vector>

#include "cache/seed_cache.hpp"
#include "pgas/topology.hpp"
#include "seq/kmer.hpp"

namespace {

using namespace mera;

constexpr std::size_t kCapacity = std::size_t{1} << 18;
constexpr std::size_t kPool = kCapacity * 11 / 2;
constexpr int kSeedLen = 51;

std::vector<seq::Kmer> make_pool(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<seq::Kmer> pool;
  pool.reserve(kPool);
  // 51 bases use all of word 0 and the low 38 bits of word 1.
  const std::uint64_t hi_mask = (std::uint64_t{1} << (2 * kSeedLen - 64)) - 1;
  while (pool.size() < kPool)
    pool.push_back(*seq::Kmer::from_words(
        kSeedLen, std::array<std::uint64_t, 2>{rng(), rng() & hi_mask}));
  return pool;
}

/// The hit list the index would return for pool seed `i`: 1–3 hits.
void hits_of(std::size_t i, std::vector<dht::SeedHit>& hits) {
  const auto id = static_cast<std::uint32_t>(i);
  hits.assign(1 + i % 3, dht::SeedHit{id, id / 4, id * 101});
}

std::unique_ptr<cache::SeedIndexCache> g_cache;
std::vector<seq::Kmer> g_pool;

void BM_SeedCacheChurn(benchmark::State& state) {
  if (state.thread_index() == 0) {
    if (g_pool.empty()) g_pool = make_pool(17);
    g_cache = std::make_unique<cache::SeedIndexCache>(
        pgas::Topology(2, 2), cache::SeedIndexCache::Options{kCapacity});
    // Start full, so every timed miss takes the eviction path.
    std::vector<dht::SeedHit> hits;
    for (std::size_t i = 0; i < kCapacity; ++i) {
      hits_of(i, hits);
      g_cache->insert(0, g_pool[i], hits, hits.size());
    }
  }
  std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(state.thread_index()));
  std::vector<dht::SeedHit> out;
  std::vector<dht::SeedHit> hits;
  std::int64_t found = 0;
  for (auto _ : state) {
    const std::size_t i = rng() % kPool;
    out.clear();
    std::size_t total = 0;
    if (g_cache->lookup(0, g_pool[i], 32, out, total)) {
      ++found;
    } else {
      hits_of(i, hits);
      g_cache->insert(0, g_pool[i], hits, hits.size());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["hit_frac"] = benchmark::Counter(
      static_cast<double>(found) / static_cast<double>(state.iterations()),
      benchmark::Counter::kAvgThreads);
  if (state.thread_index() == 0) g_cache.reset();
}
BENCHMARK(BM_SeedCacheChurn)->Threads(1)->Threads(2)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
