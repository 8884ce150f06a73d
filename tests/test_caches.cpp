#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/cache_snapshot.hpp"
#include "cache/seed_cache.hpp"
#include "cache/target_cache.hpp"

namespace {

using namespace mera::cache;
using mera::dht::SeedHit;
using mera::pgas::Topology;
using mera::seq::Kmer;

Kmer kmer_of(const std::string& s) { return *Kmer::from_ascii(s); }

// ---------------------------------------------------------------------------
// Reference oracle: the node shard's previous layout (an unordered_map from
// seed to entry plus a separate clock ring of keys), for one node. The flat
// slot-array shard must match it op for op: same returns, same hit lists,
// same counters and the same snapshot bytes.
// ---------------------------------------------------------------------------
class ReferenceSeedCache {
 public:
  ReferenceSeedCache(std::size_t capacity, bool admission)
      : capacity_(capacity), admission_(admission) {}

  bool lookup(const Kmer& seed, std::size_t max_hits,
              std::vector<SeedHit>& out, std::size_t& total) {
    const auto it = map_.find(seed);
    if (it == map_.end()) {
      ++counters_.misses;
      return false;
    }
    ++counters_.hits;
    ++it->second.use_count;
    total = it->second.total;
    const std::size_t n = std::min(max_hits, it->second.hits.size());
    out.insert(out.end(), it->second.hits.begin(),
               it->second.hits.begin() + static_cast<std::ptrdiff_t>(n));
    return true;
  }

  void insert(const Kmer& seed, const std::vector<SeedHit>& hits,
              std::size_t total) {
    if (capacity_ == 0) return;
    if (map_.contains(seed)) return;
    if (map_.size() >= capacity_) {
      if (admission_) {
        bool evicted = false;
        const std::size_t probes = std::min<std::size_t>(8, ring_.size());
        for (std::size_t p = 0; p < probes; ++p) {
          const Kmer cand = ring_[cursor_];
          const auto it = map_.find(cand);
          if (it->second.use_count == 0) {
            map_.erase(it);
            ring_[cursor_] = seed;
            cursor_ = (cursor_ + 1) % ring_.size();
            ++counters_.evictions;
            evicted = true;
            break;
          }
          it->second.use_count /= 2;
          cursor_ = (cursor_ + 1) % ring_.size();
        }
        if (!evicted) {
          ++counters_.admission_rejects;
          return;
        }
      } else {
        map_.erase(ring_[cursor_]);
        ring_[cursor_] = seed;
        cursor_ = (cursor_ + 1) % ring_.size();
        ++counters_.evictions;
      }
    } else {
      ring_.push_back(seed);
    }
    map_.emplace(seed, Value{hits, static_cast<std::uint32_t>(total), 0});
    ++counters_.insertions;
  }

  [[nodiscard]] CacheCounters counters() const { return counters_; }
  [[nodiscard]] std::size_t entries() const { return map_.size(); }

  /// SeedIndexCache::save's byte layout for a one-node topology.
  void save(std::ostream& os) const {
    using snapio::put;
    put<std::uint64_t>(os, 1);
    snapio::put_counters(os, counters_);
    put<std::uint64_t>(os, cursor_);
    put<std::uint64_t>(os, ring_.size());
    for (const Kmer& seed : ring_) {
      const Value& v = map_.at(seed);
      put<std::uint32_t>(os, static_cast<std::uint32_t>(seed.k()));
      put<std::uint64_t>(os, seed.words()[0]);
      put<std::uint64_t>(os, seed.words()[1]);
      put<std::uint32_t>(os, v.use_count);
      put<std::uint32_t>(os, v.total);
      put<std::uint32_t>(os, static_cast<std::uint32_t>(v.hits.size()));
      for (const SeedHit& h : v.hits) {
        put<std::uint32_t>(os, h.fragment_id);
        put<std::uint32_t>(os, h.target_id);
        put<std::uint32_t>(os, h.t_pos);
      }
    }
  }

  /// SeedIndexCache::load for a well-formed one-node snapshot, including
  /// the shrink-to-warmest rule when it holds more than `capacity` entries.
  void load(std::istream& is) {
    using snapio::get;
    EXPECT_EQ(get<std::uint64_t>(is), 1u);
    const CacheCounters counters = snapio::get_counters(is);
    const auto cursor = static_cast<std::size_t>(get<std::uint64_t>(is));
    const auto n = static_cast<std::size_t>(get<std::uint64_t>(is));
    std::vector<std::pair<Kmer, Value>> slots(n);
    for (auto& [seed, v] : slots) {
      const auto k = static_cast<int>(get<std::uint32_t>(is));
      std::array<std::uint64_t, 2> w{};
      w[0] = get<std::uint64_t>(is);
      w[1] = get<std::uint64_t>(is);
      seed = *Kmer::from_words(k, w);
      v.use_count = get<std::uint32_t>(is);
      v.total = get<std::uint32_t>(is);
      v.hits.resize(get<std::uint32_t>(is));
      for (SeedHit& h : v.hits) {
        h.fragment_id = get<std::uint32_t>(is);
        h.target_id = get<std::uint32_t>(is);
        h.t_pos = get<std::uint32_t>(is);
      }
    }
    std::uint64_t dropped = 0;
    cursor_ = cursor;
    if (n > capacity_) {
      const auto age_of = [&](std::size_t slot) {
        return (slot + n - cursor) % n;
      };
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (slots[a].second.use_count != slots[b].second.use_count)
          return slots[a].second.use_count > slots[b].second.use_count;
        return age_of(a) > age_of(b);
      });
      order.resize(capacity_);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return age_of(a) < age_of(b);
      });
      std::vector<std::pair<Kmer, Value>> kept;
      for (const std::size_t i : order) kept.push_back(std::move(slots[i]));
      dropped = n - kept.size();
      slots = std::move(kept);
      cursor_ = 0;
    }
    map_.clear();
    ring_.clear();
    for (auto& [seed, v] : slots) {
      ring_.push_back(seed);
      map_.emplace(seed, std::move(v));
    }
    counters_ = counters;
    counters_.admission_rejects += dropped;
  }

 private:
  struct Value {
    std::vector<SeedHit> hits;
    std::uint32_t total = 0;
    std::uint32_t use_count = 0;
  };
  std::size_t capacity_;
  bool admission_;
  std::unordered_map<Kmer, Value, KmerHasher> map_;
  std::vector<Kmer> ring_;
  std::size_t cursor_ = 0;
  CacheCounters counters_;
};

template <typename Cache>
std::string saved(const Cache& c) {
  std::ostringstream os;
  c.save(os);
  return os.str();
}

/// A pool of distinct random seeds of mixed length. `clustered` keeps only
/// seeds whose hash lands in 4 adjacent home slots (wrapping) of the
/// smallest index table, so tiny caches build long colliding probe runs and
/// every eviction's backward shift walks them.
std::vector<Kmer> seed_pool(std::size_t n, bool clustered,
                            std::mt19937_64& rng) {
  static constexpr int kLens[] = {7, 21, 51, 64};
  std::vector<Kmer> pool;
  std::unordered_set<Kmer, KmerHasher> seen;
  while (pool.size() < n) {
    std::string s(static_cast<std::size_t>(kLens[rng() % 4]), 'A');
    for (auto& c : s) c = "ACGT"[rng() & 3u];
    const Kmer m = kmer_of(s);
    if (clustered && ((m.mixed_hash() + 2) & 15u) >= 4) continue;
    if (seen.insert(m).second) pool.push_back(m);
  }
  return pool;
}

/// Mostly 0-6 hits; one list in 16 is long enough (17-40) that a slot
/// inheriting it later drops the oversized buffer instead of reusing it.
std::vector<SeedHit> random_hits(std::mt19937_64& rng) {
  std::vector<SeedHit> hits(rng() % 16 == 0 ? 17 + rng() % 24 : rng() % 7);
  for (SeedHit& h : hits)
    h = {static_cast<std::uint32_t>(rng()), static_cast<std::uint32_t>(rng()),
         static_cast<std::uint32_t>(rng())};
  return hits;
}

/// Drives `flat` (node 0) and `ref` with one seeded op stream: mostly the
/// aligner's lookup-then-insert-on-miss pattern, plus bare inserts that are
/// often duplicates. Checks every op's result; returns the hit fraction.
double drive_pair(SeedIndexCache& flat, ReferenceSeedCache& ref,
                  const std::vector<Kmer>& pool, std::size_t ops,
                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::size_t hits = 0;
  std::vector<SeedHit> out_flat;
  std::vector<SeedHit> out_ref;
  for (std::size_t op = 0; op < ops; ++op) {
    const Kmer& m = pool[rng() % pool.size()];
    const auto insert_both = [&] {
      const auto list = random_hits(rng);
      const std::size_t total = list.size() + rng() % 3;
      flat.insert(0, m, list, total);
      ref.insert(m, list, total);
    };
    if (rng() % 8 == 0) {  // bare insert (a duplicate whenever m is cached)
      insert_both();
      continue;
    }
    const std::size_t max_hits = 1 + rng() % 6;  // often < the stored list
    out_flat.assign(1, SeedHit{7, 7, 7});        // lookups append
    out_ref = out_flat;
    std::size_t total_flat = 99;
    std::size_t total_ref = 99;
    const bool hit_flat = flat.lookup(0, m, max_hits, out_flat, total_flat);
    const bool hit_ref = ref.lookup(m, max_hits, out_ref, total_ref);
    if (hit_flat != hit_ref || out_flat != out_ref || total_flat != total_ref) {
      ADD_FAILURE() << "op " << op << ": hit " << hit_flat << " vs "
                    << hit_ref << ", total " << total_flat << " vs "
                    << total_ref << ", " << out_flat.size() << " vs "
                    << out_ref.size() << " hits copied";
      return 0.0;
    }
    if (hit_ref)
      ++hits;
    else
      insert_both();
  }
  return static_cast<double>(hits) / static_cast<double>(ops);
}

void expect_same_state(const SeedIndexCache& flat,
                       const ReferenceSeedCache& ref) {
  EXPECT_EQ(flat.counters(), ref.counters());
  EXPECT_EQ(flat.entries(), ref.entries());
  EXPECT_EQ(saved(flat), saved(ref));
}

TEST(SeedIndexCache, MissThenHit) {
  SeedIndexCache cache(Topology(8, 4), {16});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  const Kmer m = kmer_of("ACGTACGTACG");
  EXPECT_FALSE(cache.lookup(0, m, 10, out, total));
  cache.insert(0, m, {{1, 1, 5}, {2, 2, 9}}, 2);
  ASSERT_TRUE(cache.lookup(0, m, 10, out, total));
  EXPECT_EQ(total, 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].t_pos, 5u);
  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(SeedIndexCache, NodesAreIndependent) {
  SeedIndexCache cache(Topology(8, 4), {16});
  const Kmer m = kmer_of("TTTTTTT");
  cache.insert(0, m, {{1, 1, 0}}, 1);
  std::vector<SeedHit> out;
  std::size_t total = 0;
  EXPECT_TRUE(cache.lookup(0, m, 5, out, total));
  EXPECT_FALSE(cache.lookup(1, m, 5, out, total));  // other node: cold
}

TEST(SeedIndexCache, MaxHitsLimitsCopiedResults) {
  SeedIndexCache cache(Topology(2, 2), {16});
  const Kmer m = kmer_of("ACACACA");
  cache.insert(0, m, {{1, 1, 0}, {2, 2, 0}, {3, 3, 0}}, 7);
  std::vector<SeedHit> out;
  std::size_t total = 0;
  ASSERT_TRUE(cache.lookup(0, m, 2, out, total));
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(total, 7u);  // the seed's true frequency survives truncation
}

TEST(SeedIndexCache, EvictsWhenFull) {
  SeedIndexCache cache(Topology(2, 2), {4});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  for (int i = 0; i < 8; ++i) {
    std::string s = "AAAAAAA";
    s[0] = "ACGT"[i % 4];
    s[1] = "ACGT"[i / 4];
    cache.insert(0, kmer_of(s), {{static_cast<std::uint32_t>(i), 0, 0}}, 1);
  }
  const auto c = cache.counters();
  EXPECT_EQ(c.insertions, 8u);
  EXPECT_EQ(c.evictions, 4u);
  // Exactly 4 of the 8 remain.
  int present = 0;
  for (int i = 0; i < 8; ++i) {
    std::string s = "AAAAAAA";
    s[0] = "ACGT"[i % 4];
    s[1] = "ACGT"[i / 4];
    out.clear();
    if (cache.lookup(0, kmer_of(s), 4, out, total)) ++present;
  }
  EXPECT_EQ(present, 4);
}

TEST(SeedIndexCache, DuplicateInsertIsIgnored) {
  SeedIndexCache cache(Topology(2, 2), {8});
  const Kmer m = kmer_of("GGGGGGG");
  cache.insert(0, m, {{1, 1, 0}}, 1);
  cache.insert(0, m, {{9, 9, 9}}, 9);  // should not overwrite
  std::vector<SeedHit> out;
  std::size_t total = 0;
  ASSERT_TRUE(cache.lookup(0, m, 4, out, total));
  EXPECT_EQ(total, 1u);
  EXPECT_EQ(out[0].fragment_id, 1u);
}

TEST(SeedIndexCache, ZeroCapacityNeverStores) {
  SeedIndexCache cache(Topology(2, 2), {0});
  const Kmer m = kmer_of("CCCCCCC");
  cache.insert(0, m, {{1, 1, 0}}, 1);
  std::vector<SeedHit> out;
  std::size_t total = 0;
  EXPECT_FALSE(cache.lookup(0, m, 4, out, total));
}

TEST(SeedIndexCache, ConcurrentMixedAccessIsSafe) {
  // One node's cache is hammered by its 4 rank threads doing the aligner's
  // lookup-then-insert-on-miss, over a seed pool ~4x its capacity, so
  // evictions overwrite slots while other threads probe them.
  constexpr std::size_t kCapacity = 256;
  constexpr int kThreads = 4;
  constexpr int kLookups = 20'000;
  std::mt19937_64 pool_rng(11);
  const auto pool = seed_pool(4 * kCapacity, false, pool_rng);
  // A seed's hit list is a pure function of its pool index.
  const auto list_of = [](std::size_t i) {
    std::vector<SeedHit> hits(1 + i % 3);
    for (std::size_t h = 0; h < hits.size(); ++h)
      hits[h] = {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(h),
                 static_cast<std::uint32_t>(i * 7 + h)};
    return hits;
  };
  for (const bool admission : {false, true}) {
    SCOPED_TRACE(admission ? "admission" : "clock");
    SeedIndexCache cache(Topology(kThreads, kThreads), {kCapacity, admission});
    std::vector<int> bad(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng(static_cast<std::uint64_t>(t));
        std::vector<SeedHit> out;
        for (int i = 0; i < kLookups; ++i) {
          const std::size_t s = rng() % pool.size();
          const auto expect = list_of(s);
          out.clear();
          std::size_t total = 0;
          if (cache.lookup(0, pool[s], 8, out, total)) {
            if (out != expect || total != expect.size() + 1) ++bad[t];
          } else {
            cache.insert(0, pool[s], expect, expect.size() + 1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t)
      EXPECT_EQ(bad[t], 0) << "thread " << t << " saw a foreign hit list";
    const auto c = cache.counters();
    EXPECT_EQ(c.hits + c.misses, std::uint64_t{kThreads} * kLookups);
    EXPECT_GT(c.hits, 0u);
    EXPECT_GT(c.evictions, 0u);
    EXPECT_LE(cache.entries(), kCapacity);
    EXPECT_EQ(c.insertions - c.evictions, cache.entries());
  }
}

// capacity, eviction-aware admission, hit-heavy mix
class SeedCacheOracle
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool, bool>> {};

TEST_P(SeedCacheOracle, FlatShardMatchesMapReference) {
  const auto [capacity, admission, hit_heavy] = GetParam();
  std::mt19937_64 rng(capacity * 4 + admission * 2 + hit_heavy);
  // A pool ~5x the cache gives the aligner's miss-heavy mix (~18% hits on
  // the reference workload); ~1.25x gives a hit-heavy one that still evicts.
  const std::size_t pool_size =
      hit_heavy ? capacity + capacity / 4 + 1 : 5 * capacity + 4;
  const auto pool = seed_pool(pool_size, capacity <= 64, rng);
  const Topology one_node(2, 2);
  const SeedIndexCache::Options opt{capacity, admission};

  SeedIndexCache flat(one_node, opt);
  ReferenceSeedCache ref(capacity, admission);
  const double hit_frac = drive_pair(flat, ref, pool, 100'000, rng());
  ASSERT_FALSE(HasFailure());
  expect_same_state(flat, ref);
  if (capacity > 0) {
    EXPECT_GT(ref.counters().evictions, 1000u);
    if (hit_heavy) EXPECT_GT(hit_frac, 0.4);
    else EXPECT_LT(hit_frac, 0.3);
  }

  // Loading the reference's snapshot restores it exactly at the same
  // capacity and shrinks it the same way at a smaller one; both caches
  // then keep behaving identically.
  const std::string snap = saved(ref);
  for (const std::size_t cap : {capacity, capacity / 4}) {
    SCOPED_TRACE("load into capacity " + std::to_string(cap));
    SeedIndexCache flat2(one_node, {cap, admission});
    ReferenceSeedCache ref2(cap, admission);
    std::istringstream a(snap);
    std::istringstream b(snap);
    flat2.load(a);
    ref2.load(b);
    expect_same_state(flat2, ref2);
    drive_pair(flat2, ref2, pool, 10'000, rng());
    expect_same_state(flat2, ref2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityAdmissionMix, SeedCacheOracle,
    ::testing::Combine(::testing::Values(0, 1, 4, 64, 1024), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto& info) {
      return "cap" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_admission" : "_clock") +
             (std::get<2>(info.param) ? "_hitheavy" : "_missheavy");
    });

TEST(TargetCache, MissInsertHit) {
  TargetCache cache(Topology(4, 2), {1 << 20});
  EXPECT_FALSE(cache.contains(0, 42));
  cache.insert(0, 42, 1000);
  EXPECT_TRUE(cache.contains(0, 42));
  EXPECT_FALSE(cache.contains(1, 42));  // per-node
}

TEST(TargetCache, EvictsLeastRecentlyUsedByBytes) {
  TargetCache cache(Topology(2, 2), {3000});
  cache.insert(0, 1, 1000);
  cache.insert(0, 2, 1000);
  cache.insert(0, 3, 1000);
  EXPECT_TRUE(cache.contains(0, 1));  // touch 1 -> MRU
  cache.insert(0, 4, 1000);           // evicts LRU = 2
  EXPECT_FALSE(cache.contains(0, 2));
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_TRUE(cache.contains(0, 3));
  EXPECT_TRUE(cache.contains(0, 4));
}

TEST(TargetCache, ObjectLargerThanCapacityIsNotCached) {
  TargetCache cache(Topology(2, 2), {100});
  cache.insert(0, 7, 500);
  EXPECT_FALSE(cache.contains(0, 7));
}

TEST(TargetCache, MultiEvictionToFitLargeEntry) {
  TargetCache cache(Topology(2, 2), {1000});
  cache.insert(0, 1, 400);
  cache.insert(0, 2, 400);
  cache.insert(0, 3, 900);  // must evict both
  EXPECT_FALSE(cache.contains(0, 1));
  EXPECT_FALSE(cache.contains(0, 2));
  EXPECT_TRUE(cache.contains(0, 3));
  EXPECT_EQ(cache.counters().evictions, 2u);
}

TEST(TargetCache, DuplicateInsertKeepsOneCopy) {
  TargetCache cache(Topology(2, 2), {1000});
  cache.insert(0, 5, 300);
  cache.insert(0, 5, 300);
  cache.insert(0, 6, 700);  // fits only if id 5 counted once
  EXPECT_TRUE(cache.contains(0, 5));
  EXPECT_TRUE(cache.contains(0, 6));
}

// ---------------------------------------------------------------------------
// Eviction-aware admission (multi-tenant streams; persisted hit counters)
// ---------------------------------------------------------------------------

TEST(SeedIndexCache, AdmissionProtectsWarmEntriesFromColdFloods) {
  SeedIndexCache cache(Topology(2, 2),
                       {.capacity_per_node = 4, .eviction_aware_admission = true});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  for (int i = 0; i < 4; ++i) {
    std::string s = "AAAAAAA";
    s[0] = "ACGT"[i];
    cache.insert(0, kmer_of(s), {{static_cast<std::uint32_t>(i), 0, 0}}, 1);
  }
  // One proven-hot entry; the other three stay hitless.
  const Kmer hot = kmer_of("GAAAAAA");
  for (int rep = 0; rep < 100; ++rep) {
    out.clear();
    ASSERT_TRUE(cache.lookup(0, hot, 4, out, total));
  }
  // A cold multi-tenant flood cycles through the hitless slots...
  for (int i = 0; i < 16; ++i) {
    std::string s = "CCCCCCC";
    s[0] = "ACGT"[i % 4];
    s[1] = "ACGT"[i / 4];
    cache.insert(0, kmer_of(s), {{0, 0, 0}}, 1);
  }
  // ...but the warm working set survives it.
  out.clear();
  EXPECT_TRUE(cache.lookup(0, hot, 4, out, total));
  EXPECT_GT(cache.counters().evictions, 0u);  // cold entries did cycle
}

TEST(SeedIndexCache, AdmissionRejectsWhenEverythingIsWarmer) {
  SeedIndexCache cache(Topology(2, 2),
                       {.capacity_per_node = 2, .eviction_aware_admission = true});
  std::vector<SeedHit> out;
  std::size_t total = 0;
  cache.insert(0, kmer_of("AAAAAAA"), {{1, 0, 0}}, 1);
  cache.insert(0, kmer_of("CAAAAAA"), {{2, 0, 0}}, 1);
  for (int rep = 0; rep < 64; ++rep) {
    out.clear();
    cache.lookup(0, kmer_of("AAAAAAA"), 4, out, total);
    out.clear();
    cache.lookup(0, kmer_of("CAAAAAA"), 4, out, total);
  }
  cache.insert(0, kmer_of("GAAAAAA"), {{3, 0, 0}}, 1);  // colder than both
  out.clear();
  EXPECT_FALSE(cache.lookup(0, kmer_of("GAAAAAA"), 4, out, total));
  EXPECT_EQ(cache.counters().admission_rejects, 1u);
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_TRUE(cache.lookup(0, kmer_of("AAAAAAA"), 4, out, total));

  // The probe decays hit counts, so a persistent newcomer is admitted
  // eventually — warm entries are protected, not immortal.
  for (int i = 0; i < 16; ++i) {
    std::string s = "GGGGGGG";
    s[1] = "ACGT"[i % 4];
    s[2] = "ACGT"[i / 4];
    cache.insert(0, kmer_of(s), {{4, 0, 0}}, 1);
  }
  EXPECT_GT(cache.counters().evictions, 0u);
}

TEST(TargetCache, AdmissionGivesWarmTailEntriesASecondChance) {
  TargetCache cache(Topology(2, 2), {.capacity_bytes_per_node = 1000,
                                     .eviction_aware_admission = true});
  cache.insert(0, 1, 500);
  cache.insert(0, 2, 500);
  for (int rep = 0; rep < 3; ++rep) EXPECT_TRUE(cache.contains(0, 1));
  // Tail is the hitless id 2; it is sacrificed, the warm id 1 survives.
  cache.insert(0, 3, 500);
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_FALSE(cache.contains(0, 2));
  EXPECT_TRUE(cache.contains(0, 3));
}

TEST(TargetCache, AdmissionRejectsWhenEverythingIsWarmer) {
  TargetCache cache(Topology(2, 2), {.capacity_bytes_per_node = 1000,
                                     .eviction_aware_admission = true});
  cache.insert(0, 1, 500);
  cache.insert(0, 2, 500);
  for (int rep = 0; rep < 200; ++rep) {
    cache.contains(0, 1);
    cache.contains(0, 2);
  }
  cache.insert(0, 3, 500);  // both residents are far warmer: refused
  EXPECT_FALSE(cache.contains(0, 3));
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_TRUE(cache.contains(0, 2));
  EXPECT_EQ(cache.counters().admission_rejects, 1u);
}

TEST(TargetCache, ConcurrentAccessIsSafe) {
  TargetCache cache(Topology(8, 4), {1 << 16});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 100);
      for (int i = 0; i < 3000; ++i) {
        const auto gid = static_cast<std::uint32_t>(rng() % 256);
        const int node = t / 4;
        if (cache.contains(node, gid)) continue;
        cache.insert(node, gid, 64 + rng() % 512);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(cache.counters().insertions, 0u);
}

}  // namespace
