// Node-level software cache for remote seed-index entries (Section III-B).
//
// Each simulated node dedicates memory to caching lookup results for seeds
// whose home rank lives on a *different* node; any rank of the node can then
// serve repeat lookups of that seed locally, skipping the off-node transfer.
// Sharing is per node (UPC shared memory with node affinity), so the shard is
// mutex-protected — the paper's cache is likewise a shared node resource.
// Eviction is clock-style: when full, a rotating cursor overwrites entries.
//
// Storage is flat: each node keeps one slot array that is the clock ring
// itself, indexed by an open-addressed linear-probing table of slot numbers.
// An eviction overwrites the victim's slot in place and reuses its hit
// buffer, so a full cache inserts without allocating.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "dht/seed_index.hpp"
#include "pgas/topology.hpp"
#include "seq/kmer.hpp"

namespace mera::cache {

struct KmerHasher {
  std::size_t operator()(const seq::Kmer& k) const noexcept {
    return static_cast<std::size_t>(k.mixed_hash());
  }
};

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  /// Inserts refused by the eviction-aware admission policy: the candidate
  /// was colder than everything the cache would have had to evict for it.
  std::uint64_t admission_rejects = 0;
  [[nodiscard]] double hit_rate() const noexcept {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// Counters are cumulative over a cache's lifetime — including history
  /// restored by a snapshot load; sessions subtract a batch-start (or
  /// post-load) snapshot to report per-batch activity.
  CacheCounters& operator-=(const CacheCounters& o) noexcept {
    hits -= o.hits;
    misses -= o.misses;
    insertions -= o.insertions;
    evictions -= o.evictions;
    admission_rejects -= o.admission_rejects;
    return *this;
  }
  friend CacheCounters operator-(CacheCounters a,
                                 const CacheCounters& b) noexcept {
    a -= b;
    return a;
  }
  /// Sum of two caches' activity (e.g. the K shard sessions of one batch).
  CacheCounters& operator+=(const CacheCounters& o) noexcept {
    hits += o.hits;
    misses += o.misses;
    insertions += o.insertions;
    evictions += o.evictions;
    admission_rejects += o.admission_rejects;
    return *this;
  }
  friend bool operator==(const CacheCounters&, const CacheCounters&) = default;
};

class SeedIndexCache {
 public:
  struct Options {
    /// Max cached seeds per node (the paper dedicates 16 GB/node; scaled).
    std::size_t capacity_per_node = 1u << 18;
    /// Eviction-aware admission (multi-tenant batch streams): a full cache
    /// admits a new entry only by evicting one with no recorded hits. The
    /// clock hand probes a few slots, halving each probed entry's hit count
    /// (so nothing is protected forever); if every probed slot is still
    /// warmer than the hitless newcomer, the insert is refused instead
    /// (counters().admission_rejects). Off = plain clock overwrite.
    bool eviction_aware_admission = false;
  };

  SeedIndexCache(const pgas::Topology& topo, Options opt);

  /// Serve a lookup from the node's cache. On hit, copies up to max_hits
  /// locations into `out`, sets `total` and returns true.
  bool lookup(int node, const seq::Kmer& seed, std::size_t max_hits,
              std::vector<dht::SeedHit>& out, std::size_t& total);

  /// Record a fetched lookup result in the node's cache.
  void insert(int node, const seq::Kmer& seed,
              const std::vector<dht::SeedHit>& hits, std::size_t total);

  [[nodiscard]] CacheCounters counters() const;  ///< summed over nodes
  [[nodiscard]] std::size_t entries() const;     ///< summed over nodes
  [[nodiscard]] std::size_t capacity_per_node() const noexcept {
    return capacity_;
  }

  // --- snapshot persistence (cache_snapshot.hpp wraps these in a versioned,
  // checksummed, fingerprinted file format) --------------------------------
  /// Serialize every node shard — entries in clock-ring order with their
  /// per-entry hit counts, plus cursor and cumulative counters — so load()
  /// reproduces this cache bit-for-bit (same future hits, same evictions).
  /// Takes each shard's lock in turn; safe concurrently with lookups and
  /// inserts (the snapshot is then per-shard consistent).
  void save(std::ostream& os) const;
  /// Replace this cache's contents with a saved snapshot. The snapshot's
  /// node count must match (throws CacheSnapshotError otherwise). When the
  /// snapshot holds more entries than capacity_per_node, the warmest ones
  /// win: entries are admitted by (persisted hits desc, most recently
  /// inserted first) until full and the rest are counted as
  /// admission_rejects — the eviction-aware admission policy applied at
  /// load time. Restored counters are cumulative across processes.
  void load(std::istream& is);

 private:
  struct Slot {
    seq::Kmer seed;
    std::vector<dht::SeedHit> hits;
    std::uint32_t total = 0;
    std::uint32_t use_count = 0;  ///< lookup hits on this entry (admission)
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<Slot> ring;  ///< one slot per clock position, in ring order
    /// Linear-probing index over `ring`: each entry packs the low 32 bits of
    /// the seed's mixed_hash (high word) and slot + 1 (low word); 0 = empty.
    /// Power-of-two size, load factor <= 1/2, no tombstones.
    std::vector<std::uint64_t> table;
    std::size_t cursor = 0;
    CacheCounters counters;

    /// Ring slot holding `seed` (whose mixed_hash is `hash`), or SIZE_MAX.
    [[nodiscard]] std::size_t find(const seq::Kmer& seed,
                                   std::uint64_t hash) const;
    /// Index ring slot `slot`, not yet in the table, under `hash`.
    void place(std::uint64_t hash, std::size_t slot);
    /// Remove ring slot `slot`'s table entry (backward-shift deletion).
    void unindex(std::size_t slot);
    /// Rebuild the table at `size` entries over the whole ring.
    void reindex(std::size_t size);
  };

  std::size_t capacity_;
  bool admission_;
  std::vector<Shard> shards_;  // one per node
};

}  // namespace mera::cache
