#include "cache/seed_cache.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "cache/cache_snapshot.hpp"

namespace mera::cache {

namespace {

/// Clock probes per admission attempt: bounds insert() cost while still
/// decaying hot entries fast enough that nothing is protected forever.
constexpr std::size_t kAdmissionProbes = 8;

/// Smallest index table: a new shard holds this many empty entries.
constexpr std::size_t kMinTableSize = 16;

/// A slot keeps its hit buffer across evictions unless the buffer exceeds
/// twice the newcomer's list plus this slack; otherwise one seed with a long
/// hit list would pin its buffer for the rest of the slot's life.
constexpr std::size_t kSpareHits = 16;

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

std::uint64_t entry_of(std::uint64_t hash, std::size_t slot) noexcept {
  return hash << 32 | (slot + 1);
}
std::uint32_t tag_of(std::uint64_t entry) noexcept {
  return static_cast<std::uint32_t>(entry >> 32);
}
std::size_t slot_of(std::uint64_t entry) noexcept {
  return static_cast<std::size_t>(entry & 0xffffffffu) - 1;
}

/// Power-of-two table size that keeps `n` entries at load factor <= 1/2.
std::size_t table_size_for(std::size_t n) noexcept {
  std::size_t size = kMinTableSize;
  while (size < 2 * n) size *= 2;
  return size;
}

}  // namespace

std::size_t SeedIndexCache::Shard::find(const seq::Kmer& seed,
                                        std::uint64_t hash) const {
  const std::size_t mask = table.size() - 1;
  const auto tag = static_cast<std::uint32_t>(hash);
  for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
    const std::uint64_t e = table[i];
    if (e == 0) return kNoSlot;
    if (tag_of(e) == tag && ring[slot_of(e)].seed == seed) return slot_of(e);
  }
}

void SeedIndexCache::Shard::place(std::uint64_t hash, std::size_t slot) {
  const std::size_t mask = table.size() - 1;
  std::size_t i = static_cast<std::uint32_t>(hash) & mask;
  while (table[i] != 0) i = (i + 1) & mask;
  table[i] = entry_of(hash, slot);
}

void SeedIndexCache::Shard::unindex(std::size_t slot) {
  const std::size_t mask = table.size() - 1;
  const auto tag = static_cast<std::uint32_t>(ring[slot].seed.mixed_hash());
  std::size_t i = tag & mask;
  while (slot_of(table[i]) != slot) i = (i + 1) & mask;
  // Backward-shift deletion: walk the rest of the probe run and pull each
  // entry whose home is not cyclically in (hole, entry] back into the hole,
  // so every remaining entry stays reachable from its home without
  // tombstones.
  for (std::size_t j = i;;) {
    table[i] = 0;
    for (;;) {
      j = (j + 1) & mask;
      if (table[j] == 0) return;
      const std::size_t home = tag_of(table[j]) & mask;
      const bool reachable =
          i <= j ? (i < home && home <= j) : (i < home || home <= j);
      if (!reachable) break;
    }
    table[i] = table[j];
    i = j;
  }
}

void SeedIndexCache::Shard::reindex(std::size_t size) {
  table.assign(size, 0);
  for (std::size_t s = 0; s < ring.size(); ++s)
    place(ring[s].seed.mixed_hash(), s);
}

SeedIndexCache::SeedIndexCache(const pgas::Topology& topo, Options opt)
    : capacity_(opt.capacity_per_node),
      admission_(opt.eviction_aware_admission),
      shards_(static_cast<std::size_t>(topo.nnodes())) {
  // The index packs slot + 1 into 32 bits.
  if (capacity_ >= 0xffffffffu)
    throw std::invalid_argument(
        "seed cache: capacity_per_node must be below 2^32 - 1");
  for (Shard& sh : shards_) sh.table.assign(kMinTableSize, 0);
}

bool SeedIndexCache::lookup(int node, const seq::Kmer& seed,
                            std::size_t max_hits,
                            std::vector<dht::SeedHit>& out,
                            std::size_t& total) {
  Shard& sh = shards_[static_cast<std::size_t>(node)];
  const std::uint64_t hash = seed.mixed_hash();
  const std::scoped_lock lk(sh.mu);
  const std::size_t slot = sh.find(seed, hash);
  if (slot == kNoSlot) {
    ++sh.counters.misses;
    return false;
  }
  Slot& s = sh.ring[slot];
  ++sh.counters.hits;
  ++s.use_count;
  total = s.total;
  const std::size_t n = std::min(max_hits, s.hits.size());
  out.insert(out.end(), s.hits.begin(),
             s.hits.begin() + static_cast<std::ptrdiff_t>(n));
  return true;
}

void SeedIndexCache::insert(int node, const seq::Kmer& seed,
                            const std::vector<dht::SeedHit>& hits,
                            std::size_t total) {
  if (capacity_ == 0) return;
  Shard& sh = shards_[static_cast<std::size_t>(node)];
  const std::uint64_t hash = seed.mixed_hash();
  const std::scoped_lock lk(sh.mu);
  if (sh.find(seed, hash) != kNoSlot) return;
  std::size_t slot = sh.ring.size();
  if (sh.ring.size() >= capacity_) {
    if (admission_) {
      // Eviction-aware admission: the newcomer has no recorded hits, so it
      // may only displace an entry that is just as cold. Probe a few slots
      // under the clock hand, halving each survivor's hit count; if every
      // probed entry is still warmer, refuse the insert.
      const std::size_t probes = std::min(kAdmissionProbes, sh.ring.size());
      std::size_t p = 0;
      for (; p < probes && sh.ring[sh.cursor].use_count != 0; ++p) {
        sh.ring[sh.cursor].use_count /= 2;
        sh.cursor = (sh.cursor + 1) % sh.ring.size();
      }
      if (p == probes) {
        ++sh.counters.admission_rejects;
        return;
      }
    }
    // Clock eviction: the newcomer overwrites the slot under the cursor.
    slot = sh.cursor;
    sh.unindex(slot);
    sh.cursor = (sh.cursor + 1) % sh.ring.size();
    ++sh.counters.evictions;
  } else {
    if (2 * (slot + 1) > sh.table.size()) sh.reindex(2 * sh.table.size());
    sh.ring.emplace_back();
  }
  Slot& s = sh.ring[slot];
  s.seed = seed;
  if (s.hits.capacity() > 2 * hits.size() + kSpareHits)
    std::vector<dht::SeedHit>().swap(s.hits);
  s.hits.assign(hits.begin(), hits.end());
  s.total = static_cast<std::uint32_t>(total);
  s.use_count = 0;
  sh.place(hash, slot);
  ++sh.counters.insertions;
}

CacheCounters SeedIndexCache::counters() const {
  CacheCounters c;
  for (const auto& sh : shards_) {
    const std::scoped_lock lk(sh.mu);
    c.hits += sh.counters.hits;
    c.misses += sh.counters.misses;
    c.insertions += sh.counters.insertions;
    c.evictions += sh.counters.evictions;
    c.admission_rejects += sh.counters.admission_rejects;
  }
  return c;
}

std::size_t SeedIndexCache::entries() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    const std::scoped_lock lk(sh.mu);
    n += sh.ring.size();
  }
  return n;
}

// --- snapshot serialization --------------------------------------------------
//
// Per-shard layout (ring order preserves the clock's eviction schedule):
//   nnodes u64
//   per node: counters 5 x u64 | cursor u64 | nentries u64
//     per entry: k u32 | kmer 2 x u64 | use_count u32 | total u32 | nhits u32
//                | nhits x (3 x u32)

void SeedIndexCache::save(std::ostream& os) const {
  using snapio::put;
  put<std::uint64_t>(os, shards_.size());
  for (const auto& sh : shards_) {
    const std::scoped_lock lk(sh.mu);
    snapio::put_counters(os, sh.counters);
    put<std::uint64_t>(os, sh.cursor);
    put<std::uint64_t>(os, sh.ring.size());
    for (const Slot& v : sh.ring) {
      put<std::uint32_t>(os, static_cast<std::uint32_t>(v.seed.k()));
      put<std::uint64_t>(os, v.seed.words()[0]);
      put<std::uint64_t>(os, v.seed.words()[1]);
      put<std::uint32_t>(os, v.use_count);
      put<std::uint32_t>(os, v.total);
      put<std::uint32_t>(os, static_cast<std::uint32_t>(v.hits.size()));
      for (const dht::SeedHit& h : v.hits) {
        put<std::uint32_t>(os, h.fragment_id);
        put<std::uint32_t>(os, h.target_id);
        put<std::uint32_t>(os, h.t_pos);
      }
    }
  }
}

void SeedIndexCache::load(std::istream& is) {
  using snapio::get;
  const auto nnodes = get<std::uint64_t>(is);
  if (nnodes != shards_.size())
    throw CacheSnapshotError(
        "cache snapshot: seed section has " + std::to_string(nnodes) +
        " node shards, this topology has " + std::to_string(shards_.size()));
  for (auto& sh : shards_) {
    const CacheCounters counters = snapio::get_counters(is);
    const auto cursor = get<std::uint64_t>(is);
    const auto nentries = get<std::uint64_t>(is);
    if (nentries == 0 ? cursor != 0 : cursor >= nentries)
      throw CacheSnapshotError("cache snapshot: seed ring cursor out of range");

    // File order is ring-slot order; with the saved cursor it encodes the
    // clock's age sequence (oldest entry sits at the cursor).
    std::vector<Slot> slots(static_cast<std::size_t>(nentries));
    for (std::uint64_t e = 0; e < nentries; ++e) {
      const auto k = get<std::uint32_t>(is);
      std::array<std::uint64_t, 2> w;
      w[0] = get<std::uint64_t>(is);
      w[1] = get<std::uint64_t>(is);
      const auto seed = seq::Kmer::from_words(static_cast<int>(k), w);
      if (!seed)
        throw CacheSnapshotError("cache snapshot: invalid seed encoding");
      Slot& entry = slots[static_cast<std::size_t>(e)];
      entry.seed = *seed;
      entry.use_count = get<std::uint32_t>(is);
      entry.total = get<std::uint32_t>(is);
      const auto nhits = get<std::uint32_t>(is);
      entry.hits.reserve(nhits);
      for (std::uint32_t h = 0; h < nhits; ++h) {
        dht::SeedHit hit;
        hit.fragment_id = get<std::uint32_t>(is);
        hit.target_id = get<std::uint32_t>(is);
        hit.t_pos = get<std::uint32_t>(is);
        entry.hits.push_back(hit);
      }
    }

    std::uint64_t dropped = 0;
    std::size_t new_cursor = static_cast<std::size_t>(cursor);
    if (slots.size() > capacity_) {
      // The snapshot was taken by a bigger cache: admit the warmest entries
      // (persisted hit count, age breaking ties toward the younger entry) —
      // the eviction-aware admission policy applied wholesale at load time.
      // Survivors are laid out oldest-first with the cursor at 0, which
      // reproduces the saved clock schedule over the surviving entries.
      const auto age_of = [&](std::size_t slot) {
        return (slot + slots.size() - static_cast<std::size_t>(cursor)) %
               slots.size();  // 0 = oldest
      };
      std::vector<std::size_t> order(slots.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (slots[a].use_count != slots[b].use_count)
          return slots[a].use_count > slots[b].use_count;
        return age_of(a) > age_of(b);  // warm tie: most recently inserted
      });
      order.resize(capacity_);
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return age_of(a) < age_of(b);
                });
      std::vector<Slot> kept;
      kept.reserve(order.size());
      for (const std::size_t i : order) kept.push_back(std::move(slots[i]));
      dropped = slots.size() - kept.size();
      slots = std::move(kept);
      new_cursor = 0;
    }

    // Stage outside the lock, then swap in: a shard is either fully
    // replaced or (on a malformed snapshot) left exactly as it was.
    Shard staged;
    staged.ring = std::move(slots);
    staged.table.assign(table_size_for(staged.ring.size()), 0);
    for (std::size_t slot = 0; slot < staged.ring.size(); ++slot) {
      const seq::Kmer& seed = staged.ring[slot].seed;
      const std::uint64_t hash = seed.mixed_hash();
      if (staged.find(seed, hash) != kNoSlot)
        throw CacheSnapshotError("cache snapshot: duplicate seed entry");
      staged.place(hash, slot);
    }

    const std::scoped_lock lk(sh.mu);
    sh.ring.swap(staged.ring);
    sh.table.swap(staged.table);
    sh.cursor = new_cursor;
    sh.counters = counters;
    sh.counters.admission_rejects += dropped;
  }
}

}  // namespace mera::cache
