// FlatHashIndex: open-addressing hash index shared by the join-build and
// group-by kernels.
//
// Maps 64-bit key hashes to chains of dense uint32 ids (build-row ids for
// joins, group ids for aggregation). The table itself never compares keys —
// it chains every id inserted under the same 64-bit hash, and callers verify
// real keys when walking a chain, so two distinct keys whose hashes collide
// are never merged.
//
// Layout: three parallel slot arrays (hash, chain head, chain tail) of
// power-of-two capacity, probed linearly from a Fibonacci-mixed home slot,
// plus one contiguous `next_` arena holding the id chains. Chains preserve
// insertion order (tail append), which keeps probe output deterministic and
// identical between bulk and incremental builds. Inserts are incremental
// (one id, or one batch of ids, at a time) with amortized doubling at 7/8
// load; there is no erase, hence no tombstones. A batch insert prefetches
// home slots ahead, so a reserved table fills at memory bandwidth rather
// than one miss per id. `Reset()` reuses the slot allocation for
// refresh-mode inputs.
#ifndef WAKE_COMMON_FLAT_HASH_H_
#define WAKE_COMMON_FLAT_HASH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wake {

class FlatHashIndex {
 public:
  /// End-of-chain / not-found marker.
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  FlatHashIndex() { AllocTable(kMinCapacity); }

  /// Number of distinct hashes stored.
  size_t num_chains() const { return used_; }
  size_t capacity() const { return capacity_; }

  /// Drops all entries but keeps the slot allocation.
  void Reset() {
    for (Slot& s : slots_) s.head = kNil;
    next_.clear();
    used_ = 0;
  }

  /// Pre-sizes for `ids` inserts (an upper bound on distinct hashes).
  void Reserve(size_t ids) {
    next_.reserve(ids);
    size_t want = kMinCapacity;
    while (want * 7 < ids * 8) want <<= 1;
    if (want > capacity_) Rehash(want);
  }

  /// Head of the id chain stored under `h`, or kNil.
  uint32_t Find(uint64_t h) const {
    const size_t mask = capacity_ - 1;
    size_t s = HomeSlot(h);
    while (slots_[s].head != kNil) {
      if (slots_[s].hash == h) return slots_[s].head;
      s = (s + 1) & mask;
    }
    return kNil;
  }

  /// Successor of `id` in its chain, or kNil.
  uint32_t Next(uint32_t id) const { return next_[id]; }

  /// Hints the cache to load the home slot for `h` (probe loops prefetch a
  /// few hashes ahead to hide the slot-array miss latency).
  void Prefetch(uint64_t h) const { __builtin_prefetch(&slots_[HomeSlot(h)]); }

  /// Hints the cache to load `id`'s chain link (second pipeline stage of
  /// the join probe).
  void PrefetchChain(uint32_t id) const { __builtin_prefetch(&next_[id]); }

  /// Appends `id` to the chain for `h`. Ids must be inserted densely
  /// (0, 1, 2, ...) — they index the `next_` arena directly.
  void Insert(uint64_t h, uint32_t id) {
    if (id >= next_.size()) next_.resize(id + 1, kNil);
    Link(h, id);
  }

  /// Appends ids first, first + 1, ..., first + n - 1 under hashes[0..n):
  /// the same chains as n Insert calls in that order, with each home slot
  /// prefetched kInsertAhead ids ahead.
  void InsertBatch(const uint64_t* hashes, size_t n, uint32_t first) {
    if (first + n > next_.size()) next_.resize(first + n, kNil);
    for (size_t i = 0; i < n; ++i) {
      if (i + kInsertAhead < n) Prefetch(hashes[i + kInsertAhead]);
      Link(hashes[i], first + static_cast<uint32_t>(i));
    }
  }

  /// Approximate heap footprint in bytes (§8.2 memory accounting).
  size_t ByteSize() const {
    return slots_.capacity() * sizeof(Slot) +
           next_.capacity() * sizeof(uint32_t);
  }

 private:
  // 16 bytes: one probe touches a single cache line.
  struct Slot {
    uint64_t hash = 0;
    uint32_t head = kNil;  // kNil == empty slot
    uint32_t tail = 0;
  };

  static constexpr size_t kMinCapacity = 16;
  // Batch-insert prefetch distance, in ids: enough inserts to cover one
  // slot-array miss.
  static constexpr size_t kInsertAhead = 16;

  // Insert's body; `next_` already holds `id`.
  void Link(uint64_t h, uint32_t id) {
    if ((used_ + 1) * 8 > capacity_ * 7) Rehash(capacity_ * 2);
    const size_t mask = capacity_ - 1;
    size_t s = HomeSlot(h);
    while (slots_[s].head != kNil && slots_[s].hash != h) s = (s + 1) & mask;
    next_[id] = kNil;
    Slot& slot = slots_[s];
    if (slot.head == kNil) {
      ++used_;
      slot.hash = h;
      slot.head = id;
    } else {
      next_[slot.tail] = id;
    }
    slot.tail = id;
  }

  size_t HomeSlot(uint64_t h) const {
    // Fibonacci mixing: multiply by 2^64/phi, keep the top log2(cap) bits.
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void AllocTable(size_t cap) {
    capacity_ = cap;
    shift_ = 64 - static_cast<unsigned>(63 - __builtin_clzll(cap));
    slots_.assign(cap, Slot{});
  }

  void Rehash(size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    AllocTable(new_cap);
    const size_t mask = capacity_ - 1;
    for (const Slot& o : old) {
      if (o.head == kNil) continue;
      size_t s = HomeSlot(o.hash);
      while (slots_[s].head != kNil) s = (s + 1) & mask;
      slots_[s] = o;
    }
  }

  size_t capacity_ = 0;
  unsigned shift_ = 64;
  size_t used_ = 0;             // occupied slots (distinct hashes)
  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;  // id -> successor id chain arena
};

}  // namespace wake

#endif  // WAKE_COMMON_FLAT_HASH_H_
