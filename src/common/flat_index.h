#ifndef TEMPLEX_COMMON_FLAT_INDEX_H_
#define TEMPLEX_COMMON_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace templex {

// Open-addressing multimap from a 64-bit hash to an int32 id: the one
// keyed-lookup structure of the chase's apply path (fact dedup, aggregate
// groups, position buckets). The caller keeps the keys in its own dense
// storage, indexed by id; the index stores only {hash, id} pairs, so a
// probe touches one contiguous slot run instead of a bucket pointer, a
// node and the key behind it.
//
// Linear probing over a power-of-two slot array, at most 3/4 full. Every
// key hash in this codebase is a HashMix/HashCombine output
// (common/hash.h), so the slot is taken from the hash's low bits with no
// second mix. Find takes the caller's equality check: ids whose hashes
// collide share a probe run and are told apart by `eq`, so a 64-bit
// collision costs one extra compare and never merges two keys.
class FlatIndex {
 public:
  // The first id stored under `hash` for which `eq(id)` holds, or -1.
  template <typename Eq>
  int32_t Find(uint64_t hash, Eq eq) const {
    if (slots_.empty()) return -1;
    const size_t mask = slots_.size() - 1;
    for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id < 0) return -1;
      if (slot.hash == hash && eq(slot.id)) return slot.id;
    }
  }

  // Adds (hash, id). No duplicate check: the caller Finds first when the
  // key must stay unique. `id` must be non-negative.
  void Insert(uint64_t hash, int32_t id) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    Place(slots_, hash, id);
    ++size_;
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    int32_t id = -1;  // -1: empty
  };

  // Small first table: many indexes (a short analyst chase, a test graph)
  // never hold more than a handful of ids.
  static constexpr size_t kMinSlots = 16;

  static void Place(std::vector<Slot>& slots, uint64_t hash, int32_t id) {
    const size_t mask = slots.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (slots[i].id >= 0) i = (i + 1) & mask;
    slots[i] = Slot{hash, id};
  }

  void Grow() {
    std::vector<Slot> grown(slots_.empty() ? kMinSlots : slots_.size() * 2);
    for (const Slot& slot : slots_) {
      if (slot.id >= 0) Place(grown, slot.hash, slot.id);
    }
    slots_.swap(grown);
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace templex

#endif  // TEMPLEX_COMMON_FLAT_INDEX_H_
