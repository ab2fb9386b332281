#ifndef PSK_TABLE_VALUE_STORE_H_
#define PSK_TABLE_VALUE_STORE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "psk/table/value.h"

namespace psk {

/// Id of one interned value inside a ValueStore. The high kShardBits bits
/// select the shard, the rest the slot within it. Id 0 is always null.
using ValueId = uint32_t;

/// Sharded, interned value dictionary — the cell storage behind Table.
///
/// Every distinct cell value of a table lives here exactly once; cells are
/// 32-bit ValueIds into the store. Interning is thread-safe and designed
/// for parallel ingest: the store is split into kNumShards shards, each
/// with its own mutex, slot blocks and lookup index, so concurrent
/// Intern() calls on different shards never contend. Shard 0 is the
/// *hot shard*: nulls, numbers and short strings — the values that
/// dominate real microdata — are interned there first (capped at
/// kHotShardSlots entries so its flat index stays cache-resident);
/// everything else is routed to a shard by value hash.
///
/// Guarantees:
///  - One id per distinct value: two Values intern to the same id iff
///    they have the same type() and equal payload (int64 and double are
///    distinct classes here even when numerically equal, so a cell reads
///    back with exactly the dynamic type it was written with; doubles
///    compare by value, merging 0.0 and -0.0).
///  - Id stability: an id, once returned, refers to the same Value for
///    the lifetime of the store. Slots live in per-shard blocks that never
///    move, so Get() references are never invalidated by later interning,
///    and Get() may run concurrently with Intern() without a lock.
///  - Id 0 is the null value in every store.
///
/// Ids are assignment-order dependent: parallel ingest may assign
/// different ids across runs. Nothing downstream may order or compare
/// *by id value* across columns — consumers either dereference ids
/// (Get), test same-column equality (equal cells have equal ids), or
/// re-number by first occurrence in row order (EncodedTable::Build),
/// all of which are id-assignment invariant.
class ValueStore {
 public:
  static constexpr int kShardBits = 4;
  static constexpr size_t kNumShards = size_t{1} << kShardBits;
  static constexpr uint32_t kSlotBits = 32 - kShardBits;
  /// Maximum distinct values per shard (2^28 with 16 shards).
  static constexpr size_t kMaxShardSlots = size_t{1} << kSlotBits;
  /// Hot-shard cap: beyond this, hot-classed values spill to hash shards.
  static constexpr size_t kHotShardSlots = size_t{1} << 16;
  static constexpr ValueId kNullId = 0;

  ValueStore();
  ~ValueStore();

  ValueStore(const ValueStore&) = delete;
  ValueStore& operator=(const ValueStore&) = delete;

  /// Interns `value`, returning its id; equal values (same type, equal
  /// payload) always yield the same id, under any interleaving of
  /// concurrent callers. Aborts via PSK_CHECK if a shard overflows its
  /// 2^28-slot id space (≈4.3B distinct values store-wide).
  ValueId Intern(const Value& value);

  /// The interned value for `id`; the reference is stable for the life of
  /// the store. `id` must have been returned by this store's Intern (on
  /// this thread, or handed over with a happens-before edge). Lock-free
  /// and O(1): safe while other threads intern.
  const Value& Get(ValueId id) const {
    const Shard& shard = shards_[id >> kSlotBits];
    uint32_t slot = id & (kMaxShardSlots - 1);
    int block = BlockOf(slot);
    return shard.blocks[block].load(std::memory_order_acquire)
        [slot - BlockStart(block)];
  }

  /// Distinct values interned so far (the null sentinel included).
  size_t size() const;

  /// Approximate heap footprint: used slots, string payloads, and the
  /// per-shard lookup indexes. The ingest-side MemoryBudget charge seam
  /// (satellite of the scheduler's degradation ladder): a table's
  /// sustained ingest memory is its id columns plus this.
  size_t ApproxBytes() const;

 private:
  /// Slot storage is a fixed table of geometric blocks per shard: block b
  /// holds kFirstBlockSlots << b slots, so kNumBlocks blocks cover all
  /// kMaxShardSlots. A slot's block and offset are pure arithmetic on its
  /// index, and a block, once published, never moves or shrinks.
  static constexpr int kFirstBlockBits = 4;
  static constexpr size_t kNumBlocks = kSlotBits - kFirstBlockBits + 1;
  static int BlockOf(uint32_t slot) {
    return std::bit_width((slot >> kFirstBlockBits) + 1u) - 1;
  }
  static size_t BlockStart(int block) {
    return ((size_t{1} << block) - 1) << kFirstBlockBits;
  }
  static size_t BlockSlots(int block) {
    return size_t{1} << (block + kFirstBlockBits);
  }

  struct Shard {
    mutable std::mutex mutex;
    /// Block table. Blocks are allocated under `mutex` and published with
    /// a release store, so Get() reads them lock-free (acquire).
    std::atomic<Value*> blocks[kNumBlocks] = {};
    /// Slots in use (guarded by `mutex`).
    size_t num_slots = 0;
    /// Interning index over the slots. Keys point into the blocks
    /// (stable), so no Value is duplicated between index and storage.
    struct DerefHash {
      size_t operator()(const Value* v) const;
    };
    struct DerefEq {
      bool operator()(const Value* a, const Value* b) const;
    };
    std::unordered_map<const Value*, uint32_t, DerefHash, DerefEq> index;
    /// String payload bytes interned into this shard (for ApproxBytes).
    size_t payload_bytes = 0;

    /// Copies `value` into the next slot (caller holds `mutex`).
    const Value* AppendLocked(const Value& value);
  };

  /// Interns into one shard under its lock; `base` is the shard's id
  /// prefix. Returns the id, or kNullId+0xFFFFFFFF... never: aborts on
  /// overflow, except a full hot shard returns kHotShardFull.
  static constexpr ValueId kHotShardFull = 0xFFFFFFFFu;
  ValueId InternInShard(Shard* shard, ValueId base, size_t cap,
                        const Value& value);

  Shard shards_[kNumShards];
};

}  // namespace psk

#endif  // PSK_TABLE_VALUE_STORE_H_
