// Per-core flow-state table with the paper's "writing partition" semantics:
// exactly one core (the owner / designated core) ever writes a flow's entry,
// while any core may read it (§3.2–3.3).
//
// Implementation: cache-conscious open-addressing table in the style of
// DPDK's rte_hash / Swiss tables. Slot metadata is split into cache-line-
// aligned groups of 16 one-byte hash tags scanned 16-at-a-time with SSE2 (a
// portable SWAR fallback covers other ISAs), so a probe touches exactly one
// tag line before ever dereferencing a key; full keys, per-slot seqlock
// versions, and entry data live in separate parallel arrays. The table is
// indexed by the system-wide symmetric flow hash (the same Toeplitz value a
// symmetric-key RSS NIC computes, memoized in Packet::flow_hash()) folded
// with a two-multiply mix of the key itself — the symmetric Toeplitz value
// has at most 2^16 distinct outputs and cannot index a large table alone
// (see mix()) — so hot paths never re-run the per-byte Toeplitz LUT.
// find_batch() pipelines a whole batch of lookups with software prefetch
// (tag group, then key/entry lines) the way rte_hash_lookup_bulk does.
//
// A per-slot seqlock version makes cross-core reads consistent in the
// threaded executor without any locking on the writer side; in the
// single-threaded simulator it is inert.
//
// Lifecycle extensions (DESIGN.md §15):
//
//  * Every slot carries a `last_seen` Time stamp stored inline, eight bytes
//    before the entry in the data array (stride = 8 + entry bytes rounded up
//    to 8). Sharing the entry's cache line means touching the stamp on a
//    lookup is free — the line is already resident — where a separate stamp
//    array would cost one extra demand miss per lookup. Stamps are relaxed
//    atomics outside the seqlock protocol: a torn or stale stamp only shifts
//    an expiry decision by one sweep rotation, never corrupts state.
//
//  * The table can grow online by adding equal-sized segments (opt in via
//    set_growth()). Each segment is an independent probe domain under the
//    same group/tag math, so growth never rehashes or moves an entry —
//    inserts that would have failed at max load spill into a fresh segment
//    and lookups degrade to probing each published segment in order. The
//    segment count is published with a release store so concurrent remote
//    readers either see a fully-built segment or none at all.
//
//  * sweep_groups() iterates a bounded number of tag groups per call behind
//    a caller-held cursor, so housekeeping ticks can age entries
//    incrementally without ever paying a full-table scan.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <span>

#include "common/check.hpp"
#include "common/compiler.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "net/five_tuple.hpp"

namespace sprayer::core {

class FlowTable {
 public:
  /// The symmetric flow hash the table is indexed by (see hash::flow_hash).
  using FlowHash = u32;

  /// Hash a key the way every other call site does. All overloads taking an
  /// explicit FlowHash require exactly this value (typically read from
  /// Packet::flow_hash() instead of recomputed).
  [[nodiscard]] static FlowHash hash_of(const net::FiveTuple& key) noexcept;

  /// Slots per tag group; one group's tags share a 16-byte line segment.
  static constexpr u32 kGroupWidth = 16;

  /// Hard ceiling on online growth: the table never exceeds
  /// kMaxSegments × the provisioned capacity.
  static constexpr u32 kMaxSegments = 8;

  /// `capacity` must be a power of two (values below kGroupWidth are rounded
  /// up to it). `entry_size` is the inline state size per flow (NFs set it
  /// in their init function).
  FlowTable(u32 capacity, u32 entry_size, CoreId owner);
  ~FlowTable();

  FlowTable(const FlowTable&) = delete;
  FlowTable& operator=(const FlowTable&) = delete;

  /// Provisioned slot count across all published segments. With growth off
  /// (the default) this is the constructor capacity, always.
  [[nodiscard]] u32 capacity() const noexcept {
    return capacity_ * num_segments_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u32 entry_size() const noexcept { return entry_size_; }
  /// Live-entry count. Written only by the owner core; cross-core readers
  /// (stats paths) get a relaxed-atomic snapshot that may lag the owner by
  /// an in-flight insert/remove but is never torn.
  [[nodiscard]] u32 size() const noexcept {
    return occupied_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] CoreId owner() const noexcept { return owner_; }

  /// Allow the table to grow online up to `max_segments` segments of the
  /// constructor capacity each (clamped to [1, kMaxSegments]). Growth is
  /// opt-in: without this call insert() fails at max load exactly as a
  /// fixed-capacity table does. Owner-core only, any time.
  void set_growth(u32 max_segments) noexcept {
    max_segments_ = std::min(std::max(max_segments, 1u), kMaxSegments);
  }
  [[nodiscard]] u32 num_segments() const noexcept {
    return num_segments_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u32 max_segments() const noexcept { return max_segments_; }

  /// Insert a flow; returns its (zero-initialized) entry, the existing entry
  /// if the key is already present, or nullptr when the table is full.
  /// Owner-core only.
  [[nodiscard]] void* insert(const net::FiveTuple& key) {
    return insert(key, hash_of(key));
  }
  [[nodiscard]] void* insert(const net::FiveTuple& key, FlowHash hash);

  /// Remove a flow. Returns false if absent. Owner-core only.
  bool remove(const net::FiveTuple& key) { return remove(key, hash_of(key)); }
  bool remove(const net::FiveTuple& key, FlowHash hash);

  /// Mutable lookup for the owner core.
  [[nodiscard]] void* find_local(const net::FiveTuple& key) noexcept {
    return find_local(key, hash_of(key));
  }
  [[nodiscard]] void* find_local(const net::FiveTuple& key,
                                 FlowHash hash) noexcept;

  /// Read-only lookup from any core. The pointer is stable until the owner
  /// removes the flow; concurrent in-place updates by the owner may be seen
  /// torn (same as reading a foreign table in any lock-free DPDK pipeline) —
  /// use read_consistent() when a snapshot is required.
  [[nodiscard]] const void* find_remote(
      const net::FiveTuple& key) const noexcept {
    return find_remote(key, hash_of(key));
  }
  [[nodiscard]] const void* find_remote(const net::FiveTuple& key,
                                        FlowHash hash) const noexcept;

  /// Batched find_remote: a software-prefetch pipeline (tag group first,
  /// then the candidate's key and entry lines) that overlaps the cache
  /// misses of up to a batch of independent lookups. out[i] is nullptr for
  /// absent keys; returns the number of hits. `hashes` must be the hash_of
  /// each key (e.g. the packets' memoized RSS hashes).
  u32 find_batch(std::span<const net::FiveTuple> keys,
                 std::span<const FlowHash> hashes,
                 std::span<const void*> out) const noexcept;

  /// Issue a prefetch for the key's tag group (stage one of the bulk
  /// pipeline; useful when lookups span several tables).
  void prefetch(const net::FiveTuple& key, FlowHash hash) const noexcept {
    SPRAYER_PREFETCH_READ(segs_[0].tags +
                          group_base(group_of(mix(hash, pack_key(key)))));
  }

  /// Seqlock-consistent copy of a flow's entry into `out` (which must be at
  /// least entry_size bytes). Returns false if the flow is absent.
  [[nodiscard]] bool read_consistent(const net::FiveTuple& key,
                                     std::span<u8> out) const noexcept {
    return read_consistent(key, hash_of(key), out);
  }
  [[nodiscard]] bool read_consistent(const net::FiveTuple& key, FlowHash hash,
                                     std::span<u8> out) const noexcept;

  /// Owner marks an entry about to be mutated / finished mutating. Required
  /// only when mutating an existing entry that remote cores might snapshot
  /// with read_consistent(). insert()/remove() handle versions themselves.
  void write_begin(void* entry) noexcept;
  void write_end(void* entry) noexcept;

  // --- Idle-aging stamps -------------------------------------------------
  //
  // The stamp lives eight bytes before the entry; any entry pointer handed
  // out by this table works. Relaxed atomics: a stamp race costs at most one
  // sweep rotation of expiry precision.

  /// Record activity on a flow. Cheap enough for every hit on a write path.
  static void touch(void* entry, Time now) noexcept {
    std::atomic_ref<u64>(*stamp_of(entry)).store(now,
                                                 std::memory_order_relaxed);
  }
  /// Record activity from a read path: skips the store (and the cross-core
  /// cache-line ping it would cost on a remote table) unless the stamp is at
  /// least `granularity` old.
  static void touch_if_stale(const void* entry, Time now,
                             Time granularity) noexcept {
    std::atomic_ref<u64> s(*stamp_of(const_cast<void*>(entry)));
    const u64 prev = s.load(std::memory_order_relaxed);
    if (now > prev && now - prev >= granularity) {
      s.store(now, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] static Time last_seen(const void* entry) noexcept {
    return std::atomic_ref<u64>(*stamp_of(const_cast<void*>(entry)))
        .load(std::memory_order_relaxed);
  }

  /// Tag groups across all published segments — the sweep's rotation length.
  [[nodiscard]] u64 total_groups() const noexcept {
    return static_cast<u64>(group_mask_ + 1) *
           num_segments_.load(std::memory_order_relaxed);
  }

  /// Scan up to `max_groups` tag groups starting at `cursor` (wrapping),
  /// calling fn(key, entry, last_seen) for each occupied slot, and advance
  /// the cursor. Bounded work per call — a full rotation takes
  /// ceil(total_groups / max_groups) calls. The caller owns the cursor (one
  /// per sweeping core). Only the table's owner sweeps it, so the scan
  /// races no writer.
  template <typename Fn>
  u32 sweep_groups(u64& cursor, u32 max_groups, Fn&& fn) {
    const u32 nsegs = num_segments_.load(std::memory_order_acquire);
    const u64 total = static_cast<u64>(group_mask_ + 1) * nsegs;
    const u32 shift = static_cast<u32>(std::countr_zero(group_mask_ + 1));
    const u32 n = static_cast<u32>(
        std::min<u64>(max_groups, total));
    for (u32 k = 0; k < n; ++k) {
      const u64 g = cursor % total;
      ++cursor;
      const Segment& s = segs_[static_cast<u32>(g >> shift)];
      const u32 base = group_base(static_cast<u32>(g) & group_mask_);
      for (u32 lane = 0; lane < kGroupWidth; ++lane) {
        const u32 slot = base + lane;
        if (load_tag(s, slot) & kOccupiedBit) {
          fn(unpack_key(load_key(s, slot)), seg_entry(s, slot),
             last_seen(seg_entry(s, slot)));
        }
      }
    }
    return n;
  }

  /// Iterate all live entries (owner core): fn(key, entry).
  template <typename Fn>
  void for_each(Fn&& fn) {
    const u32 nsegs = num_segments_.load(std::memory_order_relaxed);
    for (u32 si = 0; si < nsegs; ++si) {
      for (u32 i = 0; i < capacity_; ++i) {
        if (segs_[si].tags[i] & kOccupiedBit) {
          fn(unpack_key(load_key(segs_[si], i)), seg_entry(segs_[si], i));
        }
      }
    }
  }

 private:
  // Tag bytes: 0 = empty (zero-initialized), 1 = tombstone, high bit set =
  // occupied with the mixed hash's top 7 bits in the low bits — a negative
  // probe rejects 127/128 foreign slots from the tag line alone.
  static constexpr u8 kEmptyTag = 0x00;
  static constexpr u8 kTombstoneTag = 0x01;
  static constexpr u8 kOccupiedBit = 0x80;

  /// One equal-capacity probe domain. segs_[0] is built by the constructor;
  /// further segments appear only via grow(). The array itself is inline so
  /// readers never chase a reallocating pointer — publication is just the
  /// release store of num_segments_.
  struct Segment {
    u8* tags = nullptr;        // cache-line aligned, one byte per slot
    u64* key_words = nullptr;  // 2 per slot
    std::atomic<u32>* versions = nullptr;  // seqlock, 1 per slot
    u8* data = nullptr;        // stride_ bytes per slot: 8B stamp + entry
  };

  /// The five-tuple, packed into two words so cross-core key loads can be
  /// word-sized relaxed atomics (TSan-visible, plain movs on x86).
  struct PackedKey {
    u64 a;  // src_ip:dst_ip
    u64 b;  // src_port:dst_port:protocol
    [[nodiscard]] bool operator==(const PackedKey&) const = default;
  };
  [[nodiscard]] static PackedKey pack_key(const net::FiveTuple& t) noexcept;
  [[nodiscard]] static net::FiveTuple unpack_key(PackedKey k) noexcept;

  /// 16-bit lane masks for one tag group.
  struct GroupScan {
    u32 match;  // tag == needle
    u32 free;   // empty or tombstone
    u32 empty;  // empty only (terminates probe chains)
  };
  [[nodiscard]] GroupScan scan_group(const Segment& s, u32 group,
                                     u8 needle) const noexcept;

  /// Derive the 64-bit table index from the flow hash plus the packed key.
  /// The symmetric Toeplitz value alone cannot index the table: a 16-bit-
  /// periodic RSS key makes every hash the XOR of a subset of just 16
  /// sliding-window constants, so the "32-bit" hash takes at most 2^16
  /// distinct values — beyond ~64 K flows, whole cohorts of keys would
  /// share one group and one tag and probes would degenerate into long
  /// serialized key-compare chains. Two multiplies fold the full key back
  /// in (far cheaper than re-running the per-byte Toeplitz LUT), and a
  /// splitmix64 finalizer spreads the result over group and tag bits.
  [[nodiscard]] static u64 mix(FlowHash h, const PackedKey& k) noexcept {
    u64 z = h ^ (k.a * 0x9e3779b97f4a7c15ULL) ^ (k.b * 0xc2b2ae3d27d4eb4fULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  [[nodiscard]] u32 group_of(u64 m) const noexcept {
    return static_cast<u32>(m) & group_mask_;
  }
  [[nodiscard]] static u8 tag_of(u64 m) noexcept {
    return static_cast<u8>(kOccupiedBit | (m >> 57));
  }
  [[nodiscard]] static u32 group_base(u32 group) noexcept {
    return group * kGroupWidth;
  }

  [[nodiscard]] static PackedKey load_key(const Segment& s,
                                          u32 slot) noexcept;
  static void store_key(const Segment& s, u32 slot, PackedKey k) noexcept;
  [[nodiscard]] static bool key_equals(const Segment& s, u32 slot,
                                       const PackedKey& k) noexcept {
    return load_key(s, slot) == k;
  }

  [[nodiscard]] u8* seg_entry(const Segment& s, u32 index) const noexcept {
    return s.data + static_cast<std::size_t>(index) * stride_ + 8;
  }
  [[nodiscard]] static u64* stamp_of(void* entry) noexcept {
    return reinterpret_cast<u64*>(static_cast<u8*>(entry) - 8);
  }

  /// Probe one segment for a key. Returns the slot index or kNotFound.
  static constexpr u32 kNotFound = 0xffffffffu;
  [[nodiscard]] u32 probe(const Segment& s, const PackedKey& key,
                          u64 m) const noexcept;

  /// Dual-purpose insert scan of one segment: the key's slot if present,
  /// else the first free slot on its probe chain (kNotFound when the chain
  /// covered the whole segment without a free lane).
  struct InsertScan {
    u32 found;
    u32 free_at;
  };
  [[nodiscard]] InsertScan insert_scan(const Segment& s, const PackedKey& key,
                                       u64 m) const noexcept;

  /// Allocate and publish one more segment. Owner-core only.
  void grow(u32 nsegs);

  static void store_tag(const Segment& s, u32 slot, u8 tag) noexcept;
  [[nodiscard]] static u8 load_tag(const Segment& s, u32 slot) noexcept {
    return std::atomic_ref<u8>(s.tags[slot]).load(std::memory_order_acquire);
  }

  /// Locate the segment whose data array contains `entry` (for
  /// write_begin/write_end). The pointer was handed out by this table, so
  /// the linear scan over ≤kMaxSegments ranges always hits.
  [[nodiscard]] const Segment& segment_of(const void* entry,
                                          u32* slot) const noexcept;

  u32 capacity_;    // slots per segment
  u32 group_mask_;  // (capacity_ / kGroupWidth) - 1, per segment
  u32 entry_size_;
  u32 stride_;      // 8-byte stamp + entry_size_ rounded up to 8
  CoreId owner_;
  u32 max_segments_ = 1;           // set_growth() raises, owner-core only
  std::atomic<u32> num_segments_{1};  // release-published segment count
  std::atomic<u32> occupied_{0};  // owner writes, stats paths read relaxed
  u32 seg_max_occupancy_;         // per segment, 87.5 % load cap
  u32 seg_occupied_[kMaxSegments] = {};  // guarded by owner/insert exclusion
  // Table arrays are probed at random by every core; they are allocated
  // hugepage-hinted (see alloc_table_array) so large tables do not turn
  // every probe — and every software prefetch — into a TLB miss.
  Segment segs_[kMaxSegments];
};

}  // namespace sprayer::core
