// Replication state-sync frames (DESIGN.md §14).
//
// Under state-compute replication, flow events still redirect to the
// flow's designated core — that core is the *sequencer*: the one place the
// NF's connection handlers run, so global resources (NAT ports) are claimed
// exactly once and every replica converges on identical bytes. FlowStateApi
// logs the handlers' mutations (state/view.hpp); after each connection
// dispatch (and after housekeeping) the engine harvests the log into sync
// frames — ordinary pool packets carrying serialized ops — and broadcasts
// one copy to every other core over the existing mesh rings, inheriting the
// lossless park-and-retry transfer machinery wholesale. Receivers replay
// the ops into their own replica (no NF code runs on the apply path) and
// free the frame.
//
// Per-flow total order holds end to end: a flow has one sequencer, the
// SPSC mesh rings are FIFO, and frames are applied in arrival order.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/relaxed.hpp"
#include "common/types.hpp"
#include "core/flow_table.hpp"
#include "net/packet.hpp"
#include "state/view.hpp"

namespace sprayer::state {

/// user_tag bit marking a mesh-ring descriptor as a sync frame. Bits 63/62
/// and the low 48 belong to the reorder observatory and the path tracer;
/// real connection packets on the mesh are always parsed TCP, sync frames
/// never are, so detection checks both the tag and !parsed().
inline constexpr u64 kSyncFrameTag = u64{1} << 61;

/// First payload word of every sync frame ("SPRS").
inline constexpr u32 kSyncFrameMagic = 0x53505253u;

struct SyncFrameHeader {
  u32 magic = kSyncFrameMagic;
  u16 op_count = 0;
  u8 src_core = 0;
  u8 version = 1;
};
static_assert(sizeof(SyncFrameHeader) == 8);

/// Per-op wire header; followed by the raw FiveTuple bytes and, for
/// upserts, `entry_len` entry bytes.
struct SyncOpHeader {
  u8 kind = 0;  // ReplOpKind
  u8 hop = 0;
  u16 entry_len = 0;
  u32 hash = 0;
};
static_assert(sizeof(SyncOpHeader) == 8);

[[nodiscard]] inline bool is_sync_frame(const net::Packet& pkt) noexcept {
  if ((pkt.user_tag & kSyncFrameTag) == 0 || pkt.parsed()) return false;
  if (pkt.len() < sizeof(SyncFrameHeader)) return false;
  u32 magic;
  std::memcpy(&magic, pkt.data(), sizeof(magic));
  return magic == kSyncFrameMagic;
}

/// Per-core replication runtime: the op log, the serializer feeding the
/// engine's broadcast, and the applier replaying received frames into this
/// core's replicas. Owned by ReplicationStrategy; single-writer except the
/// stats cells (telemetry gauges read them live).
class SyncRuntime {
 public:
  struct Stats {
    RelaxedU64 frames_sent;     // one per destination per chunk
    RelaxedU64 bytes_sent;      // payload bytes, summed over destinations
    RelaxedU64 ops_sent;        // ops harvested (pre-fanout)
    RelaxedU64 frames_applied;  // frames received and replayed
    RelaxedU64 ops_applied;
    RelaxedU64 apply_failures;  // replica full on upsert / missing on remove
    RelaxedU64 alloc_stalls;    // broadcast deferred: pool empty
  };

  /// `hop_replicas[h]` is THIS core's replica table for hop h (harvest
  /// source and apply target alike).
  SyncRuntime(CoreId core, std::vector<core::FlowTable*> hop_replicas)
      : core_(core), replicas_(std::move(hop_replicas)) {}

  [[nodiscard]] CoreId core() const noexcept { return core_; }
  [[nodiscard]] ReplOpLog& log() noexcept { return log_; }
  [[nodiscard]] bool has_pending() const noexcept { return !log_.empty(); }

  /// Serialize the current log into wire chunks of at most `max_bytes`
  /// payload each, reading upsert bytes from this core's replicas *now*
  /// (ops whose entry has since been removed are skipped — the logged
  /// remove that follows still ships; the log drops both ops itself when
  /// the entry was created since the last harvest). Chunk views stay valid until the
  /// next serialize() call; the log is left intact so a failed broadcast
  /// (pool empty) can retry the exact same ops later.
  [[nodiscard]] std::span<const std::span<const u8>> serialize(u32 max_bytes);

  /// Broadcast bookkeeping, called by the engine once every frame of a
  /// serialize() result has been staged.
  void note_broadcast(u64 frames, u64 bytes, u64 ops) noexcept {
    stats_.frames_sent += frames;
    stats_.bytes_sent += bytes;
    stats_.ops_sent += ops;
  }
  void note_alloc_stall() noexcept { ++stats_.alloc_stalls; }
  void clear_log() noexcept { log_.clear(); }

  /// Replay one received frame into this core's replicas. Returns the op
  /// counts so the engine can charge modeled cycles.
  struct ApplyResult {
    u32 upserts = 0;
    u32 removes = 0;
  };
  ApplyResult apply(std::span<const u8> payload);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  CoreId core_;
  std::vector<core::FlowTable*> replicas_;
  ReplOpLog log_;
  std::vector<u8> wire_;                     // serialize() scratch
  std::vector<std::span<const u8>> chunks_;  // views into wire_
  Stats stats_;
};

}  // namespace sprayer::state
