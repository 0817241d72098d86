// Per-core data-plane handles a state strategy hands to FlowStateApi.
//
// The strategy object (state/strategy.hpp) is the control plane: it builds
// table topologies and owns the pieces below. The data plane stays
// non-virtual — FlowStateApi branches on CoreStateView::kind inline, so the
// writing-partition hot path is the plain table access.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/five_tuple.hpp"
#include "state/config.hpp"

namespace sprayer::state {

// ---------------------------------------------------------------------------
// Replication op log
// ---------------------------------------------------------------------------

enum class ReplOpKind : u8 { kUpsert = 0, kRemove = 1 };

/// One logged flow-state mutation on the sequencer (designated) core. Entry
/// bytes are NOT captured here: the broadcaster reads the entry's *current*
/// bytes from the sequencer's replica at harvest time, so a batch worth of
/// in-place mutations collapses into one upsert with the final state.
struct ReplOp {
  net::FiveTuple key;
  u32 hash = 0;
  u8 hop = 0;
  ReplOpKind kind = ReplOpKind::kUpsert;
};

/// Ordered per-core mutation log, appended by FlowStateApi during connection
/// handlers and housekeeping, harvested by the engine's sync broadcast.
/// Single-writer: only the owning core's worker touches it.
class ReplOpLog {
 public:
  /// Record an upsert unless the key+hop's most recent logged op is already
  /// an upsert (the harvest reads final bytes, so consecutive upserts of the
  /// same entry are redundant). A remove in between keeps both ops: the
  /// remove/re-insert order must survive on the replicas.
  void record_upsert(const net::FiveTuple& key, u32 hash, u8 hop) {
    for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
      if (it->hop != hop || it->key != key) continue;
      if (it->kind == ReplOpKind::kUpsert) return;
      break;  // most recent op is a remove: append the re-upsert
    }
    ops_.push_back({key, hash, hop, ReplOpKind::kUpsert});
    ++logged_;
  }

  void record_remove(const net::FiveTuple& key, u32 hash, u8 hop) {
    ops_.push_back({key, hash, hop, ReplOpKind::kRemove});
    ++logged_;
  }

  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] std::span<const ReplOp> ops() const noexcept { return ops_; }
  void clear() noexcept { ops_.clear(); }
  /// Lifetime count of logged ops (dedup-suppressed ones excluded).
  [[nodiscard]] u64 logged() const noexcept { return logged_; }

 private:
  std::vector<ReplOp> ops_;
  u64 logged_ = 0;
};

// ---------------------------------------------------------------------------
// The per-(core, hop) view
// ---------------------------------------------------------------------------

/// What FlowStateApi needs from its strategy, by kind:
///   writing-partition — nothing (the default-constructed view);
///   replication       — the core's shared op log plus this hop's id.
struct CoreStateView {
  StateStrategyKind kind = StateStrategyKind::kWritingPartition;
  ReplOpLog* log = nullptr;  // replication only (per core, all hops)
  u8 hop = 0;
};

}  // namespace sprayer::state
