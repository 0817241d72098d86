// Per-core data-plane handles a state strategy hands to FlowStateApi.
//
// The strategy object (state/strategy.hpp) is the control plane: it builds
// table topologies and owns the pieces below. The data plane stays
// non-virtual — FlowStateApi branches on CoreStateView::kind inline, so the
// writing-partition hot path is the plain table access.
#pragma once

#include <iterator>
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
  /// Upsert that created the entry (it was absent before). Sender-side
  /// only, never on the wire.
  bool created = false;
};

/// Ordered per-core mutation log, appended by FlowStateApi during connection
/// handlers and housekeeping, harvested by the engine's sync broadcast.
/// Single-writer: only the owning core's worker touches it.
class ReplOpLog {
 public:
  /// Record an upsert unless the key+hop's most recent logged op is already
  /// an upsert (the harvest reads final bytes, so consecutive upserts of the
  /// same entry are redundant). A remove in between keeps both ops: the
  /// remove/re-insert order must survive on the replicas. `created` marks
  /// the insert of an entry that did not exist before.
  void record_upsert(const net::FiveTuple& key, u32 hash, u8 hop,
                     bool created = false) {
    if (const auto it = last_op(key, hop);
        it != ops_.end() && it->kind == ReplOpKind::kUpsert) {
      return;
    }
    ops_.push_back({key, hash, hop, ReplOpKind::kUpsert, created});
  }

  /// Record a remove. An entry created since the last harvest never reached
  /// the replicas: its upsert is dropped and the remove not logged, so no
  /// peer is asked to remove a flow it never had.
  void record_remove(const net::FiveTuple& key, u32 hash, u8 hop) {
    if (const auto it = last_op(key, hop); it != ops_.end() && it->created) {
      ops_.erase(it);
      return;
    }
    ops_.push_back({key, hash, hop, ReplOpKind::kRemove});
  }

  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] std::span<const ReplOp> ops() const noexcept { return ops_; }
  void clear() noexcept { ops_.clear(); }

 private:
  /// The key+hop's most recent op, or end() when none is logged.
  [[nodiscard]] std::vector<ReplOp>::iterator last_op(
      const net::FiveTuple& key, u8 hop) noexcept {
    for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
      if (it->hop == hop && it->key == key) return std::next(it).base();
    }
    return ops_.end();
  }

  std::vector<ReplOp> ops_;
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
