// Pluggable flow-state strategies (DESIGN.md §14).
//
// The StateStrategy object is the control plane: it owns the flow tables,
// hands per-(core, hop) views to FlowStateApi (state/view.hpp — the
// non-virtual data plane), and exposes the audit/telemetry surface the
// executors wire up. One strategy instance serves one middlebox (all hops,
// all cores).
//
// Both strategies keep one table per (hop, core), written only by core c.
// For an NF that asked for per-core capacity C on N cores:
//   writing-partition — each table holds C: core c's shard of the flows it
//                       is designated for (the paper's layout);
//   replication       — each table holds C*bit_ceil(N): a full replica,
//                       written by NF handlers for the flows core c
//                       sequences and by sync-frame replay for the rest.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/flow_table.hpp"
#include "state/config.hpp"
#include "state/sync.hpp"
#include "state/view.hpp"

namespace sprayer::state {

/// Replica-equality audit result (replication only; writing partition
/// reports all-zero). Quiescent callers only: tables are walked unlocked.
struct DivergenceReport {
  u64 entries_compared = 0;
  u64 mismatched_entries = 0;  // present on both sides, different bytes
  u64 missing_entries = 0;     // in the reference replica, absent elsewhere
  u64 extra_entries = 0;       // in another replica, absent from reference
  [[nodiscard]] bool clean() const noexcept {
    return mismatched_entries == 0 && missing_entries == 0 &&
           extra_entries == 0;
  }
  [[nodiscard]] u64 total() const noexcept {
    return mismatched_entries + missing_entries + extra_entries;
  }
};

/// Aggregated sync counters (all-zero outside replication). Loosely
/// consistent while workers run, exact at quiescence.
struct SyncStatsSnapshot {
  u64 frames_sent = 0;
  u64 bytes_sent = 0;
  u64 ops_sent = 0;
  u64 frames_applied = 0;
  u64 ops_applied = 0;
  u64 apply_failures = 0;
  u64 alloc_stalls = 0;
};

class StateStrategy {
 public:
  using FlowTable = core::FlowTable;

  [[nodiscard]] static std::unique_ptr<StateStrategy> make(
      const StateStrategyConfig& cfg, u32 num_cores);

  virtual ~StateStrategy() = default;

  [[nodiscard]] virtual StateStrategyKind kind() const noexcept = 0;
  [[nodiscard]] const char* name() const noexcept { return to_string(kind()); }
  [[nodiscard]] u32 num_cores() const noexcept { return num_cores_; }
  [[nodiscard]] u32 num_hops() const noexcept {
    return static_cast<u32>(ptrs_.size());
  }

  /// Declare the next chain hop (call once per hop, in hop order, before
  /// any view/table accessor). `capacity` is the per-designated-core
  /// capacity the NF asked for; replication scales it so each replica
  /// holds the whole flow space. Stateless hops pass a minimal capacity
  /// like the executors always have.
  void add_hop(u32 capacity, u32 entry_size);

  /// One FlowTable* per core for `hop`, table[c] owned by core c.
  [[nodiscard]] std::span<FlowTable* const> hop_tables(u32 hop) noexcept {
    return ptrs_[hop];
  }

  /// Data-plane view for FlowStateApi of (core, hop).
  [[nodiscard]] virtual CoreStateView view(CoreId core, u32 hop) noexcept = 0;

  /// Engine-side broadcast/apply runtime; null outside replication.
  [[nodiscard]] virtual SyncRuntime* sync_runtime(CoreId core) noexcept {
    (void)core;
    return nullptr;
  }

  /// Compare every replica against core 0's; counts land in the report and
  /// the cumulative divergence counters below. Quiescent callers only.
  [[nodiscard]] virtual DivergenceReport check_divergence() {
    ++divergence_checks_;
    return {};
  }
  [[nodiscard]] u64 divergence_checks() const noexcept {
    return divergence_checks_;
  }
  [[nodiscard]] u64 divergence_mismatches() const noexcept {
    return divergence_mismatches_;
  }

  [[nodiscard]] virtual SyncStatsSnapshot sync_stats() const { return {}; }

 protected:
  explicit StateStrategy(u32 num_cores) : num_cores_(num_cores) {}

  u32 num_cores_;
  std::vector<std::vector<std::unique_ptr<FlowTable>>> tables_;  // [hop][core]
  std::vector<std::vector<FlowTable*>> ptrs_;
  RelaxedU64 divergence_checks_;
  RelaxedU64 divergence_mismatches_;
};

}  // namespace sprayer::state
