#include "state/strategy.hpp"

#include <bit>
#include <cstring>

namespace sprayer::state {

namespace {

using core::FlowTable;

// ---------------------------------------------------------------------------
// Writing partition — the paper's design, in strategy clothes
// ---------------------------------------------------------------------------

class WritingPartitionStrategy final : public StateStrategy {
 public:
  explicit WritingPartitionStrategy(u32 num_cores)
      : StateStrategy(num_cores) {}

  [[nodiscard]] StateStrategyKind kind() const noexcept override {
    return StateStrategyKind::kWritingPartition;
  }

  [[nodiscard]] CoreStateView view(CoreId core, u32 hop) noexcept override {
    (void)core;
    CoreStateView v;
    v.kind = StateStrategyKind::kWritingPartition;
    v.hop = static_cast<u8>(hop);
    return v;
  }
};

// ---------------------------------------------------------------------------
// State-compute replication
// ---------------------------------------------------------------------------

class ReplicationStrategy final : public StateStrategy {
 public:
  ReplicationStrategy(u32 num_cores) : StateStrategy(num_cores) {}

  [[nodiscard]] StateStrategyKind kind() const noexcept override {
    return StateStrategyKind::kReplication;
  }

  [[nodiscard]] CoreStateView view(CoreId core, u32 hop) noexcept override {
    CoreStateView v;
    v.kind = StateStrategyKind::kReplication;
    v.log = &sync_runtime_for(core)->log();
    v.hop = static_cast<u8>(hop);
    return v;
  }

  [[nodiscard]] SyncRuntime* sync_runtime(CoreId core) noexcept override {
    return sync_runtime_for(core);
  }

  [[nodiscard]] DivergenceReport check_divergence() override {
    ++divergence_checks_;
    DivergenceReport report;
    for (auto& hop : ptrs_) {
      FlowTable& reference = *hop[0];
      for (CoreId c = 1; c < num_cores_; ++c) {
        FlowTable& replica = *hop[c];
        u64 found = 0;
        reference.for_each([&](const net::FiveTuple& key, void* entry) {
          ++report.entries_compared;
          const void* other = replica.find_remote(key);
          if (other == nullptr) {
            ++report.missing_entries;
            return;
          }
          ++found;
          if (std::memcmp(entry, other, reference.entry_size()) != 0) {
            ++report.mismatched_entries;
          }
        });
        report.extra_entries += replica.size() - found;
      }
    }
    divergence_mismatches_ += report.total();
    return report;
  }

  [[nodiscard]] SyncStatsSnapshot sync_stats() const override {
    SyncStatsSnapshot s;
    for (const auto& rt : runtimes_) {
      if (rt == nullptr) continue;
      const SyncRuntime::Stats& st = rt->stats();
      s.frames_sent += st.frames_sent;
      s.bytes_sent += st.bytes_sent;
      s.ops_sent += st.ops_sent;
      s.frames_applied += st.frames_applied;
      s.ops_applied += st.ops_applied;
      s.apply_failures += st.apply_failures;
      s.alloc_stalls += st.alloc_stalls;
    }
    return s;
  }

 private:
  /// Runtimes are built lazily on first access so every hop's replicas
  /// exist by then (executors call add_hop for all hops before wiring
  /// engines and contexts).
  [[nodiscard]] SyncRuntime* sync_runtime_for(CoreId core) {
    if (runtimes_.empty()) runtimes_.resize(num_cores_);
    if (runtimes_[core] == nullptr) {
      std::vector<FlowTable*> replicas;
      replicas.reserve(ptrs_.size());
      for (auto& hop : ptrs_) replicas.push_back(hop[core]);
      runtimes_[core] = std::make_unique<SyncRuntime>(core, std::move(replicas));
    }
    return runtimes_[core].get();
  }

  std::vector<std::unique_ptr<SyncRuntime>> runtimes_;  // [core]
};

}  // namespace

void StateStrategy::add_hop(u32 capacity, u32 entry_size) {
  // A replica holds the whole flow space, not just a 1/N shard.
  if (kind() == StateStrategyKind::kReplication) {
    capacity *= std::bit_ceil(num_cores_);
  }
  auto& owned = tables_.emplace_back();
  auto& ptrs = ptrs_.emplace_back();
  for (CoreId c = 0; c < num_cores_; ++c) {
    owned.push_back(std::make_unique<FlowTable>(capacity, entry_size, c));
    ptrs.push_back(owned.back().get());
  }
}

std::unique_ptr<StateStrategy> StateStrategy::make(
    const StateStrategyConfig& cfg, u32 num_cores) {
  switch (cfg.kind) {
    case StateStrategyKind::kWritingPartition:
      return std::make_unique<WritingPartitionStrategy>(num_cores);
    case StateStrategyKind::kReplication:
      return std::make_unique<ReplicationStrategy>(num_cores);
  }
  SPRAYER_CHECK_MSG(false, "unknown state strategy kind");
  return nullptr;
}

}  // namespace sprayer::state
