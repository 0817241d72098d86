// The per-core Sprayer framework both executors drive (paper §3, Fig. 4):
// the chain and its init, the core picker, the state strategy with its
// per-(hop, core) flow tables, one NfContext per (core, hop), one SprayerCore
// engine per core, and the metrics registry that holds every engine count.
// This is the one place a SprayerConfig plus a DynamicChain becomes per-core
// machinery. SimMiddlebox (core/middlebox.hpp) and ThreadedMiddlebox
// (core/threaded.hpp) derive from it and add only what drives the cores:
// the simulator's event loop, or the threads, rings, driver and telemetry.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/chain.hpp"
#include "core/config.hpp"
#include "core/core_picker.hpp"
#include "core/engine.hpp"
#include "core/flow_table.hpp"
#include "core/nf.hpp"
#include "state/strategy.hpp"

namespace sprayer::core {

class MiddleboxSkeleton {
 public:
  MiddleboxSkeleton(const MiddleboxSkeleton&) = delete;
  MiddleboxSkeleton& operator=(const MiddleboxSkeleton&) = delete;

  [[nodiscard]] const SprayerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] DynamicChain& chain() noexcept { return chain_; }
  [[nodiscard]] u32 num_hops() const noexcept { return chain_.num_hops(); }
  /// Hop 0's flow table on `core` (the whole table for single-NF setups):
  /// the core's owned shard under writing partition, its full replica under
  /// replication.
  [[nodiscard]] FlowTable& flow_table(CoreId core) noexcept {
    return hop_flow_table(0, core);
  }
  [[nodiscard]] FlowTable& hop_flow_table(u32 hop, CoreId core) noexcept {
    return *strategy_->hop_tables(hop)[core];
  }
  /// The state strategy the tables were built from (DESIGN.md §14) — for
  /// divergence checks and per-strategy stats.
  [[nodiscard]] state::StateStrategy& state_strategy() noexcept {
    return *strategy_;
  }
  /// Hop 0's context on `core` (the whole context for single-NF setups);
  /// exact when the cores are idle.
  [[nodiscard]] NfContext& context(CoreId core) noexcept {
    return hop_context(0, core);
  }
  [[nodiscard]] NfContext& hop_context(u32 hop, CoreId core) noexcept {
    return *hop_contexts(core)[hop];
  }
  [[nodiscard]] const CorePicker& picker() const noexcept { return picker_; }
  /// Aggregate observed flow-state access pattern across all cores and hops.
  [[nodiscard]] FlowAccessStats access_stats() const;

  /// One core's engine counts: a read of its registry shard (exact when
  /// the cores are idle).
  [[nodiscard]] CoreStats core_stats(CoreId core) const noexcept {
    return engine_metrics_.read(registry_, core, 1);
  }
  [[nodiscard]] CoreStats total_stats() const noexcept {
    return engine_metrics_.read(registry_, 0, cfg_.num_cores);
  }
  /// Connection-packet descriptors currently parked engine-side awaiting a
  /// mesh-ring retry, summed over cores.
  [[nodiscard]] u32 pending_transfers() const noexcept;

  /// The metrics registry, always live: shard c is core c's, shard
  /// num_cores the threaded driver's. It always holds the engine and shed
  /// counts; SprayerConfig::telemetry adds everything else. Non-const so
  /// callers can attach gauge_fn() probes (e.g. packet-pool cache stats).
  [[nodiscard]] telemetry::MetricsRegistry& metrics() noexcept {
    return registry_;
  }

 protected:
  /// `owned` is the single-NF convenience chain (null when the caller
  /// provided `chain`, which must then outlive the middlebox).
  MiddleboxSkeleton(SprayerConfig cfg, std::unique_ptr<DynamicChain> owned,
                    DynamicChain* chain);
  ~MiddleboxSkeleton();

  /// Register the engine counts (with `telemetry_on`, also the engine
  /// extras and the chain's metrics), run the chain's init, build every
  /// hop's tables and every core's hop contexts, and finalize the registry.
  /// Call once, after the executor's own registrations, before add_engine.
  void build(bool telemetry_on, bool hop_timing);

  /// Build the engine of core engines_.size() on `port` (call once per
  /// core, in core order) and attach its replication runtime, if any.
  SprayerCore& add_engine(ICorePort& port);

  /// Core `core`'s contexts, one per hop.
  [[nodiscard]] std::span<NfContext* const> hop_contexts(
      CoreId core) const noexcept {
    return {ctx_ptrs_.data() + std::size_t{core} * num_hops(), num_hops()};
  }

  SprayerConfig cfg_;
  telemetry::MetricsRegistry registry_;  // before the engines (handle target)
  EngineMetrics engine_metrics_;
  std::unique_ptr<DynamicChain> owned_chain_;  // before chain_ (ref target)
  DynamicChain& chain_;
  bool stateless_chain_ = false;  // every hop stateless: never redirect
  CorePicker picker_;
  // Owns every flow table (shape depends on the strategy kind) plus the
  // replication runtimes.
  std::unique_ptr<state::StateStrategy> strategy_;
  std::vector<std::unique_ptr<NfContext>> contexts_;  // [core * hops + hop]
  std::vector<NfContext*> ctx_ptrs_;                  // same order
  std::vector<std::unique_ptr<SprayerCore>> engines_;
};

}  // namespace sprayer::core
