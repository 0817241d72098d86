#include "core/skeleton.hpp"

namespace sprayer::core {

MiddleboxSkeleton::MiddleboxSkeleton(SprayerConfig cfg,
                                     std::unique_ptr<DynamicChain> owned,
                                     DynamicChain* chain)
    : cfg_(cfg),
      registry_(cfg.num_cores + 1),
      owned_chain_(std::move(owned)),
      chain_(chain != nullptr ? *chain : *owned_chain_),
      picker_(cfg.num_cores) {
  SPRAYER_CHECK(cfg_.num_cores >= 1);
}

MiddleboxSkeleton::~MiddleboxSkeleton() = default;

void MiddleboxSkeleton::build(bool telemetry_on, bool hop_timing) {
  engine_metrics_ = EngineMetrics::register_in(registry_, telemetry_on);
  telemetry::MetricsRegistry* registry = telemetry_on ? &registry_ : nullptr;
  const u32 hops = chain_.num_hops();
  std::vector<NfInitConfig> hop_init(hops);
  for (auto& hc : hop_init) hc.registry = registry;
  ChainInit chain_init;
  chain_init.hop_cfgs = hop_init;
  chain_init.num_cores = cfg_.num_cores;
  chain_init.registry = registry;
  chain_init.hop_timing = hop_timing;
  chain_init.lifecycle_sweep = cfg_.lifecycle.sweep;
  chain_init.idle_timeout_override = cfg_.lifecycle.idle_timeout;
  chain_init.sweep_groups_per_tick = cfg_.lifecycle.sweep_groups_per_tick;
  chain_.init(chain_init);
  stateless_chain_ = true;
  for (const auto& hc : hop_init) stateless_chain_ &= hc.stateless;

  // Per-hop flow tables, built by the state strategy (each hop keys by its
  // own tuple space and entry size, so hops never share a table; the
  // strategy decides whether a hop gets per-core shards or replicas).
  strategy_ = state::StateStrategy::make(cfg_.state, cfg_.num_cores);
  for (u32 h = 0; h < hops; ++h) {
    const NfInitConfig& hc = hop_init[h];
    u32 table_capacity = hc.stateless ? 2u : hc.flow_table_capacity;
    if (!hc.stateless && cfg_.lifecycle.flow_table_capacity != 0) {
      table_capacity = cfg_.lifecycle.flow_table_capacity;
    }
    strategy_->add_hop(table_capacity, hc.flow_entry_size);
    if (!hc.stateless && cfg_.lifecycle.max_table_segments > 1) {
      // Opt-in online growth.
      for (FlowTable* t : strategy_->hop_tables(h)) {
        t->set_growth(cfg_.lifecycle.max_table_segments);
      }
    }
  }
  for (u32 c = 0; c < cfg_.num_cores; ++c) {
    const auto core = static_cast<CoreId>(c);
    for (u32 h = 0; h < hops; ++h) {
      contexts_.push_back(std::make_unique<NfContext>(
          core, strategy_->hop_tables(h), picker_, cfg_.costs));
      contexts_.back()->configure_state(strategy_->view(core, h));
      ctx_ptrs_.push_back(contexts_.back().get());
    }
  }
  registry_.finalize();
}

SprayerCore& MiddleboxSkeleton::add_engine(ICorePort& port) {
  const auto core = static_cast<CoreId>(engines_.size());
  engines_.push_back(std::make_unique<SprayerCore>(
      core, cfg_, stateless_chain_, chain_, picker_, hop_contexts(core),
      port, engine_metrics_));
  engines_.back()->set_state_runtime(strategy_->sync_runtime(core));
  return *engines_.back();
}

FlowAccessStats MiddleboxSkeleton::access_stats() const {
  FlowAccessStats total;
  for (const auto& ctx : contexts_) total.merge(ctx->flows().access_stats());
  return total;
}

u32 MiddleboxSkeleton::pending_transfers() const noexcept {
  u32 n = 0;
  for (const auto& e : engines_) n += e->pending_transfers();
  return n;
}

}  // namespace sprayer::core
