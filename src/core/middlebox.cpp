#include "core/middlebox.hpp"

#include "net/packet_pool.hpp"

namespace sprayer::core {

// --- SimCore ---------------------------------------------------------------

/// One virtual core: drives a SprayerCore engine from its NIC rx queue and
/// its foreign-descriptor ring, accounting busy time on the simulated clock.
/// Packets processed in a batch leave the core when the whole batch's cycle
/// cost has elapsed (run-to-completion, as in a DPDK poll loop).
class SimMiddlebox::SimCore final : public sim::IEventTarget,
                                    public ICorePort {
 public:
  SimCore(SimMiddlebox& mbox, CoreId id, std::span<NfContext* const> hop_ctxs,
          bool stateless)
      : mbox_(mbox),
        id_(id),
        engine_(id, mbox.cfg_, stateless, mbox.chain_, mbox.picker_, hop_ctxs,
                *this) {}

  [[nodiscard]] SprayerCore& engine() noexcept { return engine_; }

  enum : u64 { kTagRun = 0, kTagHousekeeping = 1 };

  /// Wake the core if it is idle (new rx or foreign work).
  void notify() {
    if (!event_pending_) {
      event_pending_ = true;
      mbox_.sim_.schedule_in(0, this, kTagRun);
    }
  }

  /// Arm the periodic housekeeping timer.
  void start_housekeeping() {
    if (mbox_.cfg_.housekeeping_interval > 0) {
      mbox_.sim_.schedule_in(mbox_.cfg_.housekeeping_interval, this,
                             kTagHousekeeping);
    }
  }

  /// Receive a transferred connection-packet descriptor. Bounded ring.
  bool accept_foreign(net::Packet* pkt) {
    if (foreign_.size() >= mbox_.cfg_.foreign_ring_capacity) return false;
    foreign_.push_back(pkt);
    notify();
    return true;
  }

  // --- ICorePort -----------------------------------------------------------
  bool transfer(CoreId dest, net::Packet* pkt) override {
    SPRAYER_DCHECK(dest != id_);
    return mbox_.cores_[dest]->accept_foreign(pkt);
  }

  void transmit(net::Packet* pkt) override {
    // Buffered: the packet physically leaves when the batch completes.
    pending_tx_.push_back(pkt);
  }

  // --- sim::IEventTarget -----------------------------------------------
  void handle_event(u64 tag) override {
    if (tag == kTagHousekeeping) {
      // Control-plane maintenance: modeled as free in time (rare, small),
      // but its NF cycles are still accounted in the busy counter.
      std::span<NfContext* const> ctxs{mbox_.ctx_ptrs_[engine_.id()]};
      mbox_.chain_.housekeeping(ctxs, mbox_.sim_.now());
      // Replication: broadcast housekeeping expiries right away.
      engine_.flush_state_sync();
      for (NfContext* ctx : ctxs) {
        engine_.stats().busy_cycles += ctx->drain_consumed();
      }
      mbox_.sim_.schedule_in(mbox_.cfg_.housekeeping_interval, this,
                             kTagHousekeeping);
      return;
    }
    // Flush packets from the batch that just finished.
    for (net::Packet* pkt : pending_tx_) {
      mbox_.transmit_out(pkt);
    }
    pending_tx_.clear();

    // Poll the next unit of work: the foreign ring first (bounds the
    // latency of connection packets), then the NIC queue.
    runtime::PacketBatch batch;
    Cycles cycles = 0;
    const u32 burst = mbox_.cfg_.rx_batch;
    if (!foreign_.empty()) {
      while (batch.size() < burst && !foreign_.empty()) {
        batch.push(foreign_.front());
        foreign_.pop_front();
      }
      cycles = engine_.process_foreign(batch, mbox_.sim_.now());
    } else {
      const u32 n = mbox_.nic_.rx_burst(id_, batch.data(), burst);
      if (n > 0) {
        batch.set_size(n);  // rx_burst filled the batch storage directly
        cycles = engine_.process_rx(batch, mbox_.sim_.now());
      }
    }

    if (cycles > 0) {
      // Busy until the batch cost elapses, then run again (there may be
      // more backlog, and pending_tx_ must be flushed at completion time).
      mbox_.sim_.schedule_in(
          cycles_to_time(cycles, mbox_.cfg_.core_freq_hz), this);
    } else if (engine_.pending_transfers() > 0) {
      // No new input, but the lossless redirect path parked descriptors a
      // full foreign ring rejected: keep polling so they retry instead of
      // stranding (a drained destination never re-notifies the sender).
      engine_.flush_transfers();
      if (engine_.pending_transfers() > 0) {
        mbox_.sim_.schedule_in(kMicrosecond, this, kTagRun);
      } else {
        event_pending_ = false;
      }
    } else {
      event_pending_ = false;  // idle until the next notify()
    }
  }

 private:
  SimMiddlebox& mbox_;
  CoreId id_;
  SprayerCore engine_;
  std::deque<net::Packet*> foreign_;
  std::vector<net::Packet*> pending_tx_;
  bool event_pending_ = false;

  friend class SimMiddlebox;
};

// --- SimMiddlebox ------------------------------------------------------

namespace {

nic::NicConfig adjust_nic_config(nic::NicConfig nic_cfg,
                                 const SprayerConfig& cfg) {
  nic_cfg.num_queues = cfg.num_cores;
  return nic_cfg;
}

}  // namespace

SimMiddlebox::SimMiddlebox(sim::Simulator& sim, SprayerConfig cfg,
                           INetworkFunction& nf, nic::NicConfig nic_cfg)
    : SimMiddlebox(sim, cfg, std::make_unique<DynamicChain>(nf), nullptr,
                   nic_cfg) {}

SimMiddlebox::SimMiddlebox(sim::Simulator& sim, SprayerConfig cfg,
                           DynamicChain& chain, nic::NicConfig nic_cfg)
    : SimMiddlebox(sim, cfg, nullptr, &chain, nic_cfg) {}

SimMiddlebox::SimMiddlebox(sim::Simulator& sim, SprayerConfig cfg,
                           std::unique_ptr<DynamicChain> owned,
                           DynamicChain* chain, nic::NicConfig nic_cfg)
    : sim_(sim),
      cfg_(cfg),
      owned_chain_(std::move(owned)),
      chain_(chain != nullptr ? *chain : *owned_chain_),
      picker_(cfg.num_cores),
      nic_(sim, adjust_nic_config(nic_cfg, cfg)) {
  SPRAYER_CHECK(cfg_.num_cores >= 1);

  const u32 hops = chain_.num_hops();
  hop_init_.resize(hops);
  for (auto& hc : hop_init_) hc.state_strategy = cfg_.state.kind;
  ChainInit chain_init;
  chain_init.hop_cfgs = hop_init_;
  chain_init.num_cores = cfg_.num_cores;
  chain_init.lifecycle_sweep = cfg_.lifecycle.sweep;
  chain_init.idle_timeout_override = cfg_.lifecycle.idle_timeout;
  chain_init.sweep_groups_per_tick = cfg_.lifecycle.sweep_groups_per_tick;
  chain_.init(chain_init);
  stateless_chain_ = true;
  for (u32 h = 0; h < hops; ++h) {
    stateless_chain_ = stateless_chain_ && hop_init_[h].stateless;
  }

  // Per-hop flow tables, built by the state strategy (each hop has its own
  // key space and entry size, so hops never share tables; the strategy
  // decides shard vs replica).
  strategy_ = state::StateStrategy::make(cfg_.state, cfg_.num_cores);
  table_ptrs_.resize(hops);
  for (u32 h = 0; h < hops; ++h) {
    u32 table_capacity =
        hop_init_[h].stateless ? 2u : hop_init_[h].flow_table_capacity;
    if (!hop_init_[h].stateless && cfg_.lifecycle.flow_table_capacity != 0) {
      table_capacity = cfg_.lifecycle.flow_table_capacity;
    }
    strategy_->add_hop(table_capacity, hop_init_[h].flow_entry_size);
    const auto span = strategy_->hop_tables(h);
    table_ptrs_[h].assign(span.begin(), span.end());
    if (!hop_init_[h].stateless && cfg_.lifecycle.max_table_segments > 1) {
      // Opt-in online growth.
      for (FlowTable* t : table_ptrs_[h]) {
        t->set_growth(cfg_.lifecycle.max_table_segments);
      }
    }
  }
  contexts_.resize(cfg_.num_cores);
  ctx_ptrs_.resize(cfg_.num_cores);
  for (u32 c = 0; c < cfg_.num_cores; ++c) {
    for (u32 h = 0; h < hops; ++h) {
      contexts_[c].push_back(std::make_unique<NfContext>(
          static_cast<CoreId>(c),
          std::span<FlowTable* const>{table_ptrs_[h]}, picker_, cfg_.costs));
      contexts_[c].back()->configure_state(
          strategy_->view(static_cast<CoreId>(c), h));
      ctx_ptrs_[c].push_back(contexts_[c].back().get());
    }
    // ctx_ptrs_[c] is complete (and ctx_ptrs_ fully sized) before the
    // engine captures its span.
    cores_.push_back(std::make_unique<SimCore>(
        *this, static_cast<CoreId>(c),
        std::span<NfContext* const>{ctx_ptrs_[c]}, stateless_chain_));
    cores_.back()->engine().set_state_runtime(
        strategy_->sync_runtime(static_cast<CoreId>(c)));
  }

  nic_.set_rx_listener(this);
  if (cfg_.mode == DispatchMode::kSpray) {
    const Status s = nic_.fdir().program_checksum_spray(cfg_.num_cores);
    SPRAYER_CHECK_MSG(s.ok(), "failed to program Flow Director spraying");
  }
  for (auto& c : cores_) c->start_housekeeping();
}

SimMiddlebox::~SimMiddlebox() = default;

void SimMiddlebox::rx_ready(u16 queue) {
  cores_[queue]->notify();
}

void SimMiddlebox::transmit_out(net::Packet* pkt) {
  // Bump in the wire: leave through the opposite port.
  const u8 egress = static_cast<u8>(1 - pkt->ingress_port);
  nic_.tx(egress, pkt);
}

MiddleboxReport SimMiddlebox::report() const {
  MiddleboxReport r;
  for (const auto& c : cores_) {
    r.per_core.push_back(c->engine().stats());
    r.total.merge(c->engine().stats());
  }
  r.nic = nic_.counters();
  for (const auto& hop : table_ptrs_) {
    for (const FlowTable* t : hop) r.flow_entries += t->size();
  }
  r.flow_access = access_stats();
  return r;
}

void SimMiddlebox::reset_stats() {
  for (auto& c : cores_) c->engine().stats() = CoreStats{};
  nic_.reset_counters();
}

}  // namespace sprayer::core
