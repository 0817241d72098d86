#include "core/middlebox.hpp"

#include <deque>

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
  explicit SimCore(SimMiddlebox& mbox)
      : mbox_(mbox), engine_(mbox.add_engine(*this)) {}

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
  u32 transfer_batch(CoreId dest,
                     std::span<net::Packet* const> pkts) override {
    SPRAYER_DCHECK(dest != engine_.id());
    u32 accepted = 0;
    while (accepted < pkts.size() &&
           mbox_.cores_[dest]->accept_foreign(pkts[accepted])) {
      ++accepted;
    }
    return accepted;
  }

  void transmit_batch(std::span<net::Packet* const> pkts) override {
    // Buffered: the packets physically leave when the batch completes.
    pending_tx_.insert(pending_tx_.end(), pkts.begin(), pkts.end());
  }

  // --- sim::IEventTarget -----------------------------------------------
  void handle_event(u64 tag) override {
    if (tag == kTagHousekeeping) {
      // Control-plane maintenance: modeled as free in time (rare, small),
      // but its NF cycles are still accounted in the busy counter.
      engine_.housekeeping(mbox_.sim_.now());
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
      const u32 n = mbox_.nic_.rx_burst(engine_.id(), batch.data(), burst);
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
  SprayerCore& engine_;
  std::deque<net::Packet*> foreign_;
  std::vector<net::Packet*> pending_tx_;
  bool event_pending_ = false;
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
    : MiddleboxSkeleton(cfg, std::move(owned), chain),
      sim_(sim),
      nic_(sim, adjust_nic_config(nic_cfg, cfg)) {
  build(/*telemetry_on=*/false, /*hop_timing=*/false);
  for (u32 c = 0; c < cfg_.num_cores; ++c) {
    cores_.push_back(std::make_unique<SimCore>(*this));
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
  for (const auto& e : engines_) r.per_core.push_back(core_stats(e->id()));
  r.total = total_stats();
  r.nic = nic_.counters();
  for (u32 h = 0; h < num_hops(); ++h) {
    for (const FlowTable* t : strategy_->hop_tables(h)) {
      r.flow_entries += t->size();
    }
  }
  r.flow_access = access_stats();
  return r;
}

void SimMiddlebox::reset_stats() {
  registry_.reset();
  nic_.reset_counters();
}

}  // namespace sprayer::core
