// The assembled simulated middlebox: one SimNic and N virtual cores
// driving the shared per-core framework (core/skeleton.hpp: chain, flow
// tables, contexts, engines). This is the device-under-test of every
// experiment — the software middlebox server of the paper's testbed (§5).
// What it adds is the simulator's event loop: each core polls its NIC
// queue and foreign ring on the simulated clock and runs housekeeping on a
// timer.
//
// Wiring: incoming links sink into ingress(); attach one outgoing link per
// port with attach_tx_link(). The middlebox is a bump in the wire: packets
// leave through the port opposite to the one they entered (2-port NIC).
#pragma once

#include <memory>
#include <vector>

#include "core/skeleton.hpp"
#include "nic/nic.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace sprayer::core {

struct MiddleboxReport {
  CoreStats total;
  std::vector<CoreStats> per_core;
  nic::SimNic::Counters nic;
  u64 flow_entries = 0;
  FlowAccessStats flow_access;
};

class SimMiddlebox final : public MiddleboxSkeleton, public nic::IRxListener {
 public:
  /// Single-NF convenience: wraps the NF in an owned one-hop DynamicChain.
  SimMiddlebox(sim::Simulator& sim, SprayerConfig cfg, INetworkFunction& nf,
               nic::NicConfig nic_cfg = {});
  /// Run a service chain (chain and NFs must outlive the middlebox).
  SimMiddlebox(sim::Simulator& sim, SprayerConfig cfg, DynamicChain& chain,
               nic::NicConfig nic_cfg = {});
  ~SimMiddlebox() override;

  /// Sink for incoming links (the NIC rx side).
  [[nodiscard]] sim::IPacketSink& ingress() noexcept { return nic_; }
  void attach_tx_link(u8 port, sim::Link& link) {
    nic_.attach_tx_link(port, link);
  }

  [[nodiscard]] nic::SimNic& nic_dev() noexcept { return nic_; }

  [[nodiscard]] MiddleboxReport report() const;
  /// Zero all middlebox-side counters (after warmup).
  void reset_stats();

  // nic::IRxListener
  void rx_ready(u16 queue) override;

 private:
  class SimCore;

  /// All ctors funnel here; `owned` is the compatibility DynamicChain (null
  /// when the caller provided the chain).
  SimMiddlebox(sim::Simulator& sim, SprayerConfig cfg,
               std::unique_ptr<DynamicChain> owned, DynamicChain* chain,
               nic::NicConfig nic_cfg);

  /// Send a processed packet out of the port opposite its ingress.
  void transmit_out(net::Packet* pkt);

  sim::Simulator& sim_;
  nic::SimNic nic_;
  std::vector<std::unique_ptr<SimCore>> cores_;
};

}  // namespace sprayer::core
