// The assembled simulated middlebox: one SimNic, N virtual cores each
// running a SprayerCore engine, per-core flow tables, and an NF. This is
// the device-under-test of every experiment — the software middlebox server
// of the paper's testbed (§5).
//
// Wiring: incoming links sink into ingress(); attach one outgoing link per
// port with attach_tx_link(). The middlebox is a bump in the wire: packets
// leave through the port opposite to the one they entered (2-port NIC).
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/chain.hpp"
#include "core/config.hpp"
#include "core/core_picker.hpp"
#include "core/engine.hpp"
#include "core/flow_table.hpp"
#include "core/nf.hpp"
#include "nic/nic.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "state/strategy.hpp"

namespace sprayer::core {

struct MiddleboxReport {
  CoreStats total;
  std::vector<CoreStats> per_core;
  nic::SimNic::Counters nic;
  u64 flow_entries = 0;
  FlowAccessStats flow_access;
};

class SimMiddlebox final : public nic::IRxListener {
 public:
  /// Single-NF convenience: wraps the NF in an owned one-hop DynamicChain.
  SimMiddlebox(sim::Simulator& sim, SprayerConfig cfg, INetworkFunction& nf,
               nic::NicConfig nic_cfg = {});
  /// Run a service chain (chain and NFs must outlive the middlebox).
  SimMiddlebox(sim::Simulator& sim, SprayerConfig cfg, DynamicChain& chain,
               nic::NicConfig nic_cfg = {});
  ~SimMiddlebox() override;

  SimMiddlebox(const SimMiddlebox&) = delete;
  SimMiddlebox& operator=(const SimMiddlebox&) = delete;

  /// Sink for incoming links (the NIC rx side).
  [[nodiscard]] sim::IPacketSink& ingress() noexcept { return nic_; }
  void attach_tx_link(u8 port, sim::Link& link) {
    nic_.attach_tx_link(port, link);
  }

  [[nodiscard]] const SprayerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] nic::SimNic& nic_dev() noexcept { return nic_; }
  [[nodiscard]] DynamicChain& chain() noexcept { return chain_; }
  [[nodiscard]] u32 num_hops() const noexcept { return chain_.num_hops(); }
  /// Hop 0's flow table on `core` (the whole table for single-NF setups;
  /// shape per the state strategy — shard or replica).
  [[nodiscard]] FlowTable& flow_table(CoreId core) noexcept {
    return *table_ptrs_[0][core];
  }
  [[nodiscard]] FlowTable& hop_flow_table(u32 hop, CoreId core) noexcept {
    return *table_ptrs_[hop][core];
  }
  /// The state strategy the tables were built from (DESIGN.md §14).
  [[nodiscard]] state::StateStrategy& state_strategy() noexcept {
    return *strategy_;
  }
  /// Hop 0's context on `core` (the whole context for single-NF setups).
  [[nodiscard]] NfContext& context(CoreId core) noexcept {
    return *contexts_[core][0];
  }
  [[nodiscard]] NfContext& hop_context(u32 hop, CoreId core) noexcept {
    return *contexts_[core][hop];
  }
  [[nodiscard]] const CorePicker& picker() const noexcept { return picker_; }

  /// Aggregate observed flow-state access pattern across all cores and hops.
  [[nodiscard]] FlowAccessStats access_stats() const {
    FlowAccessStats total;
    for (const auto& per_core : contexts_) {
      for (const auto& ctx : per_core) {
        total.merge(ctx->flows().access_stats());
      }
    }
    return total;
  }

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
  SprayerConfig cfg_;
  std::unique_ptr<DynamicChain> owned_chain_;  // before chain_ (ref target)
  DynamicChain& chain_;
  std::vector<NfInitConfig> hop_init_;
  bool stateless_chain_ = false;
  CorePicker picker_;
  nic::SimNic nic_;
  // Owns every flow table (shape depends on the strategy kind);
  // table_ptrs_ caches its per-hop spans.
  std::unique_ptr<state::StateStrategy> strategy_;
  std::vector<std::vector<FlowTable*>> table_ptrs_;  // [hop][core]
  std::vector<std::vector<std::unique_ptr<NfContext>>> contexts_;  // [core][hop]
  std::vector<std::vector<NfContext*>> ctx_ptrs_;                  // [core][hop]
  std::vector<std::unique_ptr<SimCore>> cores_;
};

}  // namespace sprayer::core
