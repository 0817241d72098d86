// Stateful firewall (paper Table 1: "Connection context — per-flow — R at
// every packet, RW at flow events").
//
// New connections are admitted through the ACL at SYN time; a per-connection
// context (keyed by the canonical tuple, so both directions share it) is
// installed on the designated core. Regular packets pass iff their
// connection context exists — a pure read, from any core.
#pragma once

#include "common/units.hpp"
#include "core/nf.hpp"
#include "nf/acl.hpp"
#include "telemetry/metrics.hpp"

namespace sprayer::nf {

class FirewallNf final : public core::INetworkFunction {
 public:
  explicit FirewallNf(Acl acl) : acl_(std::move(acl)) {}

  void init(core::NfInitConfig& cfg, u32 num_cores) override {
    cfg.flow_table_capacity = 1u << 16;
    cfg.flow_entry_size = sizeof(Entry);
    cfg.flow_idle_timeout = 60 * kSecond;  // idle connections age out
    auto& reg = tm_.attach(cfg.registry, num_cores);
    m_admitted_ = reg.counter("firewall.admitted");
    m_rejected_ = reg.counter("firewall.rejected_by_acl");
    m_no_state_ = reg.counter("firewall.dropped_no_state");
    m_closed_ = reg.counter("firewall.closed");
    m_table_full_ = reg.counter("firewall.table_full");
    m_expired_ = reg.counter("firewall.expired");
    tm_.seal();
  }

  void connection_packets(runtime::PacketBatch& batch, core::NfContext& ctx,
                          core::BatchVerdicts& verdicts) override;
  void regular_packets(runtime::PacketBatch& batch, core::BatchMeta& meta,
                       core::NfContext& ctx,
                       core::BatchVerdicts& verdicts) override;
  void on_expire(const net::FiveTuple& key, core::FlowTable::FlowHash hash,
                 core::NfContext& ctx) override {
    if (ctx.flows().remove_local_flow(key, hash)) {
      m_expired_.add(ctx.core());
      m_closed_.add(ctx.core());
    }
  }

  [[nodiscard]] const char* name() const noexcept override {
    return "firewall";
  }

  /// Counter totals summed across registry shards (metrics "firewall.*").
  /// Returned by value; per-core sharding also makes the bumps race-free
  /// under the threaded executor (the old plain-u64 struct was not).
  struct FwCounters {
    u64 admitted = 0;
    u64 rejected_by_acl = 0;
    u64 dropped_no_state = 0;
    u64 closed = 0;
    u64 table_full = 0;  // SYNs dropped fail-closed for lack of table room
    u64 expired = 0;     // contexts reclaimed by idle aging (subset of closed)
  };
  [[nodiscard]] FwCounters counters() const noexcept {
    return FwCounters{tm_.total(m_admitted_),   tm_.total(m_rejected_),
                      tm_.total(m_no_state_),   tm_.total(m_closed_),
                      tm_.total(m_table_full_), tm_.total(m_expired_)};
  }

 private:
  struct Entry {
    Time established_at = 0;
    u8 valid = 0;
    /// Per-direction FIN bits (bit 0: canonical direction, bit 1: reverse);
    /// retransmitted FINs cannot close a half-open connection.
    u8 fin_seen = 0;
    u8 pad[6] = {};
  };
  static_assert(sizeof(Entry) == 16);

  /// Which fin_seen bit a packet's arrival direction maps to.
  [[nodiscard]] static u8 direction_bit(const net::FiveTuple& pkt_tuple,
                                        const net::FiveTuple& canon) noexcept {
    return pkt_tuple == canon ? 1 : 2;
  }

  Acl acl_;
  telemetry::RegistrySlot tm_;
  telemetry::Counter m_admitted_;
  telemetry::Counter m_rejected_;
  telemetry::Counter m_no_state_;
  telemetry::Counter m_closed_;
  telemetry::Counter m_table_full_;
  telemetry::Counter m_expired_;
};

}  // namespace sprayer::nf
