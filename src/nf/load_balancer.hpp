// L4 load balancer (paper Table 1: "Flow-server map — per-flow — R/RW;
// Pool of servers — global — RW at flow events").
//
// Direct-server-return (DSR) style: connections to the virtual IP are
// pinned to a backend at SYN time and forwarded by rewriting the
// destination MAC (the backends host the VIP on a loopback, as in standard
// DSR deployments). Return traffic carries the VIP as its source, so both
// directions share one canonical tuple — which keeps the flow-server map
// on a single designated core without any port gymnastics.
//
// Per-backend connection counts are global state with loose consistency:
// each core counts locally and aggregate() sums (§3.4's statistics pattern).
#pragma once

#include <array>
#include <atomic>
#include <vector>

#include "core/nf.hpp"
#include "net/mac_addr.hpp"
#include "telemetry/metrics.hpp"

namespace sprayer::nf {

struct LbBackend {
  net::MacAddr mac;
  net::Ipv4Addr ip;  // informational (DSR rewrites L2 only)
};

struct LbConfig {
  net::Ipv4Addr vip{198, 51, 100, 1};
  u16 vport = 80;
  std::vector<LbBackend> backends;
};

class LoadBalancerNf final : public core::INetworkFunction {
 public:
  static constexpr u32 kMaxBackends = 64;
  static constexpr u32 kMaxCores = 64;

  explicit LoadBalancerNf(LbConfig cfg);

  void init(core::NfInitConfig& init, u32 num_cores) override {
    init.flow_table_capacity = 1u << 16;
    init.flow_entry_size = sizeof(Entry);
    init.flow_idle_timeout = 60 * kSecond;  // idle flow-server pins age out
    num_cores_ = num_cores;
    auto& reg = tm_.attach(init.registry, num_cores);
    m_assigned_ = reg.counter("lb.assigned");
    m_no_state_ = reg.counter("lb.dropped_no_state");
    m_not_vip_ = reg.counter("lb.dropped_not_vip");
    m_table_full_ = reg.counter("lb.table_full");
    m_expired_ = reg.counter("lb.expired");
    tm_.seal();
  }

  void connection_packets(runtime::PacketBatch& batch, core::NfContext& ctx,
                          core::BatchVerdicts& verdicts) override;
  void regular_packets(runtime::PacketBatch& batch, core::BatchMeta& meta,
                       core::NfContext& ctx,
                       core::BatchVerdicts& verdicts) override;
  void on_expire(const net::FiveTuple& key, core::FlowTable::FlowHash hash,
                 core::NfContext& ctx) override;

  [[nodiscard]] const char* name() const noexcept override { return "lb"; }

  /// Loosely-consistent per-backend active-connection counts (sums the
  /// per-core counters; may be momentarily stale, per the paper's model).
  [[nodiscard]] std::vector<i64> active_connections() const;

  /// Counter totals summed across registry shards (metrics "lb.*").
  /// Returned by value; the per-core sharding also makes the bumps
  /// race-free under the threaded executor.
  struct LbCounters {
    u64 assigned = 0;
    u64 dropped_no_state = 0;
    u64 dropped_not_vip = 0;
    u64 table_full = 0;  // SYNs dropped because the flow-server map was full
    u64 expired = 0;     // pins released by idle aging
  };
  [[nodiscard]] LbCounters counters() const noexcept {
    return LbCounters{tm_.total(m_assigned_), tm_.total(m_no_state_),
                      tm_.total(m_not_vip_), tm_.total(m_table_full_),
                      tm_.total(m_expired_)};
  }

 private:
  struct Entry {
    u16 backend = 0;
    u8 valid = 0;
    /// Per-direction FIN bits (bit 0: canonical direction, bit 1: reverse);
    /// a retransmitted FIN sets the same bit twice instead of tearing the
    /// pin down early.
    u8 fin_seen = 0;
    u8 pad[4] = {};
  };
  static_assert(sizeof(Entry) == 8);

  /// Which fin_seen bit a packet's arrival direction maps to.
  [[nodiscard]] static u8 direction_bit(const net::FiveTuple& pkt_tuple,
                                        const net::FiveTuple& canon) noexcept {
    return pkt_tuple == canon ? 1 : 2;
  }

  /// Per-core, per-backend deltas; padded to avoid false sharing.
  struct alignas(kCacheLineSize) CoreCounters {
    std::array<i64, kMaxBackends> delta{};
  };

  [[nodiscard]] bool is_to_vip(const net::FiveTuple& t) const noexcept {
    return t.dst_ip == cfg_.vip && t.dst_port == cfg_.vport;
  }
  [[nodiscard]] bool is_from_vip(const net::FiveTuple& t) const noexcept {
    return t.src_ip == cfg_.vip && t.src_port == cfg_.vport;
  }

  LbConfig cfg_;
  u32 num_cores_ = 0;
  // Round-robin cursor. Flow events for different flows run concurrently on
  // their designated cores, so the cursor is a relaxed atomic: assignment
  // spread matters, inter-core ordering does not.
  std::atomic<u32> rr_next_{0};
  std::array<CoreCounters, kMaxCores> per_core_{};
  telemetry::RegistrySlot tm_;
  telemetry::Counter m_assigned_;
  telemetry::Counter m_no_state_;
  telemetry::Counter m_not_vip_;
  telemetry::Counter m_table_full_;
  telemetry::Counter m_expired_;
};

}  // namespace sprayer::nf
