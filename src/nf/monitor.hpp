// Traffic monitor (paper Table 1: "Connection context — per-flow — RW at
// flow events; Statistics — global — RW at every packet").
//
// Per-packet statistics use the loose-consistency pattern the paper
// recommends (§3.4, citing the Bro/Zeek cluster): every core counts into
// its own cache-line-padded slots, and aggregate() folds them on demand.
// Per-connection context is written only at connection events, on the
// designated core.
#pragma once

#include "common/units.hpp"
#include "core/nf.hpp"
#include "telemetry/metrics.hpp"

namespace sprayer::nf {

class MonitorNf final : public core::INetworkFunction {
 public:
  static constexpr u32 kMaxCores = 64;

  /// `close_on_single_fin`: treat one FIN as end-of-connection — for
  /// unidirectional feeds (e.g. trace replay) where the reverse direction
  /// is not observed.
  explicit MonitorNf(bool close_on_single_fin = false) noexcept
      : close_on_single_fin_(close_on_single_fin) {}

  void init(core::NfInitConfig& cfg, u32 num_cores) override {
    cfg.flow_table_capacity = 1u << 16;
    cfg.flow_entry_size = sizeof(Entry);
    cfg.flow_idle_timeout = 60 * kSecond;  // idle connections age out
    num_cores_ = num_cores;
    auto& reg = tm_.attach(cfg.registry, num_cores);
    m_packets_ = reg.counter("monitor.packets");
    m_bytes_ = reg.counter("monitor.bytes");
    m_tcp_ = reg.counter("monitor.tcp_packets");
    m_udp_ = reg.counter("monitor.udp_packets");
    m_other_ = reg.counter("monitor.other_packets");
    m_tracked_ = reg.counter("monitor.tracked_packets");
    m_opened_ = reg.counter("monitor.connections_opened");
    m_closed_ = reg.counter("monitor.connections_closed");
    m_table_full_ = reg.counter("monitor.table_full");
    m_expired_ = reg.counter("monitor.connections_expired");
    tm_.seal();
  }

  void connection_packets(runtime::PacketBatch& batch, core::NfContext& ctx,
                          core::BatchVerdicts& verdicts) override;
  void regular_packets(runtime::PacketBatch& batch, core::BatchMeta& meta,
                       core::NfContext& ctx,
                       core::BatchVerdicts& verdicts) override;
  void on_expire(const net::FiveTuple& key, core::FlowTable::FlowHash hash,
                 core::NfContext& ctx) override;

  [[nodiscard]] const char* name() const noexcept override {
    return "monitor";
  }

  struct Totals {
    u64 packets = 0;
    u64 bytes = 0;
    u64 tcp_packets = 0;
    u64 udp_packets = 0;
    u64 other_packets = 0;
    u64 tracked_packets = 0;  // TCP packets whose connection is in the table
    u64 connections_opened = 0;
    u64 connections_closed = 0;
    u64 connections_expired = 0;  // closed by idle aging (subset of closed)
    u64 table_full = 0;           // SYNs the table had no room to track
  };
  /// Loosely-consistent aggregate across all cores (metrics "monitor.*",
  /// one registry shard per core — the same §3.4 statistics pattern as
  /// before, now hosted by the telemetry registry).
  [[nodiscard]] Totals aggregate() const;

  /// The registry hosting this NF's metrics (framework-shared or private
  /// fallback); null before init(). For snapshot/JSON export by embedders
  /// whose executor has no registry of its own (e.g. the simulator).
  [[nodiscard]] const telemetry::MetricsRegistry* metrics_registry()
      const noexcept {
    return tm_.get();
  }

 private:
  struct Entry {
    Time first_seen = 0;
    u8 valid = 0;  // atomic_ref: release store on open, acquire on read
    /// Per-direction FIN bits (bit 0: packet traveled in the canonical
    /// direction, bit 1: reverse) — a retransmitted FIN from one side sets
    /// the same bit again instead of double-counting toward teardown.
    u8 fin_seen = 0;
    u8 pad[6] = {};
  };
  static_assert(sizeof(Entry) == 16);

  /// Which fin_seen bit a packet's arrival direction maps to.
  [[nodiscard]] static u8 direction_bit(const net::FiveTuple& pkt_tuple,
                                        const net::FiveTuple& canon) noexcept {
    return pkt_tuple == canon ? 1 : 2;
  }

  void count_packet(net::Packet* pkt, CoreId core) noexcept {
    m_packets_.add(core);
    m_bytes_.add(core, pkt->len());
    if (pkt->is_tcp()) {
      m_tcp_.add(core);
    } else if (pkt->is_udp()) {
      m_udp_.add(core);
    } else {
      m_other_.add(core);
    }
  }

  bool close_on_single_fin_;
  u32 num_cores_ = 0;
  telemetry::RegistrySlot tm_;
  telemetry::Counter m_packets_;
  telemetry::Counter m_bytes_;
  telemetry::Counter m_tcp_;
  telemetry::Counter m_udp_;
  telemetry::Counter m_other_;
  telemetry::Counter m_tracked_;
  telemetry::Counter m_opened_;
  telemetry::Counter m_closed_;
  telemetry::Counter m_table_full_;
  telemetry::Counter m_expired_;
};

}  // namespace sprayer::nf
