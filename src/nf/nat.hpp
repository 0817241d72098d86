// Source NAT — the paper's worked example (Figure 5), completed.
//
// On the first SYN of an outbound connection the NAT claims an external
// port and installs two flow entries on the designated core: one keyed by
// the original tuple (rewrite source on the way out) and one keyed by the
// translated return tuple (rewrite destination on the way back). Regular
// packets in either direction just get_flow() and patch headers with
// incremental checksum updates.
//
// A detail the paper's listing glosses over: the *translated* return flow
// must also hash to this designated core, or its connection packets (the
// server's FIN) and state reads would look elsewhere. We guarantee it by
// claiming a port whose reverse tuple maps back to the claiming core
// (expected #cores tries — see PortPool::claim_matching).
#pragma once

#include "core/nf.hpp"
#include "net/checksum.hpp"
#include "nf/port_pool.hpp"
#include "telemetry/metrics.hpp"

namespace sprayer::nf {

struct NatConfig {
  net::Ipv4Addr external_ip{192, 0, 2, 1};
  u16 port_lo = 10000;
  u16 port_hi = 60000;
  /// Middlebox port facing the private network.
  u8 inside_port = 0;
  /// TIME_WAIT: after both FINs, the session keeps translating (trailing
  /// ACKs, retransmitted FINs) for this long before the housekeeping sweep
  /// removes it and releases the port. 0 = remove immediately. Real NATs
  /// use minutes; simulated experiments run seconds.
  Time time_wait = 50 * kMillisecond;
};

class NatNf final : public core::INetworkFunction {
 public:
  explicit NatNf(NatConfig cfg = {})
      : cfg_(cfg), ports_(cfg.port_lo, cfg.port_hi) {}

  void init(core::NfInitConfig& init, u32 num_cores) override {
    init.flow_table_capacity = 1u << 16;
    init.flow_entry_size = sizeof(Entry);
    init.flow_idle_timeout = 120 * kSecond;  // idle sessions release ports
    auto& reg = tm_.attach(init.registry, num_cores);
    m_opened_ = reg.counter("nat.sessions_opened");
    m_closed_ = reg.counter("nat.sessions_closed");
    m_port_exhausted_ = reg.counter("nat.port_exhausted");
    m_unmatched_ = reg.counter("nat.unmatched_dropped");
    m_table_full_ = reg.counter("nat.table_full");
    m_expired_ = reg.counter("nat.sessions_expired");
    tm_.seal();
  }

  void connection_packets(runtime::PacketBatch& batch, core::NfContext& ctx,
                          core::BatchVerdicts& verdicts) override;
  void regular_packets(runtime::PacketBatch& batch, core::BatchMeta& meta,
                       core::NfContext& ctx,
                       core::BatchVerdicts& verdicts) override;
  /// Lifecycle hooks (the framework's bounded sweep replaces the old
  /// full-table housekeeping scan). A session expires when its TIME_WAIT
  /// deadline passes, or — for active sessions — when BOTH directions have
  /// been idle past the timeout. Only the rewrite-source (outbound) entry
  /// triggers expiry, so the port is released exactly once.
  [[nodiscard]] bool flow_expired(const net::FiveTuple& key, const void* entry,
                                  Time last_seen, Time idle_timeout,
                                  core::NfContext& ctx) override;
  /// Removes both directions of the expired session and returns its port.
  void on_expire(const net::FiveTuple& key, core::FlowTable::FlowHash hash,
                 core::NfContext& ctx) override;

  [[nodiscard]] const char* name() const noexcept override { return "nat"; }
  /// rewrite() changes the five-tuple, so the chain must recompute the
  /// memoized RSS hash of survivors after this hop.
  [[nodiscard]] bool rewrites_tuple() const noexcept override { return true; }

  /// Counter totals, summed across the per-core registry shards (metrics
  /// "nat.*" — connection events only, never the per-packet path). Returned
  /// by value: a loosely-consistent read while workers run, exact once
  /// they are idle.
  struct NatCounters {
    u64 sessions_opened = 0;
    u64 sessions_closed = 0;
    u64 port_exhausted = 0;
    u64 unmatched_dropped = 0;
    u64 table_full = 0;        // SYNs refused because the table had no room
    u64 sessions_expired = 0;  // reclaimed by the sweep (TIME_WAIT or idle)
  };
  [[nodiscard]] NatCounters counters() const noexcept {
    return NatCounters{tm_.total(m_opened_),         tm_.total(m_closed_),
                       tm_.total(m_port_exhausted_), tm_.total(m_unmatched_),
                       tm_.total(m_table_full_),     tm_.total(m_expired_)};
  }
  [[nodiscard]] const PortPool& port_pool() const noexcept { return ports_; }

 private:
  enum class SessionState : u8 { kInvalid = 0, kActive = 1, kTimeWait = 2 };

  struct Entry {
    u32 new_ip = 0;       // host order
    u16 new_port = 0;
    u8 rewrite_dst = 0;   // 0: rewrite source (outbound), 1: rewrite dest
    SessionState state = SessionState::kInvalid;
    u8 fin_seen = 0;      // this direction saw a FIN
    u8 pad[7] = {};
    Time expires = 0;     // TIME_WAIT deadline (valid in kTimeWait)
  };
  static_assert(sizeof(Entry) == 24);

  /// The packet's tuple after translation through `e`.
  [[nodiscard]] static net::FiveTuple translated_tuple(
      const net::FiveTuple& t, const Entry& e) noexcept;
  /// The key of the paired (other-direction) entry.
  [[nodiscard]] static net::FiveTuple pair_key(const net::FiveTuple& t,
                                               const Entry& e) noexcept;

  static void rewrite(net::Packet* pkt, const Entry& e) noexcept;

  /// Handle SYN of a new outbound session; returns the entry or nullptr.
  Entry* open_session(const net::FiveTuple& tuple, core::NfContext& ctx);
  /// Graceful close: both directions enter TIME_WAIT (still translating);
  /// the housekeeping sweep removes them at the deadline.
  void close_session(const net::FiveTuple& tuple, Entry& e,
                     core::NfContext& ctx);
  /// Immediate teardown (RST, or time_wait == 0).
  void abort_session(const net::FiveTuple& tuple, Entry& e,
                     core::NfContext& ctx);
  /// External port of the session `tuple`/`e` belongs to.
  [[nodiscard]] static u16 external_port(const net::FiveTuple& t,
                                         const Entry& e) noexcept {
    return e.rewrite_dst ? t.dst_port : e.new_port;
  }

  NatConfig cfg_;
  PortPool ports_;
  telemetry::RegistrySlot tm_;
  telemetry::Counter m_opened_;
  telemetry::Counter m_closed_;
  telemetry::Counter m_port_exhausted_;
  telemetry::Counter m_unmatched_;
  telemetry::Counter m_table_full_;
  telemetry::Counter m_expired_;
};

}  // namespace sprayer::nf
