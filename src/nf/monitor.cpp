#include "nf/monitor.hpp"

#include <atomic>

#include "hash/designated.hpp"

namespace sprayer::nf {

MonitorNf::Totals MonitorNf::aggregate() const {
  Totals out;
  out.packets = tm_.total(m_packets_);
  out.bytes = tm_.total(m_bytes_);
  out.tcp_packets = tm_.total(m_tcp_);
  out.udp_packets = tm_.total(m_udp_);
  out.other_packets = tm_.total(m_other_);
  out.tracked_packets = tm_.total(m_tracked_);
  out.connections_opened = tm_.total(m_opened_);
  out.connections_closed = tm_.total(m_closed_);
  out.connections_expired = tm_.total(m_expired_);
  out.table_full = tm_.total(m_table_full_);
  return out;
}

void MonitorNf::on_expire(const net::FiveTuple& key,
                          core::FlowTable::FlowHash hash,
                          core::NfContext& ctx) {
  if (ctx.flows().remove_local_flow(key, hash)) {
    m_expired_.add(ctx.core());
    m_closed_.add(ctx.core());
  }
}

void MonitorNf::connection_packets(runtime::PacketBatch& batch,
                                   core::NfContext& ctx,
                                   core::BatchVerdicts& /*verdicts*/) {
  for (net::Packet* pkt : batch) {
    const net::FiveTuple key = pkt->five_tuple().canonical();
    net::TcpView tcp = pkt->tcp();
    const CoreId core = ctx.core();

    if (tcp.has(net::TcpFlags::kSyn) && !tcp.has(net::TcpFlags::kAck)) {
      auto* e = static_cast<Entry*>(ctx.flows().insert_local_flow(key));
      if (e == nullptr) {
        m_table_full_.add(core);
      } else if (!e->valid) {
        // insert_local_flow already made the slot findable: sprayed cores
        // may read `valid` now, so it is published last, with release.
        e->first_seen = ctx.now();
        std::atomic_ref<u8>(e->valid).store(1, std::memory_order_release);
        m_opened_.add(core);
      }
    } else if (tcp.has(net::TcpFlags::kRst)) {
      if (ctx.flows().remove_local_flow(key)) m_closed_.add(core);
    } else if (tcp.has(net::TcpFlags::kFin)) {
      auto* e = static_cast<Entry*>(ctx.flows().get_local_flow(key));
      if (e != nullptr && e->valid) {
        // A FIN only counts toward teardown once per direction: bits, not a
        // counter, so retransmitted FINs cannot close a half-open connection.
        e->fin_seen |= direction_bit(pkt->five_tuple(), key);
        const bool done =
            close_on_single_fin_ ? e->fin_seen != 0 : e->fin_seen == 3;
        if (done && ctx.flows().remove_local_flow(key)) m_closed_.add(core);
      }
    }
    count_packet(pkt, core);
  }
}

void MonitorNf::regular_packets(runtime::PacketBatch& batch,
                                core::BatchMeta& meta, core::NfContext& ctx,
                                core::BatchVerdicts& /*verdicts*/) {
  // Per-connection attribution: one pipelined bulk lookup over the batch's
  // canonical keys (sharing the packets' memoized rx hashes) counts how
  // much regular traffic belongs to tracked connections.
  meta.ensure_canonical(batch);
  std::array<net::FiveTuple, runtime::kMaxBatchSize> keys;
  std::array<core::FlowStateApi::FlowHash, runtime::kMaxBatchSize> hashes;
  std::array<const void*, runtime::kMaxBatchSize> entries;
  u32 n = 0;
  for (u32 i = 0; i < batch.size(); ++i) {
    count_packet(batch[i], ctx.core());
    if (meta.is_tcp[i]) {
      keys[n] = meta.canon[i];
      hashes[n] = meta.hash[i];
      ++n;
    }
  }
  if (n == 0) return;
  ctx.flows().get_flows({keys.data(), n}, {hashes.data(), n},
                        {entries.data(), n});
  u64 tracked = 0;
  for (u32 j = 0; j < n; ++j) {
    auto* e = static_cast<Entry*>(const_cast<void*>(entries[j]));
    if (e != nullptr &&
        std::atomic_ref<u8>(e->valid).load(std::memory_order_acquire) != 0) {
      ++tracked;
    }
  }
  if (tracked > 0) m_tracked_.add(ctx.core(), tracked);
}

}  // namespace sprayer::nf
