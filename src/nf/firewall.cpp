#include "nf/firewall.hpp"

#include <array>

#include "hash/designated.hpp"

namespace sprayer::nf {

void FirewallNf::connection_packets(runtime::PacketBatch& batch,
                                    core::NfContext& ctx,
                                    core::BatchVerdicts& verdicts) {
  for (u32 i = 0; i < batch.size(); ++i) {
    net::Packet* pkt = batch[i];
    const net::FiveTuple tuple = pkt->five_tuple();
    const net::FiveTuple key = tuple.canonical();
    net::TcpView tcp = pkt->tcp();

    if (tcp.has(net::TcpFlags::kSyn) && !tcp.has(net::TcpFlags::kAck)) {
      if (!acl_.allows(tuple)) {
        m_rejected_.add(ctx.core());
        verdicts.drop(i);
        continue;
      }
      auto* e = static_cast<Entry*>(ctx.flows().insert_local_flow(key));
      if (e == nullptr) {  // table full: fail closed
        m_table_full_.add(ctx.core());
        verdicts.drop(i);
        continue;
      }
      if (!e->valid) {
        e->valid = 1;
        e->established_at = ctx.now();
        m_admitted_.add(ctx.core());
      }
      continue;
    }

    auto* e = static_cast<Entry*>(ctx.flows().get_local_flow(key));
    if (e == nullptr || !e->valid) {
      m_no_state_.add(ctx.core());
      verdicts.drop(i);
      continue;
    }
    if (tcp.has(net::TcpFlags::kRst)) {
      (void)ctx.flows().remove_local_flow(key);
      m_closed_.add(ctx.core());
    } else if (tcp.has(net::TcpFlags::kFin)) {
      // One bit per direction: retransmitted FINs from one side never add
      // up to a full close.
      e->fin_seen |= direction_bit(tuple, key);
      if (e->fin_seen == 3) {
        (void)ctx.flows().remove_local_flow(key);
        m_closed_.add(ctx.core());
      }
    }
  }
}

void FirewallNf::regular_packets(runtime::PacketBatch& batch,
                                 core::BatchMeta& meta, core::NfContext& ctx,
                                 core::BatchVerdicts& verdicts) {
  // Bulk path: canonical keys share the packets' memoized symmetric rx
  // hashes, so the whole batch resolves with one pipelined get_flows.
  meta.ensure_canonical(batch);
  std::array<net::FiveTuple, runtime::kMaxBatchSize> keys;
  std::array<core::FlowStateApi::FlowHash, runtime::kMaxBatchSize> hashes;
  std::array<const void*, runtime::kMaxBatchSize> entries;
  std::array<u16, runtime::kMaxBatchSize> idx;
  u32 n = 0;
  for (u32 i = 0; i < batch.size(); ++i) {
    if (!meta.is_tcp[i]) continue;  // non-TCP passes (out of scope here)
    keys[n] = meta.canon[i];
    hashes[n] = meta.hash[i];
    idx[n] = static_cast<u16>(i);
    ++n;
  }
  if (n == 0) return;
  ctx.flows().get_flows({keys.data(), n}, {hashes.data(), n},
                        {entries.data(), n});
  for (u32 j = 0; j < n; ++j) {
    const auto* e = static_cast<const Entry*>(entries[j]);
    if (e == nullptr || !e->valid) {
      m_no_state_.add(ctx.core());
      verdicts.drop(idx[j]);
    }
  }
}

}  // namespace sprayer::nf
