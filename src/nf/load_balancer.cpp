#include "nf/load_balancer.hpp"

#include <array>

#include "hash/designated.hpp"

namespace sprayer::nf {

LoadBalancerNf::LoadBalancerNf(LbConfig cfg) : cfg_(std::move(cfg)) {
  SPRAYER_CHECK_MSG(!cfg_.backends.empty(), "load balancer needs backends");
  SPRAYER_CHECK(cfg_.backends.size() <= kMaxBackends);
}

std::vector<i64> LoadBalancerNf::active_connections() const {
  std::vector<i64> totals(cfg_.backends.size(), 0);
  for (u32 c = 0; c < num_cores_ && c < kMaxCores; ++c) {
    for (std::size_t b = 0; b < totals.size(); ++b) {
      totals[b] += per_core_[c].delta[b];
    }
  }
  return totals;
}

void LoadBalancerNf::connection_packets(runtime::PacketBatch& batch,
                                        core::NfContext& ctx,
                                        core::BatchVerdicts& verdicts) {
  for (u32 i = 0; i < batch.size(); ++i) {
    net::Packet* pkt = batch[i];
    const net::FiveTuple tuple = pkt->five_tuple();
    const net::FiveTuple key = tuple.canonical();
    net::TcpView tcp = pkt->tcp();

    if (tcp.has(net::TcpFlags::kSyn) && !tcp.has(net::TcpFlags::kAck)) {
      if (!is_to_vip(tuple)) {
        m_not_vip_.add(ctx.core());
        verdicts.drop(i);
        continue;
      }
      auto* e = static_cast<Entry*>(ctx.flows().insert_local_flow(key));
      if (e == nullptr) {
        // Fail-closed: no room to pin the connection, so drop the SYN
        // rather than spray it at an untracked backend.
        m_table_full_.add(ctx.core());
        verdicts.drop(i);
        continue;
      }
      if (!e->valid) {
        e->backend = static_cast<u16>(
            rr_next_.fetch_add(1, std::memory_order_relaxed) %
            cfg_.backends.size());
        e->valid = 1;
        m_assigned_.add(ctx.core());
        per_core_[ctx.core()].delta[e->backend] += 1;
      }
      pkt->eth().set_dst(cfg_.backends[e->backend].mac);
      continue;
    }

    auto* e = static_cast<Entry*>(ctx.flows().get_local_flow(key));
    if (e == nullptr || !e->valid) {
      m_no_state_.add(ctx.core());
      verdicts.drop(i);
      continue;
    }
    if (is_to_vip(tuple)) {
      pkt->eth().set_dst(cfg_.backends[e->backend].mac);
    }
    if (tcp.has(net::TcpFlags::kFin)) {
      // One bit per direction: a retransmitted FIN from the same side must
      // not count as the peer's half of the handshake.
      e->fin_seen |= direction_bit(tuple, key);
    }
    const bool close = tcp.has(net::TcpFlags::kRst) || e->fin_seen == 3;
    if (close) {
      per_core_[ctx.core()].delta[e->backend] -= 1;
      (void)ctx.flows().remove_local_flow(key);
    }
  }
}

void LoadBalancerNf::on_expire(const net::FiveTuple& key,
                               core::FlowTable::FlowHash hash,
                               core::NfContext& ctx) {
  // Re-fetch through the API (the sweep's entry pointer is not stable
  // across the candidate pass) so the backend delta is released exactly
  // once, by whoever actually removes the entry.
  auto* e = static_cast<Entry*>(ctx.flows().get_local_flow(key));
  if (e == nullptr || !e->valid) return;
  const u16 backend = e->backend;
  if (ctx.flows().remove_local_flow(key, hash)) {
    per_core_[ctx.core()].delta[backend] -= 1;
    m_expired_.add(ctx.core());
  }
}

void LoadBalancerNf::regular_packets(runtime::PacketBatch& batch,
                                     core::BatchMeta& meta,
                                     core::NfContext& ctx,
                                     core::BatchVerdicts& verdicts) {
  // Bulk path: filter to VIP-bound TCP packets, then resolve every backend
  // assignment with one pipelined get_flows over the canonical keys (which
  // share the packets' memoized symmetric rx hashes).
  meta.ensure_canonical(batch);
  std::array<net::FiveTuple, runtime::kMaxBatchSize> keys;
  std::array<core::FlowStateApi::FlowHash, runtime::kMaxBatchSize> hashes;
  std::array<const void*, runtime::kMaxBatchSize> entries;
  std::array<u16, runtime::kMaxBatchSize> idx;
  u32 n = 0;
  for (u32 i = 0; i < batch.size(); ++i) {
    if (!meta.is_tcp[i]) continue;
    const net::FiveTuple& tuple = meta.tuple[i];
    if (is_from_vip(tuple)) continue;  // DSR return path: pass through
    if (!is_to_vip(tuple)) {
      m_not_vip_.add(ctx.core());
      verdicts.drop(i);
      continue;
    }
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
      continue;
    }
    batch[idx[j]]->eth().set_dst(cfg_.backends[e->backend].mac);
  }
}

}  // namespace sprayer::nf
