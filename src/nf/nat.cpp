#include "nf/nat.hpp"

#include <array>

#include "hash/designated.hpp"

namespace sprayer::nf {

net::FiveTuple NatNf::translated_tuple(const net::FiveTuple& t,
                                       const Entry& e) noexcept {
  net::FiveTuple out = t;
  if (e.rewrite_dst) {
    out.dst_ip = net::Ipv4Addr{e.new_ip};
    out.dst_port = e.new_port;
  } else {
    out.src_ip = net::Ipv4Addr{e.new_ip};
    out.src_port = e.new_port;
  }
  return out;
}

net::FiveTuple NatNf::pair_key(const net::FiveTuple& t,
                               const Entry& e) noexcept {
  return translated_tuple(t, e).reversed();
}

void NatNf::rewrite(net::Packet* pkt, const Entry& e) noexcept {
  net::Ipv4View ip = pkt->ipv4();
  net::TcpView tcp = pkt->tcp();
  const u32 old_ip = e.rewrite_dst ? ip.dst().host_order()
                                   : ip.src().host_order();
  const u16 old_port = e.rewrite_dst ? tcp.dst_port() : tcp.src_port();

  if (e.rewrite_dst) {
    ip.set_dst(net::Ipv4Addr{e.new_ip});
    tcp.set_dst_port(e.new_port);
  } else {
    ip.set_src(net::Ipv4Addr{e.new_ip});
    tcp.set_src_port(e.new_port);
  }
  // Incremental checksum updates (RFC 1624): the IP header checksum covers
  // the address; the TCP checksum covers the pseudo-header address and the
  // port.
  ip.set_checksum(net::checksum_update32(ip.checksum(), old_ip, e.new_ip));
  u16 tcks = net::checksum_update32(tcp.checksum(), old_ip, e.new_ip);
  tcks = net::checksum_update16(tcks, old_port, e.new_port);
  tcp.set_checksum(tcks);
  // The tuple changed, so the memoized RSS hash no longer matches the
  // headers; downstream consumers recompute it lazily (or the chain
  // refreshes it eagerly once after this hop).
  pkt->invalidate_flow_hash();
}

NatNf::Entry* NatNf::open_session(const net::FiveTuple& tuple,
                                  core::NfContext& ctx) {
  auto& flows = ctx.flows();
  // Pick an external port whose return flow maps back to the forward
  // flow's designated core — the core this handler runs on under both
  // strategies (one shared claim rule — see claim_port_for_designated).
  net::FiveTuple probe = tuple;
  probe.src_ip = cfg_.external_ip;
  const u16 port = core::claim_port_for_designated(
      ports_, probe, flows, flows.designated_core(tuple));
  if (port == 0) {
    m_port_exhausted_.add(ctx.core());
    return nullptr;
  }

  auto* fwd = static_cast<Entry*>(flows.insert_local_flow(tuple));
  if (fwd == nullptr) {
    ports_.release(port);
    m_table_full_.add(ctx.core());
    return nullptr;
  }
  fwd->new_ip = cfg_.external_ip.host_order();
  fwd->new_port = port;
  fwd->rewrite_dst = 0;
  fwd->state = SessionState::kActive;
  fwd->fin_seen = 0;

  // "We also include the other side" (Fig. 5 lines 22–25): the return flow.
  const net::FiveTuple rev = pair_key(tuple, *fwd);
  auto* bwd = static_cast<Entry*>(flows.insert_local_flow(rev));
  if (bwd == nullptr) {
    (void)flows.remove_local_flow(tuple);
    ports_.release(port);
    m_table_full_.add(ctx.core());
    return nullptr;
  }
  bwd->new_ip = tuple.src_ip.host_order();
  bwd->new_port = tuple.src_port;
  bwd->rewrite_dst = 1;
  bwd->state = SessionState::kActive;
  bwd->fin_seen = 0;

  m_opened_.add(ctx.core());
  return fwd;
}

void NatNf::close_session(const net::FiveTuple& tuple, Entry& e,
                          core::NfContext& ctx) {
  if (cfg_.time_wait == 0) {
    abort_session(tuple, e, ctx);
    return;
  }
  auto* pair =
      static_cast<Entry*>(ctx.flows().get_local_flow(pair_key(tuple, e)));
  const Time deadline = ctx.now() + cfg_.time_wait;
  e.state = SessionState::kTimeWait;
  e.expires = deadline;
  if (pair != nullptr) {
    pair->state = SessionState::kTimeWait;
    pair->expires = deadline;
  }
  m_closed_.add(ctx.core());
}

void NatNf::abort_session(const net::FiveTuple& tuple, Entry& e,
                          core::NfContext& ctx) {
  const u16 port = external_port(tuple, e);
  const net::FiveTuple pair = pair_key(tuple, e);
  (void)ctx.flows().remove_local_flow(tuple);
  (void)ctx.flows().remove_local_flow(pair);
  ports_.release(port);
  m_closed_.add(ctx.core());
}

bool NatNf::flow_expired(const net::FiveTuple& key, const void* entry,
                         Time last_seen, Time idle_timeout,
                         core::NfContext& ctx) {
  // Only the rewrite-source (outbound) entry drives expiry: its on_expire
  // removes both directions and frees the port exactly once. The paired
  // return entry rides along and never expires on its own.
  const auto* e = static_cast<const Entry*>(entry);
  if (e->rewrite_dst != 0) return false;
  if (e->state == SessionState::kTimeWait) {
    return e->expires <= ctx.now();
  }
  if (e->state != SessionState::kActive || idle_timeout == 0) return false;
  const Time now = ctx.now();
  if (last_seen + idle_timeout > now) return false;
  // Active sessions expire only when BOTH directions are idle: return
  // traffic refreshes the pair's stamp, not ours. Non-touching read of the
  // pair's stamp straight off the local table.
  const void* pair = ctx.flows().local().find_local(pair_key(key, *e));
  return pair == nullptr ||
         core::FlowTable::last_seen(pair) + idle_timeout <= now;
}

void NatNf::on_expire(const net::FiveTuple& key,
                      core::FlowTable::FlowHash hash, core::NfContext& ctx) {
  // Re-fetch through the API: the sweep's candidate pass ended before this
  // call, and an earlier expiry in the same batch may already have removed
  // this session (it was its pair).
  auto* e = static_cast<Entry*>(ctx.flows().get_local_flow(key, hash));
  if (e == nullptr || e->state == SessionState::kInvalid) return;
  const bool was_active = e->state == SessionState::kActive;
  const u16 port = external_port(key, *e);
  const net::FiveTuple pair = pair_key(key, *e);
  (void)ctx.flows().remove_local_flow(key, hash);
  (void)ctx.flows().remove_local_flow(pair);
  ports_.release(port);
  m_expired_.add(ctx.core());
  // Graceful closes were already counted by close_session; an idle-aged
  // active session is a close nobody announced.
  if (was_active) m_closed_.add(ctx.core());
}

void NatNf::connection_packets(runtime::PacketBatch& batch,
                               core::NfContext& ctx,
                               core::BatchVerdicts& verdicts) {
  for (u32 i = 0; i < batch.size(); ++i) {
    net::Packet* pkt = batch[i];
    const net::FiveTuple tuple = pkt->five_tuple();
    net::TcpView tcp = pkt->tcp();

    auto* e = static_cast<Entry*>(ctx.flows().get_local_flow(tuple));
    if (e == nullptr || e->state == SessionState::kInvalid) {
      const bool bare_syn =
          tcp.has(net::TcpFlags::kSyn) && !tcp.has(net::TcpFlags::kAck);
      if (bare_syn && pkt->ingress_port == cfg_.inside_port) {
        e = open_session(tuple, ctx);
      }
      if (e == nullptr) {
        // Unsolicited inbound connection attempt, or pool exhausted.
        m_unmatched_.add(ctx.core());
        verdicts.drop(i);
        continue;
      }
    } else if (e->state == SessionState::kTimeWait &&
               tcp.has(net::TcpFlags::kSyn) &&
               !tcp.has(net::TcpFlags::kAck) &&
               pkt->ingress_port == cfg_.inside_port) {
      // Port reuse: a new connection on a TIME_WAIT tuple revives the
      // session (same translation, fresh state).
      auto* pair = static_cast<Entry*>(
          ctx.flows().get_local_flow(pair_key(tuple, *e)));
      e->state = SessionState::kActive;
      e->fin_seen = 0;
      if (pair != nullptr) {
        pair->state = SessionState::kActive;
        pair->fin_seen = 0;
      }
      m_opened_.add(ctx.core());
    }

    if (tcp.has(net::TcpFlags::kRst)) {
      rewrite(pkt, *e);
      if (e->state == SessionState::kActive) {
        abort_session(tuple, *e, ctx);
      }
      continue;
    }
    if (tcp.has(net::TcpFlags::kFin)) {
      auto* pair =
          static_cast<Entry*>(ctx.flows().get_local_flow(pair_key(tuple, *e)));
      rewrite(pkt, *e);
      if (e->state == SessionState::kActive) {
        if (pair != nullptr && pair->fin_seen) {
          close_session(tuple, *e, ctx);  // both directions closed
        } else {
          e->fin_seen = 1;
        }
      }
      continue;
    }
    rewrite(pkt, *e);
  }
}

void NatNf::regular_packets(runtime::PacketBatch& batch, core::BatchMeta& meta,
                            core::NfContext& ctx,
                            core::BatchVerdicts& verdicts) {
  // Bulk path: gather each TCP packet's tuple and memoized rx hash, resolve
  // all translations with one pipelined get_flows, then apply rewrites.
  meta.ensure_built(batch);
  std::array<net::FiveTuple, runtime::kMaxBatchSize> keys;
  std::array<core::FlowStateApi::FlowHash, runtime::kMaxBatchSize> hashes;
  std::array<const void*, runtime::kMaxBatchSize> entries;
  std::array<u16, runtime::kMaxBatchSize> idx;
  u32 n = 0;
  for (u32 i = 0; i < batch.size(); ++i) {
    if (!meta.is_tcp[i]) continue;  // this NAT translates TCP only (§4)
    keys[n] = meta.tuple[i];
    hashes[n] = meta.hash[i];
    idx[n] = static_cast<u16>(i);
    ++n;
  }
  if (n == 0) return;
  ctx.flows().get_flows({keys.data(), n}, {hashes.data(), n},
                        {entries.data(), n});
  u64 unmatched = 0;
  for (u32 j = 0; j < n; ++j) {
    const auto* e = static_cast<const Entry*>(entries[j]);
    if (e == nullptr || e->state == SessionState::kInvalid) {
      ++unmatched;
      verdicts.drop(idx[j]);
      continue;
    }
    // TIME_WAIT sessions still translate: the close handshake's trailing
    // ACKs must reach their endpoints.
    rewrite(batch[idx[j]], *e);
  }
  if (unmatched > 0) {
    m_unmatched_.add(ctx.core(), unmatched);
  }
}

}  // namespace sprayer::nf
