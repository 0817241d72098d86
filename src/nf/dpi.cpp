#include "nf/dpi.hpp"

namespace sprayer::nf {

void DpiNf::scan_with_state(net::Packet* pkt, core::NfContext& ctx) {
  if (!pkt->is_tcp()) return;
  const u32 payload_len = pkt->l4_payload_len();
  if (payload_len == 0) return;
  const u8* payload = pkt->l4_bytes() + pkt->tcp().header_len();

  // Per-packet RW on per-flow state: only possible where the state lives.
  auto* e = static_cast<Entry*>(
      ctx.flows().get_local_flow(pkt->five_tuple().canonical()));
  if (e != nullptr && e->valid) {
    e->state = automaton_.scan(
        e->state, std::span<const u8>{payload, payload_len}, &hits_);
  } else {
    // The flow's automaton lives on another core (spraying) or the flow is
    // unknown: fall back to stateless per-packet matching.
    ++state_unavailable_;
    (void)automaton_.scan(0, std::span<const u8>{payload, payload_len},
                          &hits_);
  }
}

void DpiNf::connection_packets(runtime::PacketBatch& batch,
                               core::NfContext& ctx,
                               core::BatchVerdicts& /*verdicts*/) {
  for (net::Packet* pkt : batch) {
    const net::FiveTuple key = pkt->five_tuple().canonical();
    net::TcpView tcp = pkt->tcp();
    if (tcp.has(net::TcpFlags::kSyn) && !tcp.has(net::TcpFlags::kAck)) {
      auto* e = static_cast<Entry*>(ctx.flows().insert_local_flow(key));
      if (e != nullptr) e->valid = 1;
    } else if (tcp.has(net::TcpFlags::kRst) ||
               tcp.has(net::TcpFlags::kFin)) {
      (void)ctx.flows().remove_local_flow(key);
    }
    scan_with_state(pkt, ctx);
  }
}

void DpiNf::regular_packets(runtime::PacketBatch& batch,
                            core::BatchMeta& /*meta*/, core::NfContext& ctx,
                            core::BatchVerdicts& /*verdicts*/) {
  for (net::Packet* pkt : batch) {
    scan_with_state(pkt, ctx);
  }
}

}  // namespace sprayer::nf
