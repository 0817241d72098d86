#include "nf/synthetic.hpp"

#include <array>

#include "hash/designated.hpp"

namespace sprayer::nf {

void SyntheticNf::per_packet_work(net::Packet* pkt, core::NfContext& ctx) {
  if (pkt->is_ipv4()) {
    net::Ipv4View ip = pkt->ipv4();
    const u8 old_ttl = ip.ttl();
    if (old_ttl > 1) {
      // "Modifies the header": TTL decrement with RFC 1624 checksum update.
      ip.set_ttl(old_ttl - 1);
      const u16 old_word = static_cast<u16>((old_ttl << 8) | ip.protocol());
      const u16 new_word =
          static_cast<u16>(((old_ttl - 1) << 8) | ip.protocol());
      ip.set_checksum(
          net::checksum_update16(ip.checksum(), old_word, new_word));
    }
  }
  ctx.consume_cycles(busy_);
}

void SyntheticNf::connection_packets(runtime::PacketBatch& batch,
                                     core::NfContext& ctx,
                                     core::BatchVerdicts& /*verdicts*/) {
  for (net::Packet* pkt : batch) {
    const net::FiveTuple tuple = pkt->five_tuple();
    // The canonical key hashes to the packet's own memoized RSS hash (the
    // symmetric Toeplitz key makes both directions collide by design).
    const u32 hash = hash::packet_flow_hash(*pkt);
    net::TcpView tcp = pkt->tcp();
    if (tcp.has(net::TcpFlags::kSyn) && !tcp.has(net::TcpFlags::kAck)) {
      // New connection: create the flow entry (both directions share the
      // canonical key and this designated core).
      auto* entry = static_cast<Entry*>(
          ctx.flows().insert_local_flow(tuple.canonical(), hash));
      if (entry != nullptr) {
        entry->tag = tuple.canonical().pack();
      }
    } else if (tcp.has(net::TcpFlags::kRst)) {
      (void)ctx.flows().remove_local_flow(tuple.canonical(), hash);
    }
    per_packet_work(pkt, ctx);
  }
}

void SyntheticNf::regular_packets(runtime::PacketBatch& batch,
                                  core::BatchMeta& /*meta*/,
                                  core::NfContext& ctx,
                                  core::BatchVerdicts& /*verdicts*/) {
  // "Retrieves the flow state": gather every TCP packet's canonical key and
  // memoized rx hash, then read them all from the designated cores with one
  // prefetch-pipelined bulk lookup.
  std::array<net::FiveTuple, runtime::kMaxBatchSize> keys;
  std::array<core::FlowStateApi::FlowHash, runtime::kMaxBatchSize> hashes;
  std::array<const void*, runtime::kMaxBatchSize> entries;
  u32 n = 0;
  for (net::Packet* pkt : batch) {
    if (pkt->is_tcp()) {
      keys[n] = pkt->five_tuple().canonical();
      hashes[n] = hash::packet_flow_hash(*pkt);
      ++n;
    }
  }
  if (n > 0) {
    ctx.flows().get_flows({keys.data(), n}, {hashes.data(), n},
                          {entries.data(), n});
    u64 miss = 0;
    for (u32 i = 0; i < n; ++i) miss += entries[i] == nullptr;
    if (miss > 0) misses_.fetch_add(miss, std::memory_order_relaxed);
  }
  for (net::Packet* pkt : batch) {
    per_packet_work(pkt, ctx);
  }
}

}  // namespace sprayer::nf
