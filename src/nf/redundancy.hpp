// Redundancy elimination (paper Table 1: "Packet cache — Global — RW at
// every packet").
//
// The classic RE middlebox fingerprints payloads and replaces repeats with
// references. Here the cache is a fixed-size fingerprint store sharded
// into per-core-padded atomic slots: every packet reads and writes global
// state — the pattern the paper contrasts with per-flow state ("not
// specific to Sprayer; traditional approaches must also deal with shared
// global state"). The NF is stateless in Sprayer's per-flow sense, so it
// sets the stateless flag and receives everything in regular_packets().
#pragma once

#include <atomic>
#include <memory>

#include "core/nf.hpp"
#include "hash/crc32c.hpp"

namespace sprayer::nf {

class RedundancyNf final : public core::INetworkFunction {
 public:
  /// `cache_entries` must be a power of two.
  explicit RedundancyNf(u32 cache_entries = 1u << 16)
      : mask_(cache_entries - 1),
        cache_(std::make_unique<std::atomic<u64>[]>(cache_entries)) {
    SPRAYER_CHECK_MSG((cache_entries & (cache_entries - 1)) == 0,
                      "cache size must be a power of two");
  }

  void init(core::NfInitConfig& cfg, u32 /*num_cores*/) override {
    cfg.stateless = true;  // no per-flow state: no redirection needed
  }

  void connection_packets(runtime::PacketBatch&, core::NfContext&,
                          core::BatchVerdicts&) override {
    // Unreachable for a stateless NF (everything goes to regular_packets).
  }

  void regular_packets(runtime::PacketBatch& batch, core::BatchMeta& /*meta*/,
                       core::NfContext& ctx,
                       core::BatchVerdicts& /*verdicts*/) override {
    for (net::Packet* pkt : batch) {
      if (!pkt->is_tcp() && !pkt->is_udp()) continue;
      const u32 payload_len = pkt->l4_payload_len();
      if (payload_len == 0) continue;
      const u32 hdr = pkt->is_tcp() ? pkt->tcp().header_len()
                                    : net::UdpView::kSize;
      const u8* payload = pkt->l4_bytes() + hdr;

      // Fingerprint the payload; the cache is global, read+written per
      // packet (relaxed atomics: a stale read only costs a missed match).
      const u32 fp32 =
          hash::crc32c(std::span<const u8>{payload, payload_len});
      const u64 fp = (static_cast<u64>(fp32) << 32) | payload_len;
      std::atomic<u64>& slot = cache_[fp32 & mask_];
      ctx.consume_cycles(kCacheAccessCycles);
      if (slot.load(std::memory_order_relaxed) == fp) {
        bytes_saved_.fetch_add(payload_len, std::memory_order_relaxed);
        hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        slot.store(fp, std::memory_order_relaxed);
        misses_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  [[nodiscard]] const char* name() const noexcept override {
    return "redundancy-elimination";
  }

  [[nodiscard]] u64 hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 bytes_saved() const noexcept {
    return bytes_saved_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr Cycles kCacheAccessCycles = 120;  // fingerprint + slot

  u32 mask_;
  std::unique_ptr<std::atomic<u64>[]> cache_;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> bytes_saved_{0};
};

}  // namespace sprayer::nf
