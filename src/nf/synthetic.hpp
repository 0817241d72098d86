// The paper's evaluation NF (§5): "creates a new entry in the flow table at
// every new connection. For every packet it receives, it retrieves the flow
// state, modifies the header, and busy loops for a given number of cycles."
//
// The busy-loop cycle count emulates NFs of different complexity; the paper
// sweeps it from 0 to 10,000 (the maximum among the NFs surveyed by ResQ).
#pragma once

#include <atomic>

#include "core/nf.hpp"
#include "net/checksum.hpp"

namespace sprayer::nf {

class SyntheticNf final : public core::INetworkFunction {
 public:
  explicit SyntheticNf(Cycles busy_cycles_per_packet = 0) noexcept
      : busy_(busy_cycles_per_packet) {}

  void init(core::NfInitConfig& cfg, u32 /*num_cores*/) override {
    cfg.flow_table_capacity = 1u << 16;
    cfg.flow_entry_size = sizeof(Entry);
  }

  void connection_packets(runtime::PacketBatch& batch, core::NfContext& ctx,
                          core::BatchVerdicts& verdicts) override;
  void regular_packets(runtime::PacketBatch& batch, core::BatchMeta& meta,
                       core::NfContext& ctx,
                       core::BatchVerdicts& verdicts) override;

  [[nodiscard]] const char* name() const noexcept override {
    return "synthetic";
  }

  [[nodiscard]] Cycles busy_cycles() const noexcept { return busy_; }
  [[nodiscard]] u64 lookup_misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    u64 tag;       // designated-core hash, written at connection setup
    u64 packets;   // written only by the designated core (conn packets)
  };

  /// The per-packet work: header modification (TTL decrement + incremental
  /// checksum fix) and the busy loop.
  void per_packet_work(net::Packet* pkt, core::NfContext& ctx);

  Cycles busy_;
  std::atomic<u64> misses_{0};  // shared across worker threads
};

}  // namespace sprayer::nf
