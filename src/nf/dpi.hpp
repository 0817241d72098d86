// DPI — the NF the paper singles out as *incompatible* with spraying
// (Table 1: "Automata — per-flow — RW at every packet"; §7).
//
// Cross-packet pattern matching needs the automaton state of a flow to be
// advanced by every one of its packets, in order. Under per-flow RSS every
// packet reaches the designated core and this works; under spraying the
// per-flow state is unreachable (get_local_flow misses on foreign cores)
// and the match becomes per-packet only. The NF counts exactly how often
// that happens (state_unavailable), which the Table 1 bench uses to flag
// the incompatibility the paper describes.
#pragma once

#include <atomic>

#include "core/nf.hpp"
#include "nf/aho_corasick.hpp"

namespace sprayer::nf {

class DpiNf final : public core::INetworkFunction {
 public:
  explicit DpiNf(const std::vector<std::string>& patterns)
      : automaton_(patterns) {}

  void init(core::NfInitConfig& cfg, u32 /*num_cores*/) override {
    cfg.flow_table_capacity = 1u << 16;
    cfg.flow_entry_size = sizeof(Entry);
  }

  void connection_packets(runtime::PacketBatch& batch, core::NfContext& ctx,
                          core::BatchVerdicts& verdicts) override;
  void regular_packets(runtime::PacketBatch& batch, core::BatchMeta& meta,
                       core::NfContext& ctx,
                       core::BatchVerdicts& verdicts) override;

  [[nodiscard]] const char* name() const noexcept override { return "dpi"; }

  [[nodiscard]] u64 pattern_hits() const noexcept { return hits_; }
  /// Packets whose per-flow automaton state was not reachable on the core
  /// that processed them — zero under RSS, large under spraying.
  [[nodiscard]] u64 state_unavailable() const noexcept {
    return state_unavailable_;
  }

 private:
  struct Entry {
    u32 state = 0;
    u8 valid = 0;
    u8 pad[3] = {};
  };
  static_assert(sizeof(Entry) == 8);

  void scan_with_state(net::Packet* pkt, core::NfContext& ctx);

  AhoCorasick automaton_;
  u64 hits_ = 0;
  u64 state_unavailable_ = 0;
};

}  // namespace sprayer::nf
