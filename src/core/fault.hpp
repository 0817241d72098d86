// Deterministic transfer-fault injection for the lossless redirect path.
//
// Wraps any ICorePort and truncates every `reject_period`-th transfer_batch
// call to at most `accept_cap` descriptors, independent of real ring
// occupancy. Tests and benches use it to exercise the park/retry machinery
// without winning a timing race against ring drain: the wrapped engine must
// deliver every descriptor anyway (transfer_drops stays zero), just across
// more flush rounds. Single-threaded per instance — each worker wraps its
// own port, mirroring how CorePort itself is per-core.
#pragma once

#include <span>

#include "core/config.hpp"
#include "core/engine.hpp"

namespace sprayer::core {

class FaultInjectedPort final : public ICorePort {
 public:
  FaultInjectedPort(ICorePort& inner, TransferFaultConfig cfg) noexcept
      : inner_(inner), cfg_(cfg) {}

  u32 transfer_batch(CoreId dest,
                     std::span<net::Packet* const> pkts) override {
    if (should_reject() && pkts.size() > cfg_.accept_cap) {
      ++forced_rejections_;
      pkts = pkts.first(cfg_.accept_cap);
      if (pkts.empty()) return 0;
    }
    return inner_.transfer_batch(dest, pkts);
  }

  void transmit_batch(std::span<net::Packet* const> pkts) override {
    inner_.transmit_batch(pkts);
  }

  /// transfer_batch calls the schedule truncated.
  [[nodiscard]] u64 forced_rejections() const noexcept {
    return forced_rejections_;
  }

 private:
  [[nodiscard]] bool should_reject() noexcept {
    if (!cfg_.enabled()) return false;
    return ++calls_ % cfg_.reject_period == 0;
  }

  ICorePort& inner_;
  TransferFaultConfig cfg_;
  u64 calls_ = 0;
  u64 forced_rejections_ = 0;
};

}  // namespace sprayer::core
