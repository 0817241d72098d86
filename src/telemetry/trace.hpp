// Sampled packet-path tracer (DESIGN.md §13): per-stage latency for
// 1-in-2^N packets, recorded into per-core log-histograms.
//
// A sampled packet is stamped at rx admission with a reserved bit of
// `Packet::user_tag` (bit 62) plus a 48-bit nanosecond timestamp relative
// to the tracer's construction (≈78 hours of range; deltas are computed
// mod 2^48 so wrap is harmless, and a negative delta records 0). Each stage
// reads the stamp, records `now - stamp` into its histogram, and re-stamps
// with `now`, so the histograms decompose the packet's path:
//
//   trace.steer_ns  — rx admission → steering decision (driver thread)
//   trace.queue_ns  — rx-ring doorbell → worker poll (the queue delay that
//                     is the adaptive layer's congestion signal)
//   trace.nf_ns     — worker poll → tx flush (classification, the whole NF
//                     chain run-to-completion, and the tx handoff; per-hop
//                     resolution inside this span comes from the existing
//                     chain.h<i>.*.ns histograms when chain_hop_timing is
//                     on). For a transferred connection packet this span
//                     includes the mesh-ring hop to its designated core.
//
// Sampling contract: the tracer owns `user_tag` bit 62 and the low 48 bits
// for stamped packets. It never stamps a packet the reorder observatory
// already claimed (bit 63) — when both features are on, a reorder-sampled
// flow's packets are simply invisible to the tracer (1-in-N applies to the
// remainder) — and a stage treats a packet as traced only when bit 62 is
// set AND bit 63 is clear. Generator-written user_tag values (small flow
// ids) are overwritten for sampled packets, so sinks that read user_tag
// should not run with tracing enabled.
//
// Thread contract: maybe_stamp/record_steer/flush_driver are driver-side
// (single thread, same as the inject path). record_queue/record_tx run on
// workers, inside the worker's registry update window, writing that
// worker's shard only. Driver-side histogram samples are buffered and
// drained by flush_driver() inside the driver's own update window.
#pragma once

#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/relaxed.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "net/packet.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observability_config.hpp"
#include "telemetry/reorder.hpp"

namespace sprayer::telemetry {

class PathTracer {
 public:
  static constexpr u64 kTraceFlag = 1ULL << 62;
  static constexpr u64 kReorderFlag = ReorderObservatory::kStampFlag;
  static constexpr u64 kTsMask = (1ULL << 48) - 1;

  /// `base` anchors the 48-bit relative clock (pass steady_now() at setup).
  PathTracer(const TraceConfig& cfg, Time base)
      : sample_mask_((u64{1} << cfg.sample_shift) - 1),
        base_ns_(base / kNanosecond) {
    SPRAYER_CHECK_MSG(cfg.sample_shift <= 20,
                      "trace sampling coarser than 1-in-2^20 is a config typo");
  }

  PathTracer(const PathTracer&) = delete;
  PathTracer& operator=(const PathTracer&) = delete;

  /// Register the stage histograms and counters. Before registry finalize.
  void register_metrics(MetricsRegistry& registry);

  [[nodiscard]] static bool is_traced(u64 tag) noexcept {
    return (tag & (kTraceFlag | kReorderFlag)) == kTraceFlag;
  }

  /// Driver: stamp this packet if the 1-in-2^N counter elects it and the
  /// reorder observatory has not claimed the tag. Returns true if stamped.
  /// `now_fn` is invoked only for elected packets, so callers that would
  /// otherwise skip the clock read stay clock-free on unsampled packets.
  template <typename NowFn>
  bool maybe_stamp(net::Packet& pkt, NowFn&& now_fn) noexcept {
    if ((tick_++ & sample_mask_) != 0) return false;
    if ((pkt.user_tag & kReorderFlag) != 0) return false;
    pkt.user_tag = kTraceFlag | rel_ns(now_fn());
    ++sampled_;
    return true;
  }

  /// Driver: close the steer stage for a traced packet (buffered; drained
  /// by flush_driver inside the driver's registry window) and re-stamp.
  void record_steer(net::Packet& pkt, Time now) noexcept {
    const u64 t = rel_ns(now);
    steer_samples_.push_back(delta(pkt.user_tag, t));
    pkt.user_tag = kTraceFlag | t;
  }

  /// Driver (inside begin_update(driver_shard)): drain buffered steer
  /// samples into the histogram.
  void flush_driver(u32 driver_shard) noexcept {
    for (const u64 ns : steer_samples_) {
      steer_ns_.record(driver_shard, ns);
    }
    steer_samples_.clear();
  }
  [[nodiscard]] bool has_driver_samples() const noexcept {
    return !steer_samples_.empty();
  }

  /// Worker (inside begin_update(shard)): close the rx-ring queue stage for
  /// every traced packet of a polled batch and re-stamp.
  void record_queue(std::span<net::Packet* const> pkts, u32 shard,
                    Time now) noexcept {
    const u64 t = rel_ns(now);
    for (net::Packet* pkt : pkts) {
      if (!is_traced(pkt->user_tag)) continue;
      queue_ns_.record(shard, delta(pkt->user_tag, t));
      pkt->user_tag = kTraceFlag | t;
    }
  }

  /// Worker (inside begin_update(shard), at the tx boundary): close the NF
  /// stage. The clock is read lazily — only when the batch holds a traced
  /// packet — via `now_fn`.
  template <typename NowFn>
  void record_tx(std::span<net::Packet* const> pkts, u32 shard,
                 NowFn&& now_fn) noexcept {
    u64 t = 0;
    bool have_t = false;
    for (net::Packet* pkt : pkts) {
      if (!is_traced(pkt->user_tag)) continue;
      if (!have_t) {
        t = rel_ns(now_fn());
        have_t = true;
      }
      nf_ns_.record(shard, delta(pkt->user_tag, t));
      completed_.add(shard, 1);
    }
  }

  /// Packets elected for tracing (driver-side count, readable anywhere).
  [[nodiscard]] u64 sampled() const noexcept { return sampled_; }

 private:
  [[nodiscard]] u64 rel_ns(Time now) const noexcept {
    return (now / kNanosecond - base_ns_) & kTsMask;
  }
  /// Stage latency, mod 2^48 (clock wrap is harmless). A stamp later than
  /// `now_rel` — the driver stamped a packet after the worker that popped
  /// it read its clock — is a negative delta, recorded as 0.
  [[nodiscard]] static u64 delta(u64 tag, u64 now_rel) noexcept {
    const u64 d = (now_rel - (tag & kTsMask)) & kTsMask;
    return d > (kTsMask >> 1) ? 0 : d;
  }

  const u64 sample_mask_;
  const u64 base_ns_;
  u64 tick_ = 0;  // driver-private sampling counter
  RelaxedU64 sampled_;
  std::vector<u64> steer_samples_;  // driver-private stage buffer
  Histogram steer_ns_;
  Histogram queue_ns_;
  Histogram nf_ns_;
  Counter completed_;
};

}  // namespace sprayer::telemetry
