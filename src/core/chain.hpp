// Run-to-completion NF service chains.
//
// A chain runs a batch through every hop (NAT -> firewall -> LB -> monitor)
// on the core the batch arrived at, compacting drops between hops, before
// the engine transmits the survivors — one pass over the packet data while
// it is cache-hot, instead of N framework round-trips.
//
// Hops are called through INetworkFunction's virtual handlers. What keeps a
// long chain cheap is the per-batch BatchMeta the hops share (DESIGN.md
// §11): the five-tuple extraction, canonicalization and hash fetch that
// every stateful NF needs are done once per batch, by the first hop that
// reads them, not once per hop. A chain whose hops never read the meta
// never builds it. After a tuple-rewriting hop (NAT) that is not the last
// hop, the meta — including the packets' memoized RSS hash — is refreshed
// exactly once; after the last hop an invalidated memo stays lazy.
//
// Connection-packet semantics across hops (DESIGN.md §11): a connection
// packet redirects ONCE, to its flow's designated core, and the whole
// chain's connection handlers run there. This is sound even through NAT
// because the translated tuple is chosen to map back to the claiming core
// (PortPool::claim_matching) and the designated hash is symmetric — every
// downstream hop's state writes, in both directions, land on the same core.
//
// Chains hold no per-batch mutable state: the engine passes its own
// ChainScratch so one chain object can serve every worker thread.
#pragma once

#include <span>
#include <vector>

#include "core/nf.hpp"
#include "telemetry/metrics.hpp"

namespace sprayer::core {

/// Per-engine (per-core) scratch for chain passes: the verdict sheet and
/// the shared per-batch metadata. Owned by SprayerCore, not the chain, so a
/// single chain instance is safe under concurrent workers.
struct ChainScratch {
  BatchVerdicts verdicts;
  BatchMeta meta;
};

/// Everything a chain needs at bring-up. `hop_cfgs` has one slot per hop;
/// the framework pre-fills each slot's registry pointer, the chain runs
/// every hop's init() into its slot, and the framework sizes per-hop flow
/// tables from the results.
struct ChainInit {
  std::span<NfInitConfig> hop_cfgs;
  u32 num_cores = 0;
  /// Registry for the chain's own per-hop metrics
  /// ("chain.h<i>.<nf>.packets/.drops/.ns"); null → chain metrics off.
  telemetry::MetricsRegistry* registry = nullptr;
  /// Per-hop latency counters (…ns). Costs one clock read per hop per
  /// batch, so it is opt-in (SprayerConfig::chain_hop_timing).
  bool hop_timing = false;
  /// Lifecycle sweep (DESIGN.md §15): housekeeping() drives each stateful
  /// hop's cursor-bounded idle-aging sweep. NAT's TIME_WAIT reaping also
  /// rides on it, so leave this on unless the hop set is stateless.
  bool lifecycle_sweep = true;
  /// Override of every hop's idle timeout (0 keeps the value each NF's
  /// init() left in its NfInitConfig).
  Time idle_timeout_override = 0;
  /// Tag groups swept per hop per housekeeping tick; 0 = automatic
  /// (max(64, total_groups / 8): a full rotation every 8 ticks).
  u32 sweep_groups_per_tick = 0;
};

/// Monotonic nanosecond clock for per-hop timing (threaded executor).
[[nodiscard]] Time chain_clock_ns() noexcept;

/// An ordered list of NFs run as one service chain. A single NF is a
/// one-hop chain (the single-NF ThreadedMiddlebox / SimMiddlebox
/// constructors wrap the NF in one). The chain does not own its NFs.
class DynamicChain {
 public:
  explicit DynamicChain(std::vector<INetworkFunction*> hops);
  explicit DynamicChain(INetworkFunction& nf)
      : DynamicChain(std::vector<INetworkFunction*>{&nf}) {}

  [[nodiscard]] u32 num_hops() const noexcept {
    return static_cast<u32>(hops_.size());
  }
  [[nodiscard]] INetworkFunction& hop(u32 i) const noexcept {
    SPRAYER_DCHECK(i < hops_.size());
    return *hops_[i];
  }

  /// Run every hop's init() and register chain metrics. Optional: a chain
  /// used standalone (unit tests driving SprayerCore directly) works
  /// without it — hops then run with their own defaults and no metrics.
  void init(const ChainInit& ci);

  /// Run a batch of connection packets (SYN/FIN/RST on their designated
  /// core) through every hop. The batch is compacted in place to the
  /// survivors; dropped packets are appended to `drops` (not freed).
  /// Stateless hops receive their regular_packets() handler — they have no
  /// flow events to observe.
  void connection_pass(runtime::PacketBatch& batch, ChainScratch& scratch,
                       std::span<NfContext* const> ctxs, Time now,
                       runtime::PacketBatch& drops) {
    pass(batch, scratch, ctxs, now, drops, /*connection=*/true);
  }

  /// Same for regular packets, on whichever core they arrived.
  void regular_pass(runtime::PacketBatch& batch, ChainScratch& scratch,
                    std::span<NfContext* const> ctxs, Time now,
                    runtime::PacketBatch& drops) {
    pass(batch, scratch, ctxs, now, drops, /*connection=*/false);
  }

  /// Periodic maintenance: every hop's housekeeping() with its own context.
  void housekeeping(std::span<NfContext* const> ctxs, Time now);

 private:
  struct HopMetrics {
    telemetry::Counter packets;  // packets entering the hop
    telemetry::Counter drops;    // packets the hop's verdicts dropped
    telemetry::Counter ns;       // wall time in the hop (hop_timing only)
    telemetry::Counter expired;  // entries expired by the lifecycle sweep
    telemetry::Histogram sweep_ns;      // wall ns per sweep_idle() call
    telemetry::Histogram sweep_groups;  // tag groups scanned per call
  };

  void pass(runtime::PacketBatch& batch, ChainScratch& scratch,
            std::span<NfContext* const> ctxs, Time now,
            runtime::PacketBatch& drops, bool connection);

  /// One sweep_idle() increment for hop `h` (called from housekeeping once
  /// per stateful hop per tick).
  void sweep_hop(u32 h, NfContext& ctx);

  std::vector<INetworkFunction*> hops_;
  std::vector<u8> hop_stateless_;
  std::vector<HopMetrics> hop_tm_;
  std::vector<Time> hop_idle_;  // effective per-hop idle timeout
  bool timed_ = false;
  bool sweep_ = true;
  u32 sweep_groups_per_tick_ = 0;  // 0 = auto budget
};

}  // namespace sprayer::core
