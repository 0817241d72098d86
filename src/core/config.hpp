// Sprayer framework configuration and the per-packet CPU cost model.
#pragma once

#include "common/overload.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "state/config.hpp"
#include "telemetry/observability_config.hpp"

namespace sprayer::core {

/// How the NIC assigns packets to cores.
enum class DispatchMode {
  kRss,    // per-flow (baseline): Toeplitz hash of the five-tuple
  kSpray,  // per-packet: Flow Director matching TCP-checksum low bits
};

[[nodiscard]] constexpr const char* to_string(DispatchMode m) noexcept {
  return m == DispatchMode::kRss ? "RSS" : "Sprayer";
}

/// Virtual CPU cycles charged by the framework per operation. The values
/// are in line with measured DPDK costs on the paper's era of hardware
/// (Xeon E5-2650 v0, 2.0 GHz); the ablation bench sweeps the sensitive ones.
struct CostModel {
  Cycles batch_overhead = 50;       // poll + prefetch amortized per batch
  Cycles classify_per_packet = 30;  // parse check + flag test + core pick
  Cycles transfer_enqueue = 60;     // descriptor enqueue to a foreign ring
  Cycles transfer_dequeue = 40;     // descriptor dequeue on designated core
  Cycles flow_insert = 150;         // hash + probe + write
  Cycles flow_lookup_local = 60;    // hash + probe, warm local cache
  Cycles flow_lookup_remote = 100;  // + cross-core cache-line transfer
  Cycles flow_lookup_batched = 40;  // per-lookup cost inside get_flows()
  Cycles flow_remove = 100;
  Cycles tx_per_packet = 30;        // tx descriptor write
};

/// Deterministic transfer-fault schedule (test/bench hook): every
/// `reject_period`-th ICorePort::transfer_batch() call from a core is
/// truncated to accept at most `accept_cap` descriptors, independent of
/// actual ring occupancy. Drives the lossless-redirect retry machinery
/// without having to win a timing race against real ring drain. 0 disables.
struct TransferFaultConfig {
  u32 reject_period = 0;
  u32 accept_cap = 0;
  [[nodiscard]] constexpr bool enabled() const noexcept {
    return reject_period > 0;
  }
};

/// Adaptive spraying (DESIGN.md §12): classify flows at runtime into
/// elephants (sprayed for packet-level parallelism) and mice (pinned to
/// their designated queue with Flow Director exact rules — no reordering,
/// warm per-flow state), steer the sprayed remainder toward shallow queues
/// with a power-of-two-choices pick, and narrow a flow's spray set when the
/// reorder observatory reports its out-of-order distance over budget.
/// Off by default: static checksum spraying remains the shipping
/// configuration until the adaptive bench justifies flipping it.
struct AdaptiveSprayConfig {
  bool enabled = false;
  /// Flow-cache sets (2-way associative); power of two.
  u32 flow_sets = 2048;
  /// Per-core heavy-hitter sketch cells; power of two.
  u32 sketch_slots = 1024;
  /// Aggregated (decayed) sketch count at/above which a flow is promoted
  /// to elephant and sprayed.
  u64 promote_count = 512;
  /// Aggregated count below which an elephant accumulates demote dwell
  /// (kept well under promote_count: the gap is the flap hysteresis).
  u64 demote_count = 128;
  /// Consecutive ticks below demote_count before an elephant is re-pinned.
  u32 demote_dwell_ticks = 3;
  /// Driver-side sketch-merge / rule-maintenance cadence.
  Time update_interval = 2 * kMillisecond;
  /// Cap on installed exact pin rules. Shares the Flow Director 8K table
  /// with the 2^b checksum spray rules; when either budget is exhausted a
  /// new mouse simply keeps spraying (never an error).
  u32 rule_budget = 4096;
  /// A pinned flow idle longer than this loses its rule and cache slot.
  Time idle_timeout = 50 * kMillisecond;
  /// Flow-cache slots swept for idle eviction per maintenance tick.
  u32 evict_scan = 512;
  /// Queue-depth-aware power-of-two-choices steering of sprayed packets.
  bool p2c = true;
  /// Observatory out-of-order distance above which a sprayed flow's spray
  /// set is halved (0 disables narrowing; needs reorder_observatory=true
  /// to ever fire — unsampled flows are never narrowed).
  u64 reorder_budget = 128;
  /// Narrowest spray set narrowing may reach (1 would de-facto pin).
  u32 min_spray_width = 2;
};

/// Flow-state lifecycle (DESIGN.md §15): idle aging driven by the
/// housekeeping tick's cursor-bounded sweep, and opt-in segmented online
/// growth of the flow tables.
struct LifecycleConfig {
  /// Master switch for the per-hop idle-aging sweep. FIN/RST teardown and
  /// NAT's TIME_WAIT reaping also ride on the sweep, so turning it off
  /// reverts NAT to no housekeeping at all.
  bool sweep = true;
  /// Override of every stateful hop's idle timeout (0 keeps each NF's own
  /// default — 60 s for monitor/firewall/LB, 120 s for NAT).
  Time idle_timeout = 0;
  /// Tag groups each hop's sweep scans per housekeeping tick. 0 = automatic:
  /// max(64, total_groups / 8), i.e. a full rotation every 8 ticks no matter
  /// the table size, so expiry latency tracks the housekeeping interval
  /// instead of the provisioned capacity.
  u32 sweep_groups_per_tick = 0;
  /// Override of every stateful hop's flow-table capacity (0 keeps each
  /// NF's own init() value). Power of two.
  u32 flow_table_capacity = 0;
  /// Online growth: each flow table may add up to this many segments of its
  /// base capacity before insert() fails (FlowTable::set_growth; clamped to
  /// FlowTable::kMaxSegments). 1 = fixed capacity, the historical behavior.
  u32 max_table_segments = 1;
};

struct SprayerConfig {
  u32 num_cores = 8;
  double core_freq_hz = 2.0e9;      // the paper's Xeon E5-2650
  DispatchMode mode = DispatchMode::kSpray;
  u32 rx_batch = 32;                // packets polled per iteration
  u32 foreign_ring_capacity = 4096; // connection-packet descriptor ring
  /// Driver-to-worker rx descriptor ring depth (power of two).
  u32 rx_ring_capacity = 4096;
  /// What the rx boundary does when a worker's ring backs up. The mesh
  /// (connection-packet) rings never drop regardless of policy: engine-side
  /// rejections are staged and retried (the lossless-redirect invariant,
  /// DESIGN.md §10).
  OverloadPolicy overload_policy = OverloadPolicy::kDropRegularFirst;
  /// Occupancy fraction of rx_ring_capacity above which kDropRegularFirst
  /// sheds regular packets; the remainder is connection-packet headroom.
  double rx_shed_watermark = 0.75;
  /// Immediate same-flush re-offers after a mesh-ring rejection before the
  /// remainder is parked for the next iteration's retry (bounded spin).
  u32 transfer_retry_spin = 1;
  /// Fault injection for the transfer path (tests/benches; see above).
  TransferFaultConfig transfer_fault;
  /// Period of the per-core NF housekeeping callback (0 disables).
  Time housekeeping_interval = 10 * kMillisecond;
  /// Runtime telemetry (src/telemetry/): per-core sharded counters and
  /// histograms for workers, engines and NFs. Hot-path cost is a plain
  /// store to a core-private cache line. false keeps only the always-live
  /// engine (CoreStats) and shed counts; other handles become no-ops.
  bool telemetry = true;
  /// Per-hop latency counters for service chains ("chain.h<i>.<nf>.ns"):
  /// one extra clock read per hop per batch, so off by default (per-hop
  /// packet/drop counters are plain telemetry stores and stay on whenever
  /// telemetry is). The chain bench turns this on to report ns/packet/hop.
  bool chain_hop_timing = false;
  /// Sampled per-flow sequence tracking that measures spray-induced
  /// reordering at the tx boundary (bounded to
  /// telemetry::ReorderObservatory::kSlots flows). Off by default: it adds
  /// a driver-side stamp and a tx-side check per packet.
  bool reorder_observatory = false;
  /// Runtime elephant/mice classification with Flow-Director pinning and
  /// queue-depth-aware steering (threaded executor only; see above).
  AdaptiveSprayConfig adaptive;
  /// Live flow-record export: per-core single-writer accounting harvested
  /// on the driver tick and streamed as JSON lines (threaded executor
  /// only; DESIGN.md §13). Off by default.
  telemetry::FlowExportConfig flow_export;
  /// Sampled packet-path tracing (1-in-2^N stage latencies; requires
  /// `telemetry`). Off by default.
  telemetry::TraceConfig trace;
  /// How cores share flow state (DESIGN.md §14): the paper's writing
  /// partition (default) or state-compute replication. Executors build
  /// their table topology and engine hooks from this.
  state::StateStrategyConfig state;
  /// Flow-state lifecycle: idle aging sweep + segmented table growth.
  LifecycleConfig lifecycle;
  CostModel costs;
};

}  // namespace sprayer::core
