// The Sprayer NF programming model (paper §3.4).
//
// An NF implements two packet handlers:
//   * connection_packets() — receives every SYN/FIN/RST of flows whose
//     designated core is this core (from the local queue or transferred
//     from other cores); the only place flow state may be written;
//   * regular_packets() — receives everything else, wherever it landed;
//     may read any flow state but writes none.
// plus an init() that sizes the flow table / declares itself stateless.
#pragma once

#include <array>
#include <bitset>

#include "common/check.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "core/flow_state.hpp"
#include "hash/designated.hpp"
#include "runtime/batch.hpp"

namespace sprayer::telemetry {
class MetricsRegistry;
}  // namespace sprayer::telemetry

namespace sprayer::core {

/// Filled in by the NF's init(); consumed by the framework when it builds
/// the per-core machinery.
struct NfInitConfig {
  u32 flow_table_capacity = 1u << 16;  // must be a power of two
  u32 flow_entry_size = 16;            // bytes per flow entry
  /// Stateless NFs disable flow tables and connection-packet redirection
  /// entirely: every packet goes to regular_packets() on its arrival core.
  bool stateless = false;
  /// Set by the framework *before* calling init() when runtime telemetry is
  /// on: NFs register their metrics here (the framework finalizes it after
  /// init() returns). Null → telemetry off or a non-telemetry executor; an
  /// NF then falls back to a private registry so its counters keep working.
  telemetry::MetricsRegistry* registry = nullptr;
  /// Idle timeout for this NF's flow entries, driven by the lifecycle sweep
  /// (DESIGN.md §15): a flow whose last_seen stamp is at least this old is
  /// offered to flow_expired()/on_expire() on its designated core. NFs set
  /// their protocol-appropriate default in init(); 0 disables idle aging
  /// for the hop (FIN/RST teardown still applies). The framework may
  /// override it afterwards (LifecycleConfig::idle_timeout).
  Time flow_idle_timeout = 0;
};

/// Per-core execution context handed to packet handlers.
class NfContext {
 public:
  NfContext(CoreId core, std::span<FlowTable* const> tables,
            const CorePicker& picker, const CostModel& costs) noexcept
      : core_(core),
        num_cores_(static_cast<u32>(tables.size())),
        api_(core, tables, picker, costs, consumed_) {}

  [[nodiscard]] CoreId core() const noexcept { return core_; }
  [[nodiscard]] u32 num_cores() const noexcept { return num_cores_; }
  [[nodiscard]] FlowStateApi& flows() noexcept { return api_; }

  /// Attach the state-strategy view for this core/hop (executors call this
  /// once, right after construction; defaults to plain writing partition).
  void configure_state(const state::CoreStateView& view) {
    api_.configure_strategy(view);
  }

  /// Account `c` cycles of NF work for the current packet/batch (the
  /// simulator turns this into time; the threaded executor busy-loops).
  void consume_cycles(Cycles c) noexcept { consumed_ += c; }

  /// Simulated time at which the current batch started processing.
  [[nodiscard]] Time now() const noexcept { return now_; }

  // --- framework side -------------------------------------------------
  void set_now(Time t) noexcept {
    now_ = t;
    api_.set_now(t);  // stamps and expiry decisions share the batch clock
  }
  [[nodiscard]] Cycles drain_consumed() noexcept {
    const Cycles c = consumed_;
    consumed_ = 0;
    return c;
  }

 private:
  CoreId core_;
  u32 num_cores_;
  Cycles consumed_ = 0;  // must precede api_: FlowStateApi holds a reference
  FlowStateApi api_;
  Time now_ = 0;
};

/// Per-invocation verdict sheet: handlers mark packets to drop by batch
/// index; everything else is forwarded.
class BatchVerdicts {
 public:
  void reset(u32 batch_size) noexcept {
    size_ = batch_size;
    drops_.reset();
  }
  void drop(u32 index) noexcept {
    SPRAYER_DCHECK(index < size_);
    drops_.set(index);
  }
  [[nodiscard]] bool dropped(u32 index) const noexcept {
    return drops_.test(index);
  }
  /// True when at least one packet was marked; a hop with no drops skips
  /// the compaction pass entirely.
  [[nodiscard]] bool any() const noexcept { return drops_.any(); }

 private:
  std::bitset<runtime::kMaxBatchSize> drops_;
  u32 size_ = 0;
};

/// Per-batch packet metadata shared across service-chain hops: the
/// five-tuple, its canonical form, and the memoized symmetric RSS hash.
/// The chain resets it at the start of every pass; the first hop that
/// reads it builds it (ensure_built / ensure_canonical), so hops that never
/// look at tuples or hashes never pay for it. The chain keeps it aligned
/// through compaction (move) and refreshes it once after a tuple-rewriting
/// hop. Entries are only valid where is_tcp[i] != 0.
struct BatchMeta {
  std::array<net::FiveTuple, runtime::kMaxBatchSize> tuple;
  std::array<net::FiveTuple, runtime::kMaxBatchSize> canon;
  std::array<FlowTable::FlowHash, runtime::kMaxBatchSize> hash;
  std::array<u8, runtime::kMaxBatchSize> is_tcp;
  bool built = false;        // tuple/hash/is_tcp describe the current batch
  bool canon_valid = false;  // canon describes the current batch

  /// Forget the previous batch (start of every chain pass).
  void reset() noexcept {
    built = false;
    canon_valid = false;
  }

  /// Derive tuple + memoized hash for every TCP packet of `batch` (others
  /// are marked and skipped by hops), unless this pass already did.
  void ensure_built(runtime::PacketBatch& batch) noexcept {
    if (!built) derive(batch, /*rehash=*/false);
  }

  /// ensure_built(), plus the canonical-tuple array.
  void ensure_canonical(runtime::PacketBatch& batch) noexcept {
    ensure_built(batch);
    if (canon_valid) return;
    for (u32 i = 0; i < batch.size(); ++i) {
      if (is_tcp[i]) canon[i] = tuple[i].canonical();
    }
    canon_valid = true;
  }

  /// Re-derive after a tuple-rewriting hop (NAT): recompute each survivor's
  /// tuple and hash and restore the packet's memoized rx-descriptor hash so
  /// downstream hops — and post-chain consumers — read a valid memo again.
  void refresh(runtime::PacketBatch& batch) noexcept {
    derive(batch, /*rehash=*/true);
  }

  /// Compaction hook: relocate slot `from` to `to` (PacketBatch::compact's
  /// on_move callback, keeping the metadata aligned with the survivors).
  void move(u32 from, u32 to) noexcept {
    if (!built) return;
    tuple[to] = tuple[from];
    if (canon_valid) canon[to] = canon[from];
    hash[to] = hash[from];
    is_tcp[to] = is_tcp[from];
  }

 private:
  void derive(runtime::PacketBatch& batch, bool rehash) noexcept {
    for (u32 i = 0; i < batch.size(); ++i) {
      net::Packet* pkt = batch[i];
      if (pkt->is_tcp()) {
        is_tcp[i] = 1;
        tuple[i] = pkt->five_tuple();
        if (rehash) pkt->invalidate_flow_hash();
        hash[i] = hash::packet_flow_hash(*pkt);
      } else {
        is_tcp[i] = 0;
      }
    }
    built = true;
    canon_valid = false;
  }
};

class INetworkFunction {
 public:
  virtual ~INetworkFunction() = default;

  /// Called once before the framework builds flow tables.
  virtual void init(NfInitConfig& cfg, u32 num_cores) {
    (void)cfg;
    (void)num_cores;
  }

  /// SYN/FIN/RST packets of flows designated to this core.
  virtual void connection_packets(runtime::PacketBatch& batch, NfContext& ctx,
                                  BatchVerdicts& verdicts) = 0;

  /// All other packets, on whichever core they arrived. `meta` is the
  /// chain's shared per-batch metadata; call meta.ensure_built(batch) or
  /// meta.ensure_canonical(batch) before reading it, or ignore it.
  virtual void regular_packets(runtime::PacketBatch& batch, BatchMeta& meta,
                               NfContext& ctx, BatchVerdicts& verdicts) = 0;

  /// Periodic per-core maintenance (SprayerConfig::housekeeping_interval):
  /// runs on every core with its own context, so NFs can expire local flow
  /// state (e.g. NAT TIME_WAIT) without violating the writing partition.
  virtual void housekeeping(NfContext& ctx) { (void)ctx; }

  /// Lifecycle hook (DESIGN.md §15): should this entry expire now? Called
  /// from the housekeeping sweep on the flow's designated core, for entries
  /// in this NF's table. The default is plain idle aging against the hop's
  /// idle timeout; NFs with richer per-entry state (NAT's TIME_WAIT
  /// deadline, paired entries) override it. Must not mutate state — return
  /// true and do the teardown in on_expire().
  [[nodiscard]] virtual bool flow_expired(const net::FiveTuple& key,
                                          const void* entry, Time last_seen,
                                          Time idle_timeout, NfContext& ctx) {
    (void)key;
    (void)entry;
    return idle_timeout > 0 && last_seen + idle_timeout <= ctx.now();
  }

  /// Lifecycle hook: tear down one expired flow. Runs on the flow's
  /// designated core, after the sweep's scan pass, so it may freely mutate
  /// the table. Exactly-once per flow system-wide (the sweep gates on event
  /// ownership). NFs holding resources beyond the entry itself — NAT ports,
  /// LB backend counts — override this to release them; the default just
  /// removes the entry (which under replication also ships the remove to
  /// every replica through the sync frames).
  virtual void on_expire(const net::FiveTuple& key, FlowTable::FlowHash hash,
                         NfContext& ctx) {
    ctx.flows().remove_local_flow(key, hash);
  }

  /// True for NFs that rewrite the five-tuple of forwarded packets (NAT):
  /// a chain invalidates and recomputes the memoized RSS hash exactly once
  /// after such a hop so downstream hops keep reading a valid memo.
  [[nodiscard]] virtual bool rewrites_tuple() const noexcept { return false; }

  /// Human-readable name (for reports).
  [[nodiscard]] virtual const char* name() const noexcept { return "nf"; }
};

}  // namespace sprayer::core
