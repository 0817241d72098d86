// The flow-state API exposed to NFs — exactly the paper's Table 2:
//
//   insert_local_flow(flow_id)   insert entry in local table
//   remove_local_flow(flow_id)   remove entry from local table
//   get_local_flow(flow_id)      modifiable entry from local table
//   get_flow(flow_id)            const entry from its designated core
//   get_flows(flow_ids...)       batched get_flow (the "optimized version")
//
// The API is the data plane of whichever state strategy (state/strategy.hpp,
// DESIGN.md §14) the middlebox was built with; it branches inline on the
// strategy kind, never through a virtual call:
//
//   * writing-partition — inserts/removes/mutations must happen on the
//     flow's designated core (*enforced*: a violation throws); reads reach
//     into the owner's table lock-free.
//   * replication — the same designated-core discipline for writes (the
//     designated core is the replication sequencer), but every mutation is
//     also logged for sync-frame broadcast, and every read is served from
//     the local replica — no cross-core table access on the regular path.
//
// Under both, every write to a flow's state happens on its designated core.
//
// Every call charges its modeled CPU cost to the calling core.
//
// Lifecycle (DESIGN.md §15): the API maintains each entry's inline
// `last_seen` stamp — writes and local lookups touch it outright, read
// paths touch it at a coarse granularity to avoid cache-line ping-pong on
// remote tables — and sweep_idle() drives the table's cursor-bounded group
// sweep, gating expiry on owns_flow_events() so replication replicas, which
// hold ALL flows, expire each flow exactly once, on its designated core.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/relaxed.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "core/config.hpp"
#include "core/core_picker.hpp"
#include "core/flow_table.hpp"
#include "state/view.hpp"

namespace sprayer::core {

/// Observed flow-state access pattern, split by handler context — the
/// instrumentation behind the Table 1 reproduction ("R/RW at every packet
/// vs. at flow events").
struct FlowAccessStats {
  u64 reads_in_regular = 0;    // get_flow/get_flows from regular_packets
  u64 reads_in_connection = 0;
  u64 writes_in_regular = 0;   // insert/remove/get_local from regular_packets
  u64 writes_in_connection = 0;

  void merge(const FlowAccessStats& o) noexcept {
    reads_in_regular += o.reads_in_regular;
    reads_in_connection += o.reads_in_connection;
    writes_in_regular += o.writes_in_regular;
    writes_in_connection += o.writes_in_connection;
  }
};

/// Per-strategy access counters (single-writer cells; telemetry gauges may
/// read them while workers run).
struct StrategyCounters {
  RelaxedU64 remote_reads;          // writing-partition: cross-core lookups
  RelaxedU64 remote_reads_avoided;  // replication: foreign-designated flows
                                    // served from the local replica
};

/// One sweep_idle() call's worth of work, for housekeeping telemetry.
struct SweepStats {
  u32 groups = 0;   // tag groups scanned this call
  u32 expired = 0;  // entries handed to on_expire
};

class FlowStateApi {
 public:
  using FlowHash = FlowTable::FlowHash;

  /// Read-path stamp refresh granularity: a flow's last_seen is only
  /// re-stored by a read when it is at least this stale, so a hot remotely-
  /// read flow costs its owner at most one stamp store per millisecond
  /// instead of one cache-line invalidation per packet.
  static constexpr Time kTouchGranularity = kMillisecond;

  FlowStateApi(CoreId core, std::span<FlowTable* const> tables,
               const CorePicker& picker, const CostModel& costs,
               Cycles& cycle_sink) noexcept
      : core_(core),
        tables_(tables.begin(), tables.end()),
        picker_(picker),
        costs_(costs),
        cycles_(cycle_sink) {}

  /// Attach the strategy view (executors call this right after building
  /// contexts; the default-constructed view is plain writing partition, so
  /// standalone uses — unit tests driving NfContext directly — need not).
  void configure_strategy(const state::CoreStateView& view) noexcept {
    strat_ = view;
  }
  [[nodiscard]] const char* strategy_name() const noexcept {
    return state::to_string(strat_.kind);
  }

  [[nodiscard]] CoreId core() const noexcept { return core_; }
  [[nodiscard]] u32 num_cores() const noexcept {
    return static_cast<u32>(tables_.size());
  }

  /// Designated core of a flow (symmetric: both directions agree). The
  /// definition is strategy-independent — it names the redirect target
  /// under writing partition, the sequencer under replication, and the
  /// housekeeping owner everywhere.
  [[nodiscard]] CoreId designated_core(
      const net::FiveTuple& flow_id) const noexcept {
    return picker_.pick(flow_id);
  }

  /// Same, from the flow's memoized symmetric hash (Packet::flow_hash()).
  [[nodiscard]] CoreId designated_core(FlowHash hash) const noexcept {
    return picker_.pick_hash(hash);
  }

  /// True when this core owns the flow's lifecycle events: the only core
  /// that may insert or remove it, and the one whose housekeeping sweep
  /// expires it (so replication replicas, which hold ALL flows, expire each
  /// flow exactly once instead of once per core).
  [[nodiscard]] bool owns_flow_events(FlowHash hash) const noexcept {
    return designated_core(hash) == core_;
  }
  [[nodiscard]] bool owns_flow_events(
      const net::FiveTuple& flow_id) const noexcept {
    return designated_core(flow_id) == core_;
  }

  /// Insert a flow entry; returns the zeroed entry (or the existing one),
  /// nullptr when the table is full. This core must be the flow's
  /// designated core (violations throw, naming the active strategy and
  /// core).
  [[nodiscard]] void* insert_local_flow(const net::FiveTuple& flow_id) {
    return insert_local_flow(flow_id, FlowTable::hash_of(flow_id));
  }
  [[nodiscard]] void* insert_local_flow(const net::FiveTuple& flow_id,
                                        FlowHash hash) {
    SPRAYER_CHECK_MSG(owns_flow_events(hash),
                      write_violation("insert_local_flow", flow_id, hash));
    cycles_ += costs_.flow_insert;
    count_write();
    const u32 size_before = local().size();
    void* e = local().insert(flow_id, hash);
    if (e == nullptr) return nullptr;
    if (replicating()) {
      strat_.log->record_upsert(flow_id, hash, strat_.hop,
                                /*created=*/local().size() > size_before);
    }
    FlowTable::touch(e, now_);
    return e;
  }

  /// Remove a flow entry.
  bool remove_local_flow(const net::FiveTuple& flow_id) {
    return remove_local_flow(flow_id, FlowTable::hash_of(flow_id));
  }
  bool remove_local_flow(const net::FiveTuple& flow_id, FlowHash hash) {
    SPRAYER_CHECK_MSG(owns_flow_events(hash),
                      write_violation("remove_local_flow", flow_id, hash));
    cycles_ += costs_.flow_remove;
    count_write();
    const bool removed = local().remove(flow_id, hash);
    if (removed && replicating()) {
      strat_.log->record_remove(flow_id, hash, strat_.hop);
    }
    return removed;
  }

  /// Modifiable entry from the local table; nullptr if absent. Under
  /// replication the mutation is logged: its final bytes ship to every
  /// replica at the next sync harvest.
  [[nodiscard]] void* get_local_flow(const net::FiveTuple& flow_id) {
    return get_local_flow(flow_id, FlowTable::hash_of(flow_id));
  }
  [[nodiscard]] void* get_local_flow(const net::FiveTuple& flow_id,
                                     FlowHash hash) {
    cycles_ += costs_.flow_lookup_local;
    count_write();  // returns a mutable entry: counted as write access
    void* e = local().find_local(flow_id, hash);
    if (e == nullptr) return nullptr;
    if (replicating()) strat_.log->record_upsert(flow_id, hash, strat_.hop);
    FlowTable::touch(e, now_);
    return e;
  }

  /// Read-only entry lookup; nullptr if absent. Writing partition reads the
  /// designated core's table (the constness is the paper's contract: only
  /// the designated core may write); replication reads the local replica.
  [[nodiscard]] const void* get_flow(const net::FiveTuple& flow_id) {
    return get_flow(flow_id, FlowTable::hash_of(flow_id));
  }
  [[nodiscard]] const void* get_flow(const net::FiveTuple& flow_id,
                                     FlowHash hash) {
    count_read();
    const void* e = read_table(hash).find_remote(flow_id, hash);
    if (e != nullptr) FlowTable::touch_if_stale(e, now_, kTouchGranularity);
    return e;
  }

  /// Batched get_flow: amortizes hashing and pipelines the tables' cache
  /// misses with software prefetch (FlowTable::find_batch), so each lookup
  /// is charged the cheaper batched cost. out[i] is nullptr for absent
  /// flows. `hashes[i]` must be hash_of(flow_ids[i]) — typically the
  /// packets' memoized rx-descriptor hashes.
  void get_flows(std::span<const net::FiveTuple> flow_ids,
                 std::span<const FlowHash> hashes, std::span<const void*> out);

  /// Convenience overload that hashes the keys itself.
  void get_flows(std::span<const net::FiveTuple> flow_ids,
                 std::span<const void*> out);

  /// Snapshot-consistent copy of a (possibly remote) flow entry.
  [[nodiscard]] bool read_flow(const net::FiveTuple& flow_id,
                               std::span<u8> out) {
    return read_flow(flow_id, FlowTable::hash_of(flow_id), out);
  }
  [[nodiscard]] bool read_flow(const net::FiveTuple& flow_id, FlowHash hash,
                               std::span<u8> out) {
    return read_table(hash).read_consistent(flow_id, hash, out);
  }

  /// This core's table: the owned shard (writing partition) or the full
  /// replica (replication).
  [[nodiscard]] FlowTable& local() noexcept { return *tables_[core_]; }
  [[nodiscard]] const FlowTable& table(CoreId c) const noexcept {
    return *tables_[c];
  }

  /// Framework side: the engine advances the API's clock before invoking a
  /// handler; every stamp touch and expiry decision uses this value.
  void set_now(Time now) noexcept { now_ = now; }
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// One bounded increment of the idle-aging sweep over this core's local
  /// table (the owned shard or the full replica). Scans up to `max_groups`
  /// tag groups, collects entries for which `pred(key, entry, last_seen)`
  /// returns true AND this core owns the flow's lifecycle events, then
  /// invokes `on_expire(key, hash)` for each — after the scan, so the hook
  /// may freely mutate the table (remove the flow, its NAT pair, ...). At
  /// most kSweepCandidates expire per call; the rest are caught on the next
  /// rotation.
  static constexpr u32 kSweepCandidates = 256;
  template <typename Pred, typename Expire>
  SweepStats sweep_idle(u32 max_groups, Pred&& pred, Expire&& on_expire) {
    struct Candidate {
      net::FiveTuple key;
      FlowHash hash;
    };
    std::array<Candidate, kSweepCandidates> cand;
    u32 n = 0;
    SweepStats st;
    st.groups = local().sweep_groups(
        sweep_cursor_, max_groups,
        [&](const net::FiveTuple& key, void* entry, Time last_seen) {
          if (n >= cand.size()) return;
          if (!pred(key, static_cast<const void*>(entry), last_seen)) return;
          // Hash only the expiry candidates (the Toeplitz LUT is too dear
          // to run per live slot), then gate on event ownership so tables
          // holding all flows expire each one exactly once system-wide.
          const FlowHash h = FlowTable::hash_of(key);
          if (!owns_flow_events(h)) return;
          cand[n++] = Candidate{key, h};
        });
    for (u32 i = 0; i < n; ++i) on_expire(cand[i].key, cand[i].hash);
    st.expired = n;
    return st;
  }

  /// Framework side: set by the engine before invoking a handler.
  void set_in_connection_handler(bool v) noexcept { in_conn_ = v; }
  [[nodiscard]] const FlowAccessStats& access_stats() const noexcept {
    return access_;
  }
  [[nodiscard]] const StrategyCounters& strategy_counters() const noexcept {
    return counters_;
  }

 private:
  [[nodiscard]] bool replicating() const noexcept {
    return strat_.kind == state::StateStrategyKind::kReplication;
  }

  /// The table a read of `hash` is served from, charging its modeled cost:
  /// the designated core's (writing partition) or the local replica
  /// (replication).
  [[nodiscard]] FlowTable& read_table(FlowHash hash) noexcept {
    const CoreId dest = designated_core(hash);
    if (replicating() || dest == core_) {
      cycles_ += costs_.flow_lookup_local;
      if (dest != core_) ++counters_.remote_reads_avoided;
      return local();
    }
    cycles_ += costs_.flow_lookup_remote;
    ++counters_.remote_reads;
    return *tables_[dest];
  }

  /// Satellite of DESIGN.md §14: violations name the active strategy and
  /// the cores involved, so a replication misconfiguration is not
  /// misreported as a "writing-partition violation".
  [[nodiscard]] std::string write_violation(const char* op,
                                            const net::FiveTuple& flow_id,
                                            FlowHash hash) const {
    return std::string("state[") + strategy_name() + "] violation: " + op +
           " on core " + std::to_string(core_) + ", but core " +
           std::to_string(designated_core(hash)) +
           " is the designated core for " + flow_id.to_string();
  }

  void count_read() noexcept {
    (in_conn_ ? access_.reads_in_connection : access_.reads_in_regular)++;
  }
  void count_write() noexcept {
    (in_conn_ ? access_.writes_in_connection : access_.writes_in_regular)++;
  }

  CoreId core_;
  std::vector<FlowTable*> tables_;
  const CorePicker& picker_;
  const CostModel& costs_;
  Cycles& cycles_;
  Time now_ = 0;
  u64 sweep_cursor_ = 0;
  bool in_conn_ = false;
  state::CoreStateView strat_;
  FlowAccessStats access_;
  StrategyCounters counters_;
};

/// The one definition of the designated-core port-claim rule, shared by
/// NAT's allocator and anything else that must pick a translated tuple
/// landing on a particular core: claim a source port for `probe` such that
/// the translated flow's *return* direction hashes to designated core
/// `target`. Routing NAT through this helper (instead of a hand-rolled
/// predicate next to the PortPool) is what keeps "designated" from
/// drifting between the state strategies and the port allocator — under
/// replication every replica must derive the same port for the same flow
/// or state diverges. `pool` needs
/// claim_matching(pred) (nf::PortPool's shape; templated so core/ does not
/// depend on nf/).
template <typename Pool>
[[nodiscard]] u16 claim_port_for_designated(Pool& pool, net::FiveTuple probe,
                                            const FlowStateApi& flows,
                                            CoreId target) {
  return pool.claim_matching([&probe, &flows, target](u16 candidate) noexcept {
    probe.src_port = candidate;
    return flows.designated_core(probe.reversed()) == target;
  });
}

}  // namespace sprayer::core
