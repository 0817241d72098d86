// Per-core Sprayer engine (paper Figure 4).
//
// Pure framework logic — classification, core picking, connection-packet
// redirection, batched NF dispatch, verdict handling, cycle accounting —
// with no knowledge of how it is driven. The simulator (core/middlebox.hpp)
// and the threaded executor (core/threaded.hpp) both drive this class
// through the ICorePort services interface. Its counts are cells of its
// core's shard of the middlebox's metrics registry (EngineMetrics).
#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/relaxed.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "core/chain.hpp"
#include "core/config.hpp"
#include "core/core_picker.hpp"
#include "core/flow_table.hpp"
#include "core/nf.hpp"
#include "runtime/batch.hpp"
#include "state/sync.hpp"
#include "telemetry/metrics.hpp"

namespace sprayer::telemetry {
class FlowRecorder;  // telemetry/flow_export.hpp
}

namespace sprayer::core {

class HeavyHitterSketch;  // core/adaptive_spray.hpp

/// Services the execution platform provides to one core. Both move whole
/// batches (§3.3: descriptors move "in batches"): one ring doorbell per
/// transfer, one sink invocation per verdict batch.
class ICorePort {
 public:
  virtual ~ICorePort() = default;

  /// Hand a group of connection-packet descriptors to one core's ring;
  /// returns how many were accepted (a prefix — the rest hit a full ring
  /// and the engine parks them for a retry).
  virtual u32 transfer_batch(CoreId dest,
                             std::span<net::Packet* const> pkts) = 0;

  /// Transmit a verdict batch (egress port derived from ingress).
  virtual void transmit_batch(std::span<net::Packet* const> pkts) = 0;
};

/// One core's engine counts, read from the always-live registry cells named
/// in the comments (one per core shard, written only by that core's engine;
/// DESIGN.md §9). Readable from any thread while workers run: untorn,
/// loosely consistent across fields, exact at quiescence.
struct CoreStats {
  RelaxedU64 rx_packets;            // engine.rx_packets (NIC queue polls)
  RelaxedU64 regular_packets;       // engine.regular_packets
  RelaxedU64 conn_local;            // engine.conn_local (already on core)
  RelaxedU64 conn_transferred_out;  // engine.transfer_flush_packets
  RelaxedU64 conn_foreign_in;       // worker.foreign_packets (via the mesh)
  RelaxedU64 transfer_drops;        // engine.transfer_flush_drops (teardown)
  RelaxedU64 transfer_retries;      // engine.transfer_retry_packets (offers)
  RelaxedU64 nf_drops;              // engine.nf_drops (NF verdict: drop)
  RelaxedU64 tx_packets;            // engine.tx_packets
  RelaxedU64 busy_cycles;           // engine.busy_cycles
};

/// The engines' registry handles (each engine writes the shard of its core
/// id): one per CoreStats field, always registered, plus extras that are
/// no-op handles unless SprayerConfig::telemetry is on.
struct EngineMetrics {
  telemetry::Counter rx_packets;
  telemetry::Counter regular_packets;
  telemetry::Counter conn_local;
  telemetry::Counter conn_transferred_out;
  telemetry::Counter conn_foreign_in;
  telemetry::Counter transfer_drops;
  telemetry::Counter transfer_retries;
  telemetry::Counter nf_drops;
  telemetry::Counter tx_packets;
  telemetry::Counter busy_cycles;
  telemetry::Counter flush_calls;     // non-empty transfer-stage flushes
  telemetry::Counter pending_hwm;     // kGaugeMax: parked-descriptor backlog
  telemetry::Histogram retry_rounds;  // flush rounds a parked cohort needed

  /// Register the counts (and, with `extras`, the extras) in `reg` before
  /// its finalize().
  [[nodiscard]] static EngineMetrics register_in(
      telemetry::MetricsRegistry& reg, bool extras);
  /// The counts summed over shards [first_shard, first_shard + shards).
  [[nodiscard]] CoreStats read(const telemetry::MetricsRegistry& reg,
                               u32 first_shard, u32 shards) const noexcept;
};

class SprayerCore {
 public:
  /// `hop_ctxs` holds one NfContext per chain hop, all for core `id`; the
  /// span (and its contexts) must outlive the engine. `stateless` disables
  /// connection-packet redirection (true only when every hop is stateless).
  /// The engine counts through `metrics` into shard `id` of their registry.
  SprayerCore(CoreId id, const SprayerConfig& cfg, bool stateless,
              DynamicChain& chain, const CorePicker& picker,
              std::span<NfContext* const> hop_ctxs, ICorePort& port,
              const EngineMetrics& metrics)
      : id_(id),
        cfg_(cfg),
        stateless_(stateless),
        chain_(chain),
        picker_(picker),
        hop_ctxs_(hop_ctxs),
        port_(port),
        m_(metrics),
        transfer_stage_(cfg.num_cores),
        transfer_pending_(cfg.num_cores) {
    SPRAYER_CHECK_MSG(cfg.num_cores <= 64,
                      "transfer dirty mask covers at most 64 cores");
    SPRAYER_CHECK_MSG(hop_ctxs_.size() == chain_.num_hops(),
                      "one NfContext per chain hop");
  }

  [[nodiscard]] CoreId id() const noexcept { return id_; }

  /// Adaptive spraying: this core's heavy-hitter sketch, fed one update per
  /// polled rx packet with a memoized flow hash (single-writer: only this
  /// engine's worker calls update). Null (default) skips the accounting.
  void set_flow_sketch(HeavyHitterSketch* sketch) noexcept {
    sketch_ = sketch;
  }

  /// Flow export: this core's flow-record table, fed one account() per
  /// polled rx packet (single-writer, same contract as the sketch). Foreign
  /// batches are NOT re-accounted — a transferred connection packet was
  /// already counted at its original rx poll. Null (default) skips it.
  void set_flow_recorder(telemetry::FlowRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  /// Replication hook: this core's sync runtime. When set, the engine
  /// harvests the op log into sync frames after every dispatch round and
  /// broadcasts them over the mesh (counted in conn_transferred_out — the
  /// frames ride the same staging/doorbell/park machinery as redirected
  /// connection packets), and peels received sync frames out of foreign
  /// batches and replays them. Null (default) disables all of it.
  void set_state_runtime(state::SyncRuntime* rt) noexcept { sync_ = rt; }

  /// Periodic maintenance, called by the executor on this core's
  /// housekeeping tick: every hop's housekeeping (lifecycle sweep, NAT
  /// TIME_WAIT reaping), then a replication harvest + broadcast (the
  /// expiries would otherwise sit in the op log until the next packet),
  /// then the hops' cycles into busy_cycles.
  void housekeeping(Time now);

  /// Process one batch polled from this core's NIC rx queue. Returns the
  /// cycles consumed. `now` is the batch start time (forwarded to the NF).
  Cycles process_rx(runtime::PacketBatch& batch, Time now);

  /// Process one batch of connection packets received from other cores'
  /// rings. Returns the cycles consumed.
  Cycles process_foreign(runtime::PacketBatch& batch, Time now);

  /// Flush every per-destination transfer staging buffer (one
  /// transfer_batch doorbell per non-empty destination). process_rx()
  /// already calls this at batch end; the executor also invokes it when a
  /// worker goes idle so staged descriptors can never strand. Descriptors a
  /// full ring rejects are parked and re-offered on the next flush — the
  /// lossless-redirect invariant: a connection packet accepted at the rx
  /// boundary is never dropped on its way to the designated core.
  void flush_transfers();

  /// Connection-packet descriptors currently parked awaiting a mesh-ring
  /// retry (staged-but-unflushed descriptors are not counted). Readable
  /// from any thread; the executor's wait_idle() polls it.
  [[nodiscard]] u32 pending_transfers() const noexcept {
    return pending_count_.load(std::memory_order_relaxed);
  }

  /// True while a descriptor sits in a staging buffer, between its
  /// process_rx() and the flush at that batch's end. Worker thread only.
  [[nodiscard]] bool transfers_staged() const noexcept {
    return transfer_dirty_ != 0;
  }

  /// Teardown only: free every staged and parked descriptor (counted in
  /// transfer_drops — the one place the lossless path may still
  /// lose packets, when the executor is stopped mid-overload). Returns how
  /// many were freed. Not thread-safe against a running worker.
  u32 release_stranded();

 private:
  /// Per-destination overflow queue for descriptors a full mesh ring
  /// rejected: contiguous (so a whole backlog re-offers as one span), FIFO
  /// (retries precede newly staged packets — connection-packet order within
  /// a flow is what makes SYN-before-FIN hold).
  struct PendingQueue {
    std::vector<net::Packet*> buf;
    std::size_t head = 0;
    u32 rounds = 0;  // flush rounds this backlog has survived

    [[nodiscard]] u32 size() const noexcept {
      return static_cast<u32>(buf.size() - head);
    }
    [[nodiscard]] std::span<net::Packet* const> view() const noexcept {
      return {buf.data() + head, buf.size() - head};
    }
    void consume(u32 n) noexcept {
      head += n;
      if (head == buf.size()) {
        buf.clear();
        head = 0;
      }
    }
    void append(std::span<net::Packet* const> pkts) {
      buf.insert(buf.end(), pkts.begin(), pkts.end());
    }
  };

  /// Run the whole chain over a batch (run-to-completion), free drops,
  /// transmit survivors.
  Cycles dispatch(runtime::PacketBatch& batch, Time now, bool connection);

  /// Flush one destination's staging buffer (parked backlog first); parks
  /// whatever the destination ring rejects after the bounded spin.
  void flush_transfer_stage(CoreId dest);

  /// Offer `pkts` to `dest` with up to transfer_retry_spin immediate
  /// re-offers; returns how many were accepted (prefix).
  u32 offer_with_spin(CoreId dest, std::span<net::Packet* const> pkts,
                      bool is_retry);

  /// Replication: serialize the pending op log and stage one sync frame
  /// per chunk per peer core. All-or-nothing: if the pool can't supply
  /// every frame, nothing is staged and the log is kept for the next
  /// flush (a partial broadcast would diverge replicas). Returns the
  /// modeled cycles spent.
  Cycles harvest_state_sync();

  /// Replication: replay and remove the sync frames of a foreign batch
  /// (freeing them), leaving only real connection packets. Returns the
  /// modeled cycles of the replayed ops.
  Cycles absorb_sync_frames(runtime::PacketBatch& batch);

  void set_pending_count(u32 n) noexcept {
    pending_count_.store(n, std::memory_order_relaxed);
    if (n > 0) m_.pending_hwm.record_max(id_, n);
  }

  /// Count `cycles` as busy time and pass them through.
  Cycles busy(Cycles cycles) noexcept;

  CoreId id_;
  const SprayerConfig& cfg_;
  bool stateless_;
  DynamicChain& chain_;
  const CorePicker& picker_;
  std::span<NfContext* const> hop_ctxs_;
  ICorePort& port_;
  EngineMetrics m_;
  HeavyHitterSketch* sketch_ = nullptr;
  telemetry::FlowRecorder* recorder_ = nullptr;
  state::SyncRuntime* sync_ = nullptr;
  // Last pool seen on the rx/foreign path — sync frames borrow from it.
  net::PacketPool* sync_pool_ = nullptr;
  std::vector<net::Packet*> sync_frame_scratch_;
  // Per-engine chain scratch (verdict sheet + shared batch metadata): the
  // chain object itself is shared across cores and holds no per-batch state.
  ChainScratch scratch_;
  // Per-destination connection-packet staging: accumulated during
  // process_rx(), flushed as one bulk ring operation per destination.
  // transfer_dirty_ bit d set <=> transfer_stage_[d] is non-empty, so a
  // flush touches only destinations that actually staged packets.
  std::vector<runtime::PacketBatch> transfer_stage_;
  u64 transfer_dirty_ = 0;
  // Parked descriptors per destination (mesh ring was full at flush time).
  // The total is mirrored in pending_count_ for cross-thread idle checks.
  std::vector<PendingQueue> transfer_pending_;
  std::atomic<u32> pending_count_{0};
  // Dropped-packet accumulator reused across dispatch() calls (survivors
  // stay in the caller's batch — chain hops compact in place).
  runtime::PacketBatch drop_stage_;
};

}  // namespace sprayer::core
