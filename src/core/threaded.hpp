// Threaded execution of the Sprayer framework: the shared per-core
// framework (core/skeleton.hpp: chain, flow tables, contexts, engines) the
// simulator also drives, running on real std::thread workers. What it adds
// is the driver, the rings, the worker loop and the runtime telemetry.
//
// Topology per the paper's architecture (Figure 4):
//   * a driver (any single thread) injects packets through inject() /
//     inject_bulk(), which classify them with the same RSS / Flow Director
//     objects the simulated NIC uses and enqueue descriptors on per-core
//     SPSC rx rings (inject_bulk groups a burst by destination queue and
//     rings each queue's doorbell once);
//   * one worker thread per core polls its rx ring and its foreign rings
//     (a full SPSC mesh — connection-packet descriptors are transferred
//     core-to-core exactly as in the paper, staged per destination and
//     flushed as one bulk ring operation per batch) and runs the NF
//     handlers;
//   * processed packets are handed to a user-supplied sink callback — one
//     call per verdict batch — on worker threads (it must be thread-safe;
//     returning packets to their PacketPool is).
//
// Flow tables are the same seqlock-protected FlowTable: both state
// strategies (DESIGN.md §14) send every flow event to the flow's designated
// core, so each entry has a single writer and cross-core reads need no
// locks (§3.2).
#pragma once

#include <atomic>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/adaptive_spray.hpp"
#include "core/fault.hpp"
#include "core/skeleton.hpp"
#include "nic/flow_director.hpp"
#include "nic/rss.hpp"
#include "runtime/spsc_ring.hpp"
#include "runtime/worker_group.hpp"
#include "telemetry/flow_export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/reorder.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/trace.hpp"

namespace sprayer::core {

class ThreadedMiddlebox final : public MiddleboxSkeleton {
 public:
  /// `tx` receives every forwarded verdict batch, on worker threads.
  using TxBatchHandler = std::function<void(std::span<net::Packet* const>)>;
  /// Legacy per-packet sink; wrapped into a TxBatchHandler.
  using TxHandler = std::function<void(net::Packet*)>;

  /// Run a service chain (the chain and its NFs must outlive the middlebox;
  /// the workers run every hop on the arrival core, run-to-completion).
  ThreadedMiddlebox(SprayerConfig cfg, DynamicChain& chain,
                    TxBatchHandler tx);
  /// Single-NF convenience: wraps the NF in an owned one-hop DynamicChain.
  ThreadedMiddlebox(SprayerConfig cfg, INetworkFunction& nf,
                    TxBatchHandler tx);
  ThreadedMiddlebox(SprayerConfig cfg, INetworkFunction& nf, TxHandler tx);
  ~ThreadedMiddlebox();

  /// Start the worker threads.
  void start();
  /// Drain and stop. Packets still queued in rings are freed.
  void stop();

  /// Dispatch one packet: inject_bulk() with a burst of one (single-
  /// producer: call from one thread). Admission follows
  /// SprayerConfig::overload_policy: under kDropRegularFirst a regular
  /// packet is shed once the target ring crosses the watermark while
  /// connection packets may use the reserved headroom; under kBlock the call
  /// spins until the ring has room (workers must be start()ed). Returns
  /// false — and frees the packet — when it is shed or the ring is full.
  bool inject(net::Packet* pkt);

  /// Dispatch a burst (single-producer): classifies every packet, groups
  /// them by destination queue, and enqueues each group with one bulk ring
  /// operation when the whole group fits under the watermark (falling back
  /// to per-packet class-aware admission when it does not). Returns how
  /// many were accepted; the rest are shed per the overload policy and
  /// freed (counted in rx_ring_drops()).
  u32 inject_bulk(std::span<net::Packet* const> pkts);

  /// Block until all rings are empty and workers are idle.
  void wait_idle() const;

  /// Packets shed or dropped at the rx boundary (inject/inject_bulk).
  [[nodiscard]] u64 rx_ring_drops() const noexcept {
    return shed_regular() + shed_conn();
  }
  /// Class-split of rx_ring_drops(): regular packets shed at the rx
  /// boundary vs connection packets dropped there (the latter only when
  /// even the reserved headroom is exhausted, or under kDropNew): the
  /// driver shard's driver.shed_regular / driver.shed_conn cells.
  [[nodiscard]] u64 shed_regular() const noexcept {
    return registry_.read(tm_.shed_regular, driver_shard());
  }
  [[nodiscard]] u64 shed_conn() const noexcept {
    return registry_.read(tm_.shed_conn, driver_shard());
  }
  /// transfer_batch calls the fault-injection schedule truncated (0 when
  /// SprayerConfig::transfer_fault is disabled).
  [[nodiscard]] u64 forced_rejections() const noexcept {
    u64 n = 0;
    for (const auto& p : fault_ports_) n += p->forced_rejections();
    return n;
  }

  // --- runtime telemetry ------------------------------------------------
  /// The metrics() shard the injection driver writes.
  [[nodiscard]] u32 driver_shard() const noexcept { return cfg_.num_cores; }

  /// Collect one epoch snapshot (see telemetry/snapshot.hpp for the
  /// consistency contract). Call from one thread at a time; safe while
  /// workers run.
  [[nodiscard]] telemetry::TelemetrySnapshot telemetry_snapshot() {
    return collector_.collect();
  }

  // --- adaptive spraying ------------------------------------------------
  /// The adaptive spray policy (null when cfg.adaptive.enabled is false).
  /// Its steer/tick surface is driver-internal; exposed for stats and for
  /// tests/benches that want to force a maintenance tick at a known time.
  [[nodiscard]] AdaptiveSprayPolicy* adaptive() noexcept {
    return adaptive_.get();
  }
  [[nodiscard]] bool adaptive_enabled() const noexcept {
    return adaptive_ != nullptr;
  }
  /// The shared Flow Director (checksum spray rules + adaptive pin rules).
  [[nodiscard]] const nic::FlowDirector& flow_director() const noexcept {
    return fdir_;
  }

  // --- flow export + path tracing (DESIGN.md §13) -----------------------
  /// The live flow exporter (null when cfg.flow_export.enabled is false).
  /// Its tick/flush surface is driver-internal; exposed for stats and for
  /// tests/benches that force a tick at a known time (driver-thread
  /// contract: do not call tick concurrently with inject).
  [[nodiscard]] telemetry::LiveExporter* flow_exporter() noexcept {
    return live_.get();
  }
  [[nodiscard]] bool flow_export_enabled() const noexcept {
    return live_ != nullptr;
  }
  /// One core's record table (null when flow export is off).
  [[nodiscard]] const telemetry::FlowRecorder* flow_recorder(
      CoreId core) const noexcept {
    return live_ != nullptr ? recorders_[core].get() : nullptr;
  }
  /// The sampled path tracer (null when cfg.trace.enabled is false).
  [[nodiscard]] const telemetry::PathTracer* tracer() const noexcept {
    return tracer_.get();
  }

  [[nodiscard]] bool reorder_enabled() const noexcept {
    return reorder_ != nullptr;
  }
  /// The observatory itself (null when off) — for per-flow queries
  /// (flow_stats), which follow its driver-thread read contract.
  [[nodiscard]] const telemetry::ReorderObservatory* reorder_observatory()
      const noexcept {
    return reorder_.get();
  }
  /// Reorder-observatory totals (all-zero when the observatory is off).
  [[nodiscard]] telemetry::ReorderObservatory::Stats reorder_stats() const {
    return reorder_ != nullptr ? reorder_->stats()
                               : telemetry::ReorderObservatory::Stats{};
  }

 private:
  class CorePort;
  using Ring = runtime::SpscRing<net::Packet*>;

  /// Queue-depth feedback for the adaptive policy's p2c pick: approximate
  /// occupancy of the destination rx rings (driver-side reads of SPSC
  /// indices — racy but monotonic-safe, same contract as size_approx()).
  class RxDepthProbe final : public IQueueDepthProbe {
   public:
    explicit RxDepthProbe(const ThreadedMiddlebox& owner) noexcept
        : owner_(owner) {}
    [[nodiscard]] u32 depth(u16 queue) const noexcept override {
      return static_cast<u32>(owner_.rx_rings_[queue]->size_approx());
    }

   private:
    const ThreadedMiddlebox& owner_;
  };

  /// Worker-owned loop state, cache-line separated per core.
  struct alignas(kCacheLineSize) WorkerState {
    Time last_housekeeping = 0;
    u64 foreign_scan_offset = 0;  // rotates the mesh poll start (fairness)
  };

  /// One worker iteration; returns true if any work was done.
  bool worker_body(CoreId core);
  /// True when `core`'s rx ring and every mesh ring into it read empty.
  [[nodiscard]] bool inputs_empty(CoreId core) const noexcept;

  /// kBlock admission of one packet: spins (yielding periodically) until
  /// the ring has room; accumulates spin iterations into `spins`.
  void push_blocking(Ring& ring, net::Packet* pkt, u64& spins);

  /// Framework-level metric handles: the shed counts are always live, the
  /// rest are no-ops when telemetry is off.
  struct FrameworkTelemetry {
    telemetry::Counter packets;          // per worker: descriptors polled
    telemetry::Counter batches;          // per worker: batches processed
    telemetry::Counter injected;         // driver shard
    telemetry::Counter shed_regular;     // driver shard: watermark sheds
    telemetry::Counter shed_conn;        // driver shard: conn-packet drops
    telemetry::Counter block_spins;      // driver shard: kBlock wait loops
    telemetry::Counter rx_ring_hwm;      // kGaugeMax: rx ring occupancy
    telemetry::Counter mesh_ring_hwm;    // kGaugeMax: mesh ring occupancy
    telemetry::Histogram batch_size;
    telemetry::Histogram queue_delay_ns;  // inject stamp -> worker poll
  };

  /// All ctors funnel here; `owned` is the compatibility DynamicChain (null
  /// when the caller provided the chain).
  ThreadedMiddlebox(SprayerConfig cfg, std::unique_ptr<DynamicChain> owned,
                    DynamicChain* chain, TxBatchHandler tx);

  TxBatchHandler tx_;
  nic::RssEngine rss_;
  nic::FlowDirector fdir_;

  std::vector<std::unique_ptr<CorePort>> ports_;
  // Fault-injection wrappers interposed between engine and CorePort when
  // SprayerConfig::transfer_fault is enabled (empty otherwise).
  std::vector<std::unique_ptr<FaultInjectedPort>> fault_ports_;

  // Per-core rx rings (driver -> core) and the transfer mesh
  // (src core -> dst core), all SPSC.
  std::vector<std::unique_ptr<Ring>> rx_rings_;
  std::vector<std::vector<std::unique_ptr<Ring>>> mesh_;

  telemetry::SnapshotCollector collector_;
  FrameworkTelemetry tm_;
  std::unique_ptr<telemetry::ReorderObservatory> reorder_;
  std::unique_ptr<AdaptiveSprayPolicy> adaptive_;
  std::unique_ptr<RxDepthProbe> depth_probe_;
  // Flow export: per-core record tables (worker-written), the driver-tick
  // exporter, and its owned file sink (empty sink_path → no stream).
  std::vector<std::unique_ptr<telemetry::FlowRecorder>> recorders_;
  std::unique_ptr<telemetry::LiveExporter> live_;
  std::unique_ptr<std::ofstream> live_sink_;
  std::unique_ptr<telemetry::PathTracer> tracer_;

  runtime::WorkerGroup workers_;
  std::vector<WorkerState> worker_state_;
  // Driver-side per-queue grouping scratch for inject_bulk().
  std::vector<std::vector<net::Packet*>> inject_stage_;
  // Survivor / shed partitions for the watermark slow path (driver-only).
  std::vector<net::Packet*> admit_scratch_;
  std::vector<net::Packet*> shed_scratch_;
  // Occupancy above which kDropRegularFirst sheds regular packets
  // (precomputed from rx_ring_capacity * rx_shed_watermark).
  u32 rx_shed_threshold_ = 0;
  std::atomic<u32> busy_workers_{0};
  bool started_ = false;
};

}  // namespace sprayer::core
