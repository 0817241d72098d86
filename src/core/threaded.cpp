#include "core/threaded.hpp"

#include <chrono>
#include <thread>

#include "common/compiler.hpp"
#include "common/overload.hpp"
#include "net/packet_pool.hpp"

namespace sprayer::core {

namespace {

Time steady_now() {
  return static_cast<Time>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count()) *
      kNanosecond;
}

ThreadedMiddlebox::TxBatchHandler wrap_tx(ThreadedMiddlebox::TxHandler tx) {
  SPRAYER_CHECK_MSG(tx != nullptr, "tx handler must not be null");
  return [tx = std::move(tx)](std::span<net::Packet* const> pkts) {
    for (net::Packet* pkt : pkts) tx(pkt);
  };
}

}  // namespace

/// ICorePort implementation for one worker: transfers go to the SPSC mesh
/// (whole staging buffers per doorbell), transmissions to the user sink
/// (one invocation per verdict batch).
class ThreadedMiddlebox::CorePort final : public ICorePort {
 public:
  CorePort(ThreadedMiddlebox& owner, CoreId id) : owner_(owner), id_(id) {}

  u32 transfer_batch(CoreId dest,
                     std::span<net::Packet* const> pkts) override {
    return owner_.mesh_[id_][dest]->push_bulk(pkts);
  }

  void transmit_batch(std::span<net::Packet* const> pkts) override {
    // The tx boundary is where spray-induced reordering becomes visible:
    // fold stamped packets into the observatory before the sink sees them.
    if (owner_.reorder_ != nullptr) owner_.reorder_->observe(pkts);
    // Close the NF stage for traced packets (runs inside the worker's
    // registry update window — dispatch is called under it). The clock is
    // read once per batch, and only when the batch holds a traced packet.
    if (owner_.tracer_ != nullptr) {
      owner_.tracer_->record_tx(pkts, id_, [] { return steady_now(); });
    }
    owner_.tx_(pkts);
  }

 private:
  ThreadedMiddlebox& owner_;
  CoreId id_;
};

ThreadedMiddlebox::ThreadedMiddlebox(SprayerConfig cfg,
                                     std::unique_ptr<DynamicChain> owned,
                                     DynamicChain* chain, TxBatchHandler tx)
    : MiddleboxSkeleton(cfg, std::move(owned), chain), tx_(std::move(tx)),
      rss_(cfg.num_cores), collector_(registry_) {
  SPRAYER_CHECK(tx_ != nullptr);
  SPRAYER_CHECK_MSG(cfg_.rx_batch >= 1 &&
                        cfg_.rx_batch <= runtime::kMaxBatchSize,
                    "rx_batch must fit in a PacketBatch");

  // Shards 0..num_cores-1 are the workers; shard num_cores is the driver.
  // Framework metrics first, then build() registers the engine counts and
  // the chain's NF metrics and finalizes the registry.
  tm_.shed_regular = registry_.counter("driver.shed_regular");
  tm_.shed_conn = registry_.counter("driver.shed_conn");
  if (cfg_.telemetry) {
    tm_.packets = registry_.counter("worker.packets");
    tm_.batches = registry_.counter("worker.batches");
    tm_.injected = registry_.counter("driver.injected");
    tm_.block_spins = registry_.counter("driver.block_spins");
    tm_.rx_ring_hwm = registry_.gauge("rx_ring.occupancy_hwm",
                                      telemetry::MetricKind::kGaugeMax);
    tm_.mesh_ring_hwm = registry_.gauge("mesh_ring.occupancy_hwm",
                                        telemetry::MetricKind::kGaugeMax);
    tm_.batch_size = registry_.histogram("worker.batch_size", 5);
    tm_.queue_delay_ns = registry_.histogram("rx.queue_delay_ns", 5);
  }
  if (cfg_.adaptive.enabled) {
    SPRAYER_CHECK_MSG(cfg_.mode == DispatchMode::kSpray,
                      "adaptive spraying refines spray mode; RSS has no "
                      "spray decision to adapt");
    SPRAYER_CHECK_MSG(cfg_.housekeeping_interval > 0,
                      "adaptive spraying needs the housekeeping tick to "
                      "decay the heavy-hitter sketches");
    adaptive_ = std::make_unique<AdaptiveSprayPolicy>(
        cfg_.adaptive, cfg_.num_cores, fdir_, picker_);
    // Before finalize(): the spray.adaptive.* mirror lives on the driver
    // shard alongside the other injection-side metrics.
    if (cfg_.telemetry) {
      adaptive_->register_metrics(registry_, driver_shard());
    }
  }
  if (cfg_.trace.enabled) {
    SPRAYER_CHECK_MSG(cfg_.telemetry,
                      "path tracing records into the metrics registry; "
                      "enable SprayerConfig::telemetry");
    tracer_ =
        std::make_unique<telemetry::PathTracer>(cfg_.trace, steady_now());
    // Before finalize(): the trace.* stage histograms are sharded metrics.
    tracer_->register_metrics(registry_);
  }

  build(cfg_.telemetry, cfg_.chain_hop_timing);
  if (cfg_.reorder_observatory) {
    reorder_ = std::make_unique<telemetry::ReorderObservatory>();
  }
  if (adaptive_ != nullptr && reorder_ != nullptr) {
    adaptive_->set_observatory(reorder_.get());
  }

  if (cfg_.flow_export.enabled) {
    live_ = std::make_unique<telemetry::LiveExporter>(cfg_.flow_export,
                                                      registry_);
    for (u32 c = 0; c < cfg_.num_cores; ++c) {
      recorders_.push_back(std::make_unique<telemetry::FlowRecorder>(
          cfg_.flow_export.table_slots, cfg_.flow_export.idle_timeout));
      live_->add_recorder(recorders_.back().get());
    }
    // fn gauges may be registered after finalize().
    if (cfg_.telemetry) live_->register_metrics(registry_);
    if (!cfg_.flow_export.sink_path.empty()) {
      live_sink_ = std::make_unique<std::ofstream>(cfg_.flow_export.sink_path);
      SPRAYER_CHECK_MSG(live_sink_->good(),
                        "failed to open flow-export sink path");
      live_->set_sink(live_sink_.get());
    }
    // Placement and reorder evidence are resolved per flow at emission
    // time, on the driver thread — the thread the adaptive policy and the
    // observatory's rx table belong to.
    live_->set_flow_info([this](u32 hash) {
      telemetry::LiveExporter::FlowInfo info;
      if (adaptive_ != nullptr) {
        info.placement = adaptive_->is_pinned(hash) ? "pinned" : "sprayed";
      } else {
        info.placement =
            cfg_.mode == DispatchMode::kSpray ? "sprayed" : "rss";
      }
      if (reorder_ != nullptr) {
        const auto flow = reorder_->flow_stats(hash);
        info.ooo_sampled = flow.sampled;
        info.ooo_max = flow.max_distance;
      }
      return info;
    });
  }
  if (cfg_.telemetry) {
    // Satellite of DESIGN.md §13: snapshots that exhausted their seqlock
    // retries are counted, not silently kept — summed over the end-of-run
    // collector and the live exporter's stream collector.
    registry_.gauge_fn("telemetry.snapshot.inconsistent", [this] {
      u64 n = collector_.inconsistent_snapshots();
      if (live_ != nullptr) {
        n += live_->stats().inconsistent_snapshots.load();
      }
      return n;
    });
  }

  if (cfg_.mode == DispatchMode::kSpray) {
    const Status s = fdir_.program_checksum_spray(cfg_.num_cores);
    SPRAYER_CHECK_MSG(s.ok(), "failed to program Flow Director spraying");
  }

  for (u32 c = 0; c < cfg_.num_cores; ++c) {
    ports_.push_back(std::make_unique<CorePort>(*this,
                                                static_cast<CoreId>(c)));
    ICorePort* port = ports_.back().get();
    if (cfg_.transfer_fault.enabled()) {
      fault_ports_.push_back(std::make_unique<FaultInjectedPort>(
          *port, cfg_.transfer_fault));
      port = fault_ports_.back().get();
    }
    SprayerCore& engine = add_engine(*port);
    if (adaptive_ != nullptr) engine.set_flow_sketch(&adaptive_->sketch(c));
    if (live_ != nullptr) engine.set_flow_recorder(recorders_[c].get());
    rx_rings_.push_back(std::make_unique<Ring>(cfg_.rx_ring_capacity));
  }
  if (cfg_.telemetry &&
      cfg_.state.kind == state::StateStrategyKind::kReplication) {
    // fn gauges may be registered after finalize(); the cells they read are
    // single-writer relaxed counters, safe to sample while workers run.
    registry_.gauge_fn("state.sync.frames_sent", [this] {
      return strategy_->sync_stats().frames_sent;
    });
    registry_.gauge_fn("state.sync.bytes_sent", [this] {
      return strategy_->sync_stats().bytes_sent;
    });
    registry_.gauge_fn("state.sync.ops_sent", [this] {
      return strategy_->sync_stats().ops_sent;
    });
    registry_.gauge_fn("state.sync.ops_applied", [this] {
      return strategy_->sync_stats().ops_applied;
    });
    registry_.gauge_fn("state.sync.apply_failures", [this] {
      return strategy_->sync_stats().apply_failures;
    });
    registry_.gauge_fn("state.sync.alloc_stalls", [this] {
      return strategy_->sync_stats().alloc_stalls;
    });
    registry_.gauge_fn("state.divergence.mismatches", [this] {
      return strategy_->divergence_mismatches();
    });
    registry_.gauge_fn("state.remote_reads_avoided", [this] {
      u64 n = 0;
      for (const auto& ctx : contexts_) {
        n += ctx->flows().strategy_counters().remote_reads_avoided;
      }
      return n;
    });
  }
  if (adaptive_ != nullptr && cfg_.adaptive.p2c) {
    depth_probe_ = std::make_unique<RxDepthProbe>(*this);
    adaptive_->set_depth_probe(depth_probe_.get());
  }
  rx_shed_threshold_ =
      shed_threshold(cfg_.rx_ring_capacity, cfg_.rx_shed_watermark);
  worker_state_.resize(cfg_.num_cores);
  inject_stage_.resize(cfg_.num_cores);
  mesh_.resize(cfg_.num_cores);
  for (u32 src = 0; src < cfg_.num_cores; ++src) {
    for (u32 dst = 0; dst < cfg_.num_cores; ++dst) {
      mesh_[src].push_back(
          std::make_unique<Ring>(cfg_.foreign_ring_capacity));
    }
  }
}

ThreadedMiddlebox::ThreadedMiddlebox(SprayerConfig cfg, DynamicChain& chain,
                                     TxBatchHandler tx)
    : ThreadedMiddlebox(cfg, nullptr, &chain, std::move(tx)) {}

ThreadedMiddlebox::ThreadedMiddlebox(SprayerConfig cfg, INetworkFunction& nf,
                                     TxBatchHandler tx)
    : ThreadedMiddlebox(cfg, std::make_unique<DynamicChain>(nf), nullptr,
                        std::move(tx)) {}

ThreadedMiddlebox::ThreadedMiddlebox(SprayerConfig cfg, INetworkFunction& nf,
                                     TxHandler tx)
    : ThreadedMiddlebox(cfg, nf, wrap_tx(std::move(tx))) {}

ThreadedMiddlebox::~ThreadedMiddlebox() { stop(); }

void ThreadedMiddlebox::start() {
  SPRAYER_CHECK_MSG(!started_, "already started");
  started_ = true;
  workers_.start(cfg_.num_cores,
                 [this](CoreId core) { return worker_body(core); });
}

void ThreadedMiddlebox::stop() {
  if (!started_) return;
  workers_.stop();
  started_ = false;
  // Workers flush their staging buffers at the end of every iteration, but
  // be defensive: push any leftovers onto the mesh before draining it.
  for (auto& engine : engines_) engine->flush_transfers();
  // Free anything still queued.
  auto drain = [](Ring& ring) {
    net::Packet* pkt;
    while (ring.pop(pkt)) pkt->pool()->free(pkt);
  };
  for (auto& ring : rx_rings_) drain(*ring);
  for (auto& row : mesh_) {
    for (auto& ring : row) drain(*ring);
  }
  // Descriptors the flush above could not place (mesh was full even after
  // parking) are freed here — the only point the lossless path gives up,
  // counted in transfer_drops.
  for (auto& engine : engines_) engine->release_stranded();
  // Workers are quiescent: harvest the last deltas and close out every
  // live flow with a reason="final" record plus a final snapshot line.
  if (live_ != nullptr) live_->flush_final(steady_now());
}

void ThreadedMiddlebox::push_blocking(Ring& ring, net::Packet* pkt,
                                      u64& spins) {
  while (!ring.push(pkt)) {
    SPRAYER_CHECK_MSG(started_, "kBlock inject needs running workers to drain");
    cpu_relax();
    // Yield periodically: on oversubscribed hosts the consumer may need our
    // timeslice to make room.
    if ((++spins & 1023) == 0) std::this_thread::yield();
  }
}

bool ThreadedMiddlebox::inject(net::Packet* pkt) {
  return inject_bulk({&pkt, 1}) == 1;
}

u32 ThreadedMiddlebox::inject_bulk(std::span<net::Packet* const> pkts) {
  for (auto& group : inject_stage_) group.clear();
  // One clock read covers the whole burst: every packet gets the same rx
  // timestamp for the queue-delay histogram, and the adaptive policy gets
  // one coherent "now" for flow aging and its maintenance tick.
  const Time rx_stamp =
      (cfg_.telemetry || adaptive_ != nullptr || live_ != nullptr) &&
              !pkts.empty()
          ? steady_now()
          : 0;
  for (net::Packet* pkt : pkts) {
    pkt->parse();
    u32 rss_hash = 0;
    if (pkt->is_ipv4()) {
      rss_hash = rss_.hash_of(*pkt);
      pkt->set_flow_hash(rss_hash);
    }
    pkt->ts_rx = rx_stamp;
    if (reorder_ != nullptr) reorder_->stamp(*pkt);
    const bool traced = tracer_ != nullptr &&
                        tracer_->maybe_stamp(*pkt, [&] { return rx_stamp; });
    u16 queue;
    if (adaptive_ != nullptr && pkt->is_tcp() && pkt->has_flow_hash()) {
      queue = adaptive_->steer(*pkt, rss_hash, rx_stamp);
    } else {
      const auto fdir_queue = fdir_.match(*pkt);
      queue = fdir_queue.has_value() ? *fdir_queue
                                     : rss_.queue_for_hash(rss_hash);
    }
    // Sampled packets pay a fresh clock read to close the steer stage; the
    // other 2^N-1 per window stay clock-free.
    if (traced) tracer_->record_steer(*pkt, steady_now());
    inject_stage_[queue].push_back(pkt);
  }
  if (adaptive_ != nullptr && !pkts.empty()) adaptive_->maybe_tick(rx_stamp);
  if (live_ != nullptr && !pkts.empty()) live_->maybe_tick(rx_stamp);
  u32 accepted = 0;
  u64 shed_reg = 0;
  u64 shed_cn = 0;
  u64 spins = 0;
  const auto is_conn = [this](net::Packet* pkt) {
    return !stateless_chain_ && pkt->is_connection_packet();
  };
  // One doorbell for `stage`; whatever the full ring rejects is dropped and
  // counted by class.
  const auto push_or_drop = [&](Ring& ring,
                                std::span<net::Packet* const> stage) {
    const u32 n = ring.push_bulk(stage);
    accepted += n;
    if (SPRAYER_UNLIKELY(n < stage.size())) {
      const auto rejected = stage.subspan(n);
      for (net::Packet* pkt : rejected) ++(is_conn(pkt) ? shed_cn : shed_reg);
      net::free_packets(rejected);
    }
  };
  for (u32 q = 0; q < cfg_.num_cores; ++q) {
    auto& group = inject_stage_[q];
    if (group.empty()) continue;
    Ring& ring = *rx_rings_[q];
    // Fast path — one doorbell for the whole group when no class-aware
    // decision is needed: kDropNew always, kDropRegularFirst when the
    // group fits entirely under the watermark (the single-producer
    // contract means occupancy can only shrink underneath us).
    if (cfg_.overload_policy == OverloadPolicy::kDropNew ||
        (cfg_.overload_policy == OverloadPolicy::kDropRegularFirst &&
         ring.size_approx() + group.size() <= rx_shed_threshold_)) {
      push_or_drop(ring, group);
      continue;
    }
    // Watermark slow path — still one doorbell per group: walk the group in
    // order shedding regular packets that would land above the watermark
    // (occupancy can only shrink underneath us, so the prediction is
    // conservative), then bulk-push the survivors and bulk-free the shed.
    if (cfg_.overload_policy == OverloadPolicy::kDropRegularFirst) {
      admit_scratch_.clear();
      shed_scratch_.clear();
      const u32 occupancy = static_cast<u32>(ring.size_approx());
      for (net::Packet* pkt : group) {
        if (!is_conn(pkt) &&
            occupancy + admit_scratch_.size() >= rx_shed_threshold_) {
          ++shed_reg;
          shed_scratch_.push_back(pkt);
        } else {
          admit_scratch_.push_back(pkt);
        }
      }
      push_or_drop(ring, admit_scratch_);
      if (!shed_scratch_.empty()) net::free_packets(shed_scratch_);
      continue;
    }
    // kBlock: per-descriptor admission — each push may have to wait.
    for (net::Packet* pkt : group) push_blocking(ring, pkt, spins);
    accepted += static_cast<u32>(group.size());
  }
  registry_.begin_update(driver_shard());
  tm_.injected.add(driver_shard(), accepted);
  if (shed_reg > 0) tm_.shed_regular.add(driver_shard(), shed_reg);
  if (shed_cn > 0) tm_.shed_conn.add(driver_shard(), shed_cn);
  if (spins > 0) tm_.block_spins.add(driver_shard(), spins);
  if (tracer_ != nullptr && tracer_->has_driver_samples()) {
    tracer_->flush_driver(driver_shard());
  }
  registry_.end_update(driver_shard());
  return accepted;
}

bool ThreadedMiddlebox::worker_body(CoreId core) {
  WorkerState& state = worker_state_[core];
  const u32 n_cores = cfg_.num_cores;
  // The clock is read at most once per iteration — and not at all on idle
  // iterations when housekeeping is disabled.
  Time now = 0;
  bool housekeeping_due = false;
  if (cfg_.housekeeping_interval > 0) {
    now = steady_now();
    housekeeping_due =
        now - state.last_housekeeping >= cfg_.housekeeping_interval;
  }

  // Idle fast path, before busy_workers_ is touched: wait_idle() relies on
  // a packet always being either in a ring or held by a worker counted in
  // busy_workers_. The counter is raised below before any pop, and only
  // this worker pops its rings, so an iteration that sees all of them
  // empty holds nothing and need not be counted. A parked backlog still
  // needs its retry, so it takes the full path. Staging is empty between
  // iterations because process_rx() flushes at batch end.
  if (!housekeeping_due && engines_[core]->pending_transfers() == 0 &&
      inputs_empty(core)) {
    SPRAYER_CHECK(!engines_[core]->transfers_staged());
    return false;
  }

  busy_workers_.fetch_add(1, std::memory_order_acq_rel);
  runtime::PacketBatch batch;
  bool did_work = false;
  if (housekeeping_due) {
    state.last_housekeeping = now;
    // Housekeeping bumps NF registry counters (e.g. NAT expiry) — it
    // needs the same update window as packet processing or a
    // consistent=true snapshot can observe the burst half-applied.
    registry_.begin_update(core);
    engines_[core]->housekeeping(now);
    registry_.end_update(core);
    // Halve this core's heavy-hitter sketch so it tracks a decayed rate
    // (worker-owned: the sketch is single-writer per core).
    if (adaptive_ != nullptr) adaptive_->sketch(core).decay();
  }

  // Foreign rings first (bounds connection-packet latency). Rotate the scan
  // start so low-numbered source cores are not systematically drained first
  // under load.
  const u32 start = static_cast<u32>(state.foreign_scan_offset++ % n_cores);
  for (u32 k = 0; k < n_cores && batch.size() < cfg_.rx_batch; ++k) {
    const u32 src = start + k < n_cores ? start + k : start + k - n_cores;
    if (src == core) continue;
    const u32 room = cfg_.rx_batch - batch.size();
    const u32 got = mesh_[src][core]->pop_bulk(
        std::span<net::Packet*>{batch.data() + batch.size(), room});
    if (got > 0) {
      // Occupancy as seen at this poll: what we took plus what is left.
      tm_.mesh_ring_hwm.record_max(
          core, got + mesh_[src][core]->size_approx());
    }
    batch.set_size(batch.size() + got);
  }
  const bool foreign = !batch.empty();
  if (!foreign) {
    batch.set_size(rx_rings_[core]->pop_bulk(
        std::span<net::Packet*>{batch.data(), cfg_.rx_batch}));
    if (!batch.empty()) {
      tm_.rx_ring_hwm.record_max(
          core, batch.size() + rx_rings_[core]->size_approx());
    }
  }
  if (!batch.empty()) {
    if (now == 0) now = steady_now();
    // Read the driver's stamp before the engine consumes (frees) the
    // packets.
    const Time stamped = batch[0]->ts_rx;
    registry_.begin_update(core);
    // Count what was polled before the engine consumes the batch (NF drops
    // and sync frames compact it).
    tm_.packets.add(core, batch.size());
    tm_.batches.add(core, 1);
    tm_.batch_size.record(core, batch.size());
    if (foreign) {
      engines_[core]->process_foreign(batch, now);
      // process_foreign() stages nothing, but a backlog parked by an
      // earlier rx batch must still get its retry this iteration (a worker
      // can serve foreign traffic exclusively for a while under overload).
      if (engines_[core]->pending_transfers() != 0) {
        engines_[core]->flush_transfers();
      }
    } else {
      // Close the rx-ring queue stage for traced packets before the engine
      // consumes the batch (re-stamps them for the NF stage).
      if (tracer_ != nullptr) tracer_->record_queue(batch.packets(), core, now);
      engines_[core]->process_rx(batch, now);
      if (stamped != 0 && now > stamped) {
        tm_.queue_delay_ns.record(core, (now - stamped) / kNanosecond);
      }
    }
    registry_.end_update(core);
    did_work = true;
  } else {
    // Idle: make sure nothing is stranded in a staging buffer (no-op in
    // the common case — process_rx flushes at batch end). Only a parked
    // backlog makes this flush update counters, so only then is a seqlock
    // window worth opening (bracketing every idle spin would keep the
    // shard sequence moving and starve consistent snapshots).
    const bool retrying = engines_[core]->pending_transfers() != 0;
    if (retrying) registry_.begin_update(core);
    engines_[core]->flush_transfers();
    if (retrying) registry_.end_update(core);
  }
  busy_workers_.fetch_sub(1, std::memory_order_acq_rel);
  return did_work;
}

bool ThreadedMiddlebox::inputs_empty(CoreId core) const noexcept {
  if (!rx_rings_[core]->empty_approx()) return false;
  for (u32 src = 0; src < cfg_.num_cores; ++src) {
    if (src != core && !mesh_[src][core]->empty_approx()) return false;
  }
  return true;
}

void ThreadedMiddlebox::wait_idle() const {
  using namespace std::chrono_literals;
  auto quiescent = [this] {
    for (const auto& ring : rx_rings_) {
      if (!ring->empty_approx()) return false;
    }
    for (const auto& row : mesh_) {
      for (const auto& ring : row) {
        if (!ring->empty_approx()) return false;
      }
    }
    // Parked redirect descriptors are invisible to the rings but are still
    // in flight: a worker between iterations may hold a backlog the
    // destination has yet to make room for.
    if (pending_transfers() != 0) return false;
    return busy_workers_.load(std::memory_order_acquire) == 0;
  };
  // Require the condition to hold across two samples: a worker could be
  // mid-batch (about to refill a mesh ring) on the first one.
  for (;;) {
    if (quiescent()) {
      std::this_thread::sleep_for(200us);
      if (quiescent()) return;
    }
    std::this_thread::sleep_for(100us);
  }
}

}  // namespace sprayer::core
