#include "core/engine.hpp"

#include <algorithm>
#include <bit>
#include <bitset>
#include <cstring>

#include "common/compiler.hpp"
#include "core/adaptive_spray.hpp"
#include "hash/designated.hpp"
#include "net/packet_pool.hpp"
#include "telemetry/flow_export.hpp"

namespace sprayer::core {

namespace {

using S = CoreStats;
using M = EngineMetrics;

/// Each count: its registry name, its CoreStats field, its handle.
struct CountCell {
  const char* name;
  RelaxedU64 S::*stat;
  telemetry::Counter M::*handle;
};
constexpr CountCell kCountCells[] = {
    {"engine.rx_packets", &S::rx_packets, &M::rx_packets},
    {"engine.regular_packets", &S::regular_packets, &M::regular_packets},
    {"engine.conn_local", &S::conn_local, &M::conn_local},
    {"engine.transfer_flush_packets", &S::conn_transferred_out,
     &M::conn_transferred_out},
    {"worker.foreign_packets", &S::conn_foreign_in, &M::conn_foreign_in},
    {"engine.transfer_flush_drops", &S::transfer_drops, &M::transfer_drops},
    {"engine.transfer_retry_packets", &S::transfer_retries,
     &M::transfer_retries},
    {"engine.nf_drops", &S::nf_drops, &M::nf_drops},
    {"engine.tx_packets", &S::tx_packets, &M::tx_packets},
    {"engine.busy_cycles", &S::busy_cycles, &M::busy_cycles},
};

}  // namespace

EngineMetrics EngineMetrics::register_in(telemetry::MetricsRegistry& reg,
                                         bool extras) {
  EngineMetrics m;
  for (const CountCell& c : kCountCells) m.*c.handle = reg.counter(c.name);
  if (extras) {
    m.flush_calls = reg.counter("engine.transfer_flush_calls");
    m.pending_hwm = reg.gauge("engine.transfer_pending_hwm",
                              telemetry::MetricKind::kGaugeMax);
    m.retry_rounds = reg.histogram("engine.transfer_retry_rounds", 5);
  }
  return m;
}

CoreStats EngineMetrics::read(const telemetry::MetricsRegistry& reg,
                              u32 first_shard, u32 shards) const noexcept {
  CoreStats s;
  for (const CountCell& c : kCountCells) {
    u64 sum = 0;
    for (u32 i = first_shard; i < first_shard + shards; ++i) {
      sum += reg.read(this->*c.handle, i);
    }
    s.*c.stat = sum;
  }
  return s;
}

Cycles SprayerCore::busy(Cycles cycles) noexcept {
  m_.busy_cycles.add(id_, cycles);
  return cycles;
}

Cycles SprayerCore::process_rx(runtime::PacketBatch& batch, Time now) {
  const CostModel& costs = cfg_.costs;
  Cycles cycles = costs.batch_overhead;
  m_.rx_packets.add(id_, batch.size());

  if (sync_ != nullptr && !batch.empty() && batch[0]->pool() != nullptr) {
    sync_pool_ = batch[0]->pool();
  }

  runtime::PacketBatch conn_local;
  runtime::PacketBatch regular;

  for (net::Packet* pkt : batch) {
    cycles += costs.classify_per_packet;
    // Adaptive spraying: account the packet against this core's
    // heavy-hitter sketch (the driver merges all cores' sketches on its
    // maintenance tick to classify elephants vs mice).
    if (sketch_ != nullptr && pkt->has_flow_hash()) {
      sketch_->update(pkt->flow_hash());
    }
    // Flow export: fold the packet into this core's record table (foreign
    // batches skip this — counted at their original rx poll).
    if (recorder_ != nullptr && pkt->has_flow_hash()) {
      recorder_->account(pkt->flow_hash(), pkt->len(),
                         pkt->is_tcp() ? pkt->tcp().flags() : u8{0}, now);
    }
    if (stateless_ || !pkt->is_tcp() || !pkt->is_connection_packet()) {
      regular.push(pkt);
      continue;
    }
    // Connection packet: route to its designated core via the memoized
    // rx-descriptor RSS hash (computed lazily if the NIC didn't stash one).
    const CoreId dest = picker_.pick_hash(hash::packet_flow_hash(*pkt));
    if (dest == id_) {
      conn_local.push(pkt);
    } else {
      cycles += costs.transfer_enqueue;
      runtime::PacketBatch& stage = transfer_stage_[dest];
      if (SPRAYER_UNLIKELY(stage.full())) flush_transfer_stage(dest);
      stage.push(pkt);
      transfer_dirty_ |= u64{1} << dest;
    }
  }

  m_.conn_local.add(id_, conn_local.size());
  if (!conn_local.empty()) cycles += dispatch(conn_local, now, true);
  if (!regular.empty()) cycles += dispatch(regular, now, false);
  // Replication: ship whatever the dispatches just logged before ringing
  // the doorbells, so the sync frames ride this batch's flush.
  if (sync_ != nullptr) cycles += harvest_state_sync();
  // One ring doorbell per destination for the whole batch.
  flush_transfers();
  return busy(cycles);
}

Cycles SprayerCore::process_foreign(runtime::PacketBatch& batch, Time now) {
  const CostModel& costs = cfg_.costs;
  Cycles cycles = costs.transfer_dequeue * batch.size();
  if (sync_ != nullptr) {
    if (!batch.empty() && batch[0]->pool() != nullptr) {
      sync_pool_ = batch[0]->pool();
    }
    cycles += absorb_sync_frames(batch);
  }
  m_.conn_foreign_in.add(id_, batch.size());
  if (!batch.empty()) cycles += dispatch(batch, now, true);
  if (sync_ != nullptr) {
    // The connection handlers that just ran may have logged mutations;
    // broadcast them (and flush — process_foreign has no trailing
    // flush_transfers of its own on the writing-partition path).
    cycles += harvest_state_sync();
    flush_transfers();
  }
  return busy(cycles);
}

void SprayerCore::housekeeping(Time now) {
  chain_.housekeeping(hop_ctxs_, now);
  Cycles cycles = 0;
  if (sync_ != nullptr) {
    cycles += harvest_state_sync();
    flush_transfers();
  }
  for (NfContext* ctx : hop_ctxs_) cycles += ctx->drain_consumed();
  busy(cycles);
}

Cycles SprayerCore::absorb_sync_frames(runtime::PacketBatch& batch) {
  const CostModel& costs = cfg_.costs;
  std::bitset<runtime::kMaxBatchSize> frame_at;
  Cycles cycles = 0;
  for (u32 i = 0; i < batch.size(); ++i) {
    net::Packet* pkt = batch[i];
    if (!state::is_sync_frame(*pkt)) continue;
    frame_at.set(i);
    const state::SyncRuntime::ApplyResult res =
        sync_->apply({pkt->data(), pkt->len()});
    cycles += costs.flow_insert * res.upserts + costs.flow_remove * res.removes;
  }
  if (frame_at.none()) return cycles;
  runtime::PacketBatch frames;
  batch.compact([&frame_at](u32 i) { return frame_at.test(i); }, frames);
  net::free_packets(frames.packets());
  return cycles;
}

Cycles SprayerCore::harvest_state_sync() {
  if (!sync_->has_pending()) return 0;
  const u32 fanout = cfg_.num_cores - 1;
  if (fanout == 0) {
    sync_->clear_log();
    return 0;
  }
  net::PacketPool* pool = sync_pool_;
  if (pool == nullptr) return 0;  // no rx batch seen yet; log kept for later
  const CostModel& costs = cfg_.costs;
  const u32 cap =
      std::min<u32>(pool->buffer_size(), cfg_.state.sync_frame_bytes);
  const u64 ops = sync_->log().size();
  const auto chunks = sync_->serialize(cap);
  if (chunks.empty()) {
    // Every logged upsert's entry has since been removed and the removes
    // already shipped — nothing to send.
    sync_->clear_log();
    return 0;
  }
  const u32 total = static_cast<u32>(chunks.size()) * fanout;
  sync_frame_scratch_.resize(total);
  const u32 got = pool->alloc_bulk({sync_frame_scratch_.data(), total});
  if (SPRAYER_UNLIKELY(got < total)) {
    // All-or-nothing: broadcasting to a subset of replicas would diverge
    // them. Put the frames back, keep the log, retry at the next flush.
    pool->free_bulk({sync_frame_scratch_.data(), got});
    sync_->note_alloc_stall();
    return 0;
  }
  Cycles cycles = 0;
  u64 bytes = 0;
  u32 fi = 0;
  for (const std::span<const u8> chunk : chunks) {
    for (CoreId d = 0; d < cfg_.num_cores; ++d) {
      if (d == id_) continue;
      net::Packet* frame = sync_frame_scratch_[fi++];
      std::memcpy(frame->data(), chunk.data(), chunk.size());
      frame->set_len(static_cast<u32>(chunk.size()));
      frame->user_tag |= state::kSyncFrameTag;
      cycles += costs.transfer_enqueue;
      runtime::PacketBatch& stage = transfer_stage_[d];
      if (SPRAYER_UNLIKELY(stage.full())) flush_transfer_stage(d);
      stage.push(frame);
      transfer_dirty_ |= u64{1} << d;
      bytes += chunk.size();
    }
  }
  sync_->note_broadcast(total, bytes, ops);
  sync_->clear_log();
  return cycles;
}

void SprayerCore::flush_transfers() {
  // Only destinations whose bit is set have staged packets; an idle core
  // (or one whose batch stayed local) skips the whole stage sweep.
  u64 dirty = transfer_dirty_;
  while (dirty != 0) {
    const auto d = static_cast<CoreId>(std::countr_zero(dirty));
    dirty &= dirty - 1;
    flush_transfer_stage(d);
  }
}

void SprayerCore::flush_transfer_stage(CoreId dest) {
  transfer_dirty_ &= ~(u64{1} << dest);
  runtime::PacketBatch& stage = transfer_stage_[dest];
  PendingQueue& pending = transfer_pending_[dest];
  if (stage.empty() && pending.size() == 0) return;
  m_.flush_calls.add(id_, 1);
  const u32 pending_before = pending.size();

  // The parked backlog goes first: connection-packet order within a flow is
  // what keeps SYN-before-FIN holding across retries, so a descriptor
  // rejected in an earlier round must never be overtaken by one staged now.
  if (pending.size() > 0) {
    pending.consume(offer_with_spin(dest, pending.view(), /*is_retry=*/true));
    if (pending.size() > 0) {
      // Destination still backed up: park the fresh stage behind the
      // backlog and re-arm the dirty bit so the next flush retries.
      ++pending.rounds;
      if (!stage.empty()) {
        pending.append(stage.packets());
        stage.clear();
      }
      transfer_dirty_ |= u64{1} << dest;
      set_pending_count(pending_count_.load(std::memory_order_relaxed) +
                        pending.size() - pending_before);
      return;
    }
    m_.retry_rounds.record(id_, pending.rounds);
    pending.rounds = 0;
  }

  if (!stage.empty()) {
    const u32 accepted =
        offer_with_spin(dest, stage.packets(), /*is_retry=*/false);
    if (SPRAYER_UNLIKELY(accepted < stage.size())) {
      pending.append(stage.packets().subspan(accepted));
      pending.rounds = 1;
      transfer_dirty_ |= u64{1} << dest;
    }
    stage.clear();
  }
  if (pending.size() != pending_before) {
    set_pending_count(pending_count_.load(std::memory_order_relaxed) +
                      pending.size() - pending_before);
  }
}

u32 SprayerCore::offer_with_spin(CoreId dest,
                                 std::span<net::Packet* const> pkts,
                                 bool is_retry) {
  u64 retried = is_retry ? pkts.size() : 0;
  u32 accepted = port_.transfer_batch(dest, pkts);
  // Bounded spin: a full ring usually means the consumer is one dequeue
  // away, so a couple of immediate re-offers often clear the remainder
  // without paying a whole park/retry round.
  for (u32 spin = 0;
       accepted < pkts.size() && spin < cfg_.transfer_retry_spin; ++spin) {
    cpu_relax();
    const auto rest = pkts.subspan(accepted);
    retried += rest.size();
    accepted += port_.transfer_batch(dest, rest);
  }
  if (retried > 0) m_.transfer_retries.add(id_, retried);
  m_.conn_transferred_out.add(id_, accepted);
  return accepted;
}

u32 SprayerCore::release_stranded() {
  u32 freed = 0;
  for (u32 d = 0; d < transfer_stage_.size(); ++d) {
    runtime::PacketBatch& stage = transfer_stage_[d];
    if (!stage.empty()) {
      freed += stage.size();
      net::free_packets(stage.packets());
      stage.clear();
    }
    PendingQueue& pending = transfer_pending_[d];
    if (pending.size() > 0) {
      freed += pending.size();
      net::free_packets(pending.view());
      pending.consume(pending.size());
      pending.rounds = 0;
    }
  }
  transfer_dirty_ = 0;
  pending_count_.store(0, std::memory_order_relaxed);
  if (freed > 0) m_.transfer_drops.add(id_, freed);
  return freed;
}

Cycles SprayerCore::dispatch(runtime::PacketBatch& batch, Time now,
                             bool connection) {
  const CostModel& costs = cfg_.costs;
  // Run-to-completion: the whole chain processes the batch here, on this
  // core, compacting it in place to the survivors hop by hop.
  drop_stage_.clear();
  if (connection) {
    chain_.connection_pass(batch, scratch_, hop_ctxs_, now, drop_stage_);
  } else {
    m_.regular_packets.add(id_, batch.size());
    chain_.regular_pass(batch, scratch_, hop_ctxs_, now, drop_stage_);
  }
  Cycles cycles = 0;
  for (NfContext* ctx : hop_ctxs_) cycles += ctx->drain_consumed();
  // Free drops and transmit survivors as whole batches (one pool bulk-free,
  // one sink invocation).
  if (!drop_stage_.empty()) {
    m_.nf_drops.add(id_, drop_stage_.size());
    net::free_packets(drop_stage_.packets());
  }
  if (!batch.empty()) {
    cycles += costs.tx_per_packet * batch.size();
    m_.tx_packets.add(id_, batch.size());
    port_.transmit_batch(batch.packets());
  }
  return cycles;
}

}  // namespace sprayer::core
