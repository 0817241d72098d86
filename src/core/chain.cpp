#include "core/chain.hpp"

#include <algorithm>
#include <chrono>
#include <string>

namespace sprayer::core {

Time chain_clock_ns() noexcept {
  return static_cast<Time>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) *
         kNanosecond;
}

DynamicChain::DynamicChain(std::vector<INetworkFunction*> hops)
    : hops_(std::move(hops)),
      hop_stateless_(hops_.size(), 0),
      hop_tm_(hops_.size()),
      hop_idle_(hops_.size(), 0) {
  SPRAYER_CHECK_MSG(!hops_.empty(), "a chain needs at least one hop");
  for (const INetworkFunction* nf : hops_) {
    SPRAYER_CHECK_MSG(nf != nullptr, "chain hop must not be null");
  }
}

void DynamicChain::init(const ChainInit& ci) {
  SPRAYER_CHECK_MSG(ci.hop_cfgs.size() == hops_.size(),
                    "ChainInit::hop_cfgs must have one slot per hop");
  timed_ = ci.hop_timing && ci.registry != nullptr;
  sweep_ = ci.lifecycle_sweep;
  sweep_groups_per_tick_ = ci.sweep_groups_per_tick;
  for (u32 h = 0; h < hops_.size(); ++h) {
    hops_[h]->init(ci.hop_cfgs[h], ci.num_cores);
    hop_stateless_[h] = ci.hop_cfgs[h].stateless ? 1 : 0;
    // The NF's init() leaves its protocol default in flow_idle_timeout; a
    // framework-level override wins.
    hop_idle_[h] = ci.idle_timeout_override != 0
                       ? ci.idle_timeout_override
                       : ci.hop_cfgs[h].flow_idle_timeout;
    if (ci.registry != nullptr) {
      const std::string prefix =
          "chain.h" + std::to_string(h) + "." + hops_[h]->name();
      hop_tm_[h].packets = ci.registry->counter(prefix + ".packets");
      hop_tm_[h].drops = ci.registry->counter(prefix + ".drops");
      if (timed_) hop_tm_[h].ns = ci.registry->counter(prefix + ".ns");
      if (sweep_ && !ci.hop_cfgs[h].stateless) {
        hop_tm_[h].expired = ci.registry->counter(prefix + ".expired");
        hop_tm_[h].sweep_ns = ci.registry->histogram(prefix + ".sweep_ns", 7);
        hop_tm_[h].sweep_groups =
            ci.registry->histogram(prefix + ".sweep_groups", 7);
      }
    }
  }
}

void DynamicChain::housekeeping(std::span<NfContext* const> ctxs, Time now) {
  SPRAYER_DCHECK(ctxs.size() == hops_.size());
  for (u32 h = 0; h < hops_.size(); ++h) {
    NfContext& ctx = *ctxs[h];
    ctx.set_now(now);
    // Housekeeping mutates flow state like connection handling does:
    // attribute its accesses to the flow-event column.
    ctx.flows().set_in_connection_handler(true);
    hops_[h]->housekeeping(ctx);
    // The lifecycle sweep runs for every stateful hop, even at idle
    // timeout 0: NFs with their own expiry semantics (NAT's TIME_WAIT
    // deadline) expire entries through flow_expired() regardless.
    if (sweep_ && hop_stateless_[h] == 0) sweep_hop(h, ctx);
  }
}

void DynamicChain::sweep_hop(u32 h, NfContext& ctx) {
  FlowStateApi& flows = ctx.flows();
  // Auto budget: an eighth of the table per tick — a full rotation every 8
  // housekeeping ticks regardless of capacity, so expiry latency tracks the
  // tick interval, not the provisioned size. The 64-group floor keeps tiny
  // tables rotating in one call.
  const u32 budget =
      sweep_groups_per_tick_ != 0
          ? sweep_groups_per_tick_
          : static_cast<u32>(
                std::max<u64>(64, flows.local().total_groups() / 8));
  const Time idle = hop_idle_[h];
  INetworkFunction* nf = hops_[h];
  const Time t0 = chain_clock_ns();
  const SweepStats st = flows.sweep_idle(
      budget,
      [&](const net::FiveTuple& key, const void* entry, Time last_seen) {
        return nf->flow_expired(key, entry, last_seen, idle, ctx);
      },
      [&](const net::FiveTuple& key, FlowTable::FlowHash hash) {
        nf->on_expire(key, hash, ctx);
      });
  HopMetrics& m = hop_tm_[h];
  if (st.expired > 0) m.expired.add(ctx.core(), st.expired);
  m.sweep_groups.record(ctx.core(), st.groups);
  m.sweep_ns.record(ctx.core(), (chain_clock_ns() - t0) / kNanosecond);
}

void DynamicChain::pass(runtime::PacketBatch& batch, ChainScratch& scratch,
                        std::span<NfContext* const> ctxs, Time now,
                        runtime::PacketBatch& drops, bool connection) {
  BatchMeta& meta = scratch.meta;
  meta.reset();  // built lazily, by the first hop that reads it
  const u32 hops = num_hops();
  for (u32 h = 0; h < hops && !batch.empty(); ++h) {
    INetworkFunction& nf = *hops_[h];
    NfContext& ctx = *ctxs[h];
    ctx.set_now(now);
    // Stateless hops have no flow events to observe: a connection packet
    // is just another packet to them.
    const bool flow_event = connection && hop_stateless_[h] == 0;
    ctx.flows().set_in_connection_handler(flow_event);
    const u32 before = batch.size();
    const Time t0 = timed_ ? chain_clock_ns() : 0;
    scratch.verdicts.reset(before);
    if (flow_event) {
      nf.connection_packets(batch, ctx, scratch.verdicts);
    } else {
      nf.regular_packets(batch, meta, ctx, scratch.verdicts);
    }
    if (scratch.verdicts.any()) {
      (void)batch.compact(
          [&](u32 i) { return scratch.verdicts.dropped(i); }, drops,
          [&](u32 from, u32 to) { meta.move(from, to); });
    }
    // Only downstream hops read the meta / memoized hash; after the last
    // hop an invalidated memo is recomputed lazily by whoever needs it.
    if (h + 1 < hops && nf.rewrites_tuple()) meta.refresh(batch);
    const u32 dropped = before - batch.size();
    HopMetrics& m = hop_tm_[h];
    m.packets.add(ctx.core(), before);
    if (dropped > 0) m.drops.add(ctx.core(), dropped);
    if (timed_) m.ns.add(ctx.core(), (chain_clock_ns() - t0) / kNanosecond);
  }
}

}  // namespace sprayer::core
