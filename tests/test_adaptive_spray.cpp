// Adaptive spraying (DESIGN.md §12): Flow Director exact-vs-checksum
// precedence, elephant/mice hysteresis (no rule-churn flapping), rule-budget
// exhaustion falling back to spray, SimNic p2c steering, and a 4-core churn
// run asserting pinned-flow packets never change cores mid-flow while
// packet conservation holds.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/adaptive_spray.hpp"
#include "core/threaded.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "nic/nic.hpp"
#include "nic/pktgen.hpp"
#include "nic/rss.hpp"
#include "sim/simulator.hpp"

namespace sprayer::core {
namespace {

net::Packet* make_packet(net::PacketPool& pool, const net::FiveTuple& t,
                         u8 flags, u64 payload_seed) {
  net::TcpSegmentSpec spec;
  spec.tuple = t;
  spec.flags = flags;
  spec.payload_len = 8;
  u8 payload[8];
  std::memcpy(payload, &payload_seed, 8);
  spec.payload = payload;
  net::Packet* pkt = net::build_tcp_raw(pool, spec);
  if (pkt != nullptr) pkt->parse();
  return pkt;
}

/// Memoize the symmetric RSS hash the way the injection driver does.
u32 stamp_rss(net::Packet& pkt, nic::RssEngine& rss) {
  const u32 h = rss.hash_of(pkt);
  pkt.set_flow_hash(h);
  return h;
}

// ---------------------------------------------------------------------------
// FlowDirector precedence and budget contract (satellite: nic layer)
// ---------------------------------------------------------------------------

TEST(FlowDirectorPrecedence, ExactRuleOverridesChecksumSprayAndRestores) {
  nic::FlowDirector fdir;
  ASSERT_TRUE(fdir.program_checksum_spray(4).ok());

  net::PacketPool pool(8, 256);
  const auto flows = nic::random_tcp_flows(1, 0x5eed);
  net::Packet* pkt = make_packet(pool, flows[0], net::TcpFlags::kAck, 1);
  ASSERT_NE(pkt, nullptr);

  const auto sprayed = fdir.match_detail(*pkt);
  ASSERT_TRUE(sprayed.hit());
  EXPECT_EQ(sprayed.kind, nic::FlowDirector::MatchKind::kChecksum);

  // Pin to a provably different queue: the exact rule must win.
  const u16 pin_queue = static_cast<u16>((sprayed.queue + 1) % 4);
  ASSERT_TRUE(fdir.add_exact_rule(pkt->five_tuple(), pin_queue).ok());
  EXPECT_EQ(fdir.exact_rule_count(), 1u);

  const auto pinned = fdir.match_detail(*pkt);
  EXPECT_EQ(pinned.kind, nic::FlowDirector::MatchKind::kExact);
  EXPECT_EQ(pinned.queue, pin_queue);
  // The legacy match() surface agrees with match_detail().
  ASSERT_TRUE(fdir.match(*pkt).has_value());
  EXPECT_EQ(*fdir.match(*pkt), pin_queue);

  // Eviction hook: removal restores the checksum verdict exactly.
  EXPECT_TRUE(fdir.remove_exact_rule(pkt->five_tuple()));
  const auto restored = fdir.match_detail(*pkt);
  EXPECT_EQ(restored.kind, nic::FlowDirector::MatchKind::kChecksum);
  EXPECT_EQ(restored.queue, sprayed.queue);
  EXPECT_FALSE(fdir.remove_exact_rule(pkt->five_tuple()));  // idempotent

  pool.free(pkt);
}

TEST(FlowDirectorPrecedence, BudgetExhaustionIsDistinctFromDuplicate) {
  nic::FlowDirector fdir;
  net::FiveTuple t;
  t.dst_ip = net::Ipv4Addr{192, 168, 0, 1};
  t.src_port = 1000;
  t.dst_port = 80;
  t.protocol = net::kProtoTcp;

  t.src_ip = net::Ipv4Addr{0x0a000000u};
  ASSERT_TRUE(fdir.add_exact_rule(t, 0).ok());
  const Status dup = fdir.add_exact_rule(t, 1);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, Error::Code::kAlreadyExists);

  for (u32 i = 1; i < nic::FlowDirector::kMaxRules; ++i) {
    t.src_ip = net::Ipv4Addr{0x0a000000u | i};
    ASSERT_TRUE(fdir.add_exact_rule(t, 0).ok());
  }
  EXPECT_EQ(fdir.remaining_exact_capacity(), 0u);

  t.src_ip = net::Ipv4Addr{0x0b000000u};
  const Status full = fdir.add_exact_rule(t, 0);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, Error::Code::kExhausted);

  // The eviction hook frees budget: removal makes the same add succeed.
  t.src_ip = net::Ipv4Addr{0x0a000000u};
  EXPECT_TRUE(fdir.remove_exact_rule(t));
  EXPECT_EQ(fdir.remaining_exact_capacity(), 1u);
  t.src_ip = net::Ipv4Addr{0x0b000000u};
  EXPECT_TRUE(fdir.add_exact_rule(t, 0).ok());
}

// ---------------------------------------------------------------------------
// AdaptiveSprayPolicy unit behavior (driver-side, ticks driven by hand)
// ---------------------------------------------------------------------------

struct PolicyFixture {
  static constexpr u32 kCores = 4;

  AdaptiveSprayConfig acfg;
  nic::FlowDirector fdir;
  CorePicker picker{kCores};
  nic::RssEngine rss{kCores};
  net::PacketPool pool{64, 256};

  PolicyFixture() {
    acfg.enabled = true;
    acfg.flow_sets = 64;       // 128 slots: evict_scan covers them all
    acfg.evict_scan = 128;
    acfg.sketch_slots = 256;
    acfg.promote_count = 100;
    acfg.demote_count = 50;
    acfg.demote_dwell_ticks = 2;
    acfg.idle_timeout = 10 * kMillisecond;
    acfg.p2c = false;          // no depth probe in unit tests
    EXPECT_TRUE(fdir.program_checksum_spray(kCores).ok());
  }
};

TEST(AdaptiveSprayPolicy, PromoteDemoteHysteresisWithoutRuleChurn) {
  PolicyFixture fx;
  AdaptiveSprayPolicy policy(fx.acfg, PolicyFixture::kCores, fx.fdir,
                             fx.picker);

  const auto flows = nic::random_tcp_flows(1, 0xabc);
  net::Packet* pkt = make_packet(fx.pool, flows[0], net::TcpFlags::kAck, 1);
  ASSERT_NE(pkt, nullptr);
  const u32 h = stamp_rss(*pkt, fx.rss);
  const u16 designated = static_cast<u16>(fx.picker.pick_hash(h));

  // First sight: presumed mouse, pinned to the designated queue.
  const Time t0 = kMillisecond;
  EXPECT_EQ(policy.steer(*pkt, h, t0),
            designated);
  EXPECT_EQ(fx.fdir.exact_rule_count(), 1u);
  EXPECT_EQ(policy.stats().pins_installed, 1u);
  EXPECT_EQ(policy.stats().pinned_flows, 1u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(policy.steer(*pkt, h, t0),
              designated);
  }

  // Heavy rate -> promoted to elephant: the pin rule is dropped.
  for (int i = 0; i < 150; ++i) policy.sketch(0).update(h);
  policy.tick(t0);
  EXPECT_EQ(policy.stats().elephant_promotions, 1u);
  EXPECT_EQ(policy.stats().pinned_flows, 0u);
  EXPECT_EQ(fx.fdir.exact_rule_count(), 0u);

  // Mid-band rate (between demote and promote): hysteresis holds the
  // elephant state — no flapping, no new rules.
  policy.sketch(0).decay();  // 150 -> 75, inside [50, 100)
  policy.tick(t0);
  policy.tick(t0);
  policy.tick(t0);
  EXPECT_EQ(policy.stats().elephant_promotions, 1u);
  EXPECT_EQ(policy.stats().elephant_demotions, 0u);
  EXPECT_EQ(policy.stats().pins_installed, 1u);
  EXPECT_EQ(fx.fdir.exact_rule_count(), 0u);

  // Rate drops below demote_count: demotion only after the dwell.
  policy.sketch(0).decay();  // 75 -> 37, below 50
  policy.tick(t0);           // dwell 1 of 2
  EXPECT_EQ(policy.stats().elephant_demotions, 0u);
  EXPECT_EQ(fx.fdir.exact_rule_count(), 0u);
  policy.tick(t0);           // dwell 2 of 2 -> re-pin
  EXPECT_EQ(policy.stats().elephant_demotions, 1u);
  EXPECT_EQ(policy.stats().pinned_flows, 1u);
  EXPECT_EQ(fx.fdir.exact_rule_count(), 1u);
  // Across the whole promote/demote cycle exactly two rule installs
  // happened (initial pin + demotion re-pin): no churn.
  EXPECT_EQ(policy.stats().pins_installed, 2u);
  EXPECT_EQ(policy.steer(*pkt, h, t0),
            designated);

  fx.pool.free(pkt);
}

TEST(AdaptiveSprayPolicy, RuleBudgetExhaustionFallsBackToSpray) {
  PolicyFixture fx;
  fx.acfg.rule_budget = 2;
  AdaptiveSprayPolicy policy(fx.acfg, PolicyFixture::kCores, fx.fdir,
                             fx.picker);

  const auto flows = nic::random_tcp_flows(3, 0x77);
  std::vector<net::Packet*> pkts;
  std::vector<u32> hashes;
  for (const auto& f : flows) {
    net::Packet* pkt = make_packet(fx.pool, f, net::TcpFlags::kAck, 1);
    ASSERT_NE(pkt, nullptr);
    hashes.push_back(stamp_rss(*pkt, fx.rss));
    pkts.push_back(pkt);
  }

  // Two pins fit the budget; the third mouse must fall back to spraying —
  // a valid queue, not an error.
  const Time t0 = kMillisecond;
  for (int i = 0; i < 3; ++i) {
    const u16 q =
        policy.steer(*pkts[i], hashes[i], t0);
    EXPECT_LT(q, PolicyFixture::kCores);
  }
  EXPECT_EQ(policy.stats().pinned_flows, 2u);
  EXPECT_EQ(policy.stats().pin_fallbacks, 1u);
  EXPECT_EQ(fx.fdir.exact_rule_count(), 2u);

  // Flows 0 and 1 go idle; flow 2 stays active. The maintenance sweep must
  // evict the idle rules and then claim the freed budget for the fallback.
  const Time t1 = t0 + fx.acfg.idle_timeout + 5 * kMillisecond;
  (void)policy.steer(*pkts[2], hashes[2], t1);
  policy.tick(t1);
  policy.tick(t1);  // sweep order is arbitrary: one more pass to re-pin
  EXPECT_EQ(policy.stats().rule_evictions, 2u);
  EXPECT_EQ(policy.stats().pinned_flows, 1u);
  EXPECT_EQ(policy.stats().pins_installed, 3u);
  EXPECT_EQ(policy.steer(*pkts[2], hashes[2], t1),
            static_cast<u16>(fx.picker.pick_hash(hashes[2])));

  for (net::Packet* pkt : pkts) fx.pool.free(pkt);
}

// ---------------------------------------------------------------------------
// SimNic queue-depth-aware spraying (p2c hardware analog)
// ---------------------------------------------------------------------------

TEST(SimNicP2c, SpraysTowardShallowQueuesButNeverDeflectsPins) {
  sim::Simulator sim;
  nic::NicConfig ncfg;
  ncfg.num_queues = 2;
  ncfg.queue_depth = 512;
  ncfg.fdir_max_pps = 0;  // no classification ceiling in this test
  ncfg.p2c_spray = true;
  nic::SimNic nic(sim, ncfg);
  ASSERT_TRUE(nic.fdir().program_checksum_spray(2).ok());

  net::PacketPool pool(1024, 256);
  const auto flows = nic::random_tcp_flows(16, 0x1234);

  // Spray 256 packets (payload entropy varies the checksum) without
  // polling: with power-of-two choices the two queues can never drift more
  // than one packet apart.
  for (int i = 0; i < 256; ++i) {
    net::Packet* pkt = make_packet(pool, flows[i % flows.size()],
                                   net::TcpFlags::kAck,
                                   static_cast<u64>(i) * 0x9e3779b97f4a7c15ULL);
    ASSERT_NE(pkt, nullptr);
    nic.receive(pkt);
  }
  const u32 d0 = nic.queue_depth(0);
  const u32 d1 = nic.queue_depth(1);
  EXPECT_EQ(d0 + d1, 256u);
  EXPECT_LE(d0 > d1 ? d0 - d1 : d1 - d0, 1u);
  EXPECT_GT(nic.counters().p2c_deflections, 0u);

  // An exact-pinned flow ignores depth: every packet lands on its pinned
  // queue even while the other queue is shallower.
  const auto pinned_flow = nic::random_tcp_flows(1, 0x9999)[0];
  ASSERT_TRUE(nic.fdir().add_exact_rule(pinned_flow, 0).ok());
  const u64 deflections_before = nic.counters().p2c_deflections;
  const u32 q0_before = nic.queue_depth(0);
  for (int i = 0; i < 64; ++i) {
    net::Packet* pkt = make_packet(pool, pinned_flow, net::TcpFlags::kAck,
                                   static_cast<u64>(i));
    ASSERT_NE(pkt, nullptr);
    nic.receive(pkt);
  }
  EXPECT_EQ(nic.queue_depth(0), q0_before + 64);
  EXPECT_EQ(nic.counters().p2c_deflections, deflections_before);

  // Drain both queues and return every packet to the pool.
  net::Packet* out[64];
  for (u16 q = 0; q < 2; ++q) {
    u32 n;
    while ((n = nic.rx_burst(q, out, 64)) > 0) {
      for (u32 i = 0; i < n; ++i) out[i]->pool()->free(out[i]);
    }
  }
  EXPECT_EQ(pool.available(), pool.size());
}

// ---------------------------------------------------------------------------
// Threaded 4-core churn: pinned flows never change cores mid-flow
// ---------------------------------------------------------------------------

/// Records, per flow hash, the set of cores whose worker processed its
/// packets. Mutex-protected map: this is a test probe, and the lock also
/// gives TSan a clean happens-before edge for the final read.
class CoreRecordingNf final : public INetworkFunction {
 public:
  void connection_packets(runtime::PacketBatch& batch, NfContext& ctx,
                          BatchVerdicts& verdicts) override {
    record(batch, ctx);
    (void)verdicts;  // forward everything
  }
  void regular_packets(runtime::PacketBatch& batch, BatchMeta& /*meta*/,
                       NfContext& ctx, BatchVerdicts& verdicts) override {
    record(batch, ctx);
    (void)verdicts;
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "core_recorder";
  }

  [[nodiscard]] std::unordered_map<u32, u8> core_masks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return masks_;
  }

 private:
  void record(runtime::PacketBatch& batch, NfContext& ctx) {
    std::lock_guard<std::mutex> lock(mu_);
    for (net::Packet* pkt : batch) {
      if (pkt->has_flow_hash()) {
        masks_[pkt->flow_hash()] |= static_cast<u8>(1u << ctx.core());
      }
    }
  }

  mutable std::mutex mu_;
  std::unordered_map<u32, u8> masks_;
};

TEST(AdaptiveSprayThreaded, PinnedFlowsNeverChangeCoresAcrossChurn) {
  constexpr u32 kCores = 4;
  net::PacketPool pool(8192, 256);
  CoreRecordingNf nf;
  std::atomic<u64> forwarded{0};

  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  cfg.housekeeping_interval = kMillisecond;
  cfg.reorder_observatory = true;
  cfg.adaptive.enabled = true;
  cfg.adaptive.flow_sets = 1024;
  cfg.adaptive.evict_scan = 2048;  // every tick sweeps the whole cache
  cfg.adaptive.update_interval = kMillisecond;
  cfg.adaptive.idle_timeout = 5 * kMillisecond;
  cfg.adaptive.promote_count = u64{1} << 40;  // nothing ever promotes
  ThreadedMiddlebox mbox(cfg, nf,
                         ThreadedMiddlebox::TxBatchHandler{
                             [&](std::span<net::Packet* const> pkts) {
                               forwarded.fetch_add(
                                   pkts.size(), std::memory_order_relaxed);
                               net::free_packets(pkts);
                             }});
  mbox.start();

  // Pick 64 flows whose flow-cache set indices are all distinct, so the
  // test exercises rule churn (evict/re-pin) and never the 2-way-conflict
  // fallback — that keeps `unpinned_sprays == 0` a hard invariant below.
  nic::RssEngine rss(kCores);
  const auto candidates = nic::random_tcp_flows(512, 0xaaaa);
  std::vector<net::FiveTuple> wave_a;
  std::vector<net::FiveTuple> wave_b;
  {
    std::unordered_map<u32, bool> used_sets;
    for (const auto& f : candidates) {
      const u32 set = rss.hash_of(f) & (cfg.adaptive.flow_sets - 1);
      if (used_sets.try_emplace(set).second) {
        (wave_a.size() < 32 ? wave_a : wave_b).push_back(f);
        if (wave_b.size() == 32) break;
      }
    }
  }
  ASSERT_EQ(wave_a.size(), 32u);
  ASSERT_EQ(wave_b.size(), 32u);
  std::vector<u32> tracked_hashes;

  u64 injected = 0;
  auto pump = [&](const std::vector<net::FiveTuple>& flows, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (const auto& f : flows) {
        net::Packet* pkt = make_packet(
            pool, f, r == 0 ? net::TcpFlags::kSyn : net::TcpFlags::kAck,
            static_cast<u64>(r) * 31 + 7);
        if (pkt == nullptr) {  // pool backpressure: let workers drain
          std::this_thread::yield();
          continue;
        }
        if (r == 0) tracked_hashes.push_back(rss.hash_of(*pkt));
        if (mbox.inject(pkt)) ++injected;
      }
    }
  };

  // Wave A, then a long-enough gap that its pins go idle and get evicted
  // while wave B churns the cache, then wave A again (re-pinned).
  pump(wave_a, 40);
  mbox.wait_idle();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  pump(wave_b, 40);
  mbox.wait_idle();
  pump(wave_a, 40);
  mbox.wait_idle();
  mbox.stop();

  // Conservation: every accepted packet came out exactly once.
  EXPECT_EQ(forwarded.load(), injected);
  EXPECT_EQ(pool.available(), pool.size());

  // Every flow stayed a pinned mouse (no promotions, no cache conflicts
  // forcing an unpinned spray) ...
  ASSERT_NE(mbox.adaptive(), nullptr);
  const auto& st = mbox.adaptive()->stats();
  EXPECT_EQ(st.elephant_promotions, 0u);
  EXPECT_EQ(st.pin_fallbacks, 0u);
  EXPECT_EQ(st.unpinned_sprays, 0u);
  // ... and rules did churn across the idle gap (evictions + re-pins).
  EXPECT_GT(st.rule_evictions, 0u);
  EXPECT_GT(st.pins_installed, 64u);

  // The invariant: a pinned flow's packets were processed on exactly one
  // core — its designated core — even across rule eviction and re-pinning.
  const auto masks = nf.core_masks();
  for (const u32 h : tracked_hashes) {
    const auto it = masks.find(h);
    ASSERT_NE(it, masks.end());
    const u8 mask = it->second;
    EXPECT_EQ(mask & (mask - 1), 0)  // power of two: exactly one core
        << "flow hash " << h << " ran on cores mask " << int{mask};
    EXPECT_EQ(mask, 1u << mbox.picker().pick_hash(h));
  }

  // Pinned flows take the per-flow FIFO path end to end: the observatory
  // must have seen zero out-of-order packets.
  const auto reorder = mbox.reorder_stats();
  EXPECT_GT(reorder.packets_observed, 0u);
  EXPECT_EQ(reorder.ooo_packets, 0u);
}

}  // namespace
}  // namespace sprayer::core
