// Flow-state lifecycle (DESIGN.md §15): inline last_seen stamps, the
// cursor-bounded idle sweep, segmented online resize, and the NF-level
// expiry contracts — FIN teardown leaves no state behind, idle aging
// releases NAT ports, retransmitted FINs never close a half-open
// connection, and growth absorbs load beyond the provisioned capacity
// while readers run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/core_picker.hpp"
#include "core/flow_state.hpp"
#include "core/flow_table.hpp"
#include "core/threaded.hpp"
#include "net/packet_builder.hpp"
#include "nf/load_balancer.hpp"
#include "nf/monitor.hpp"
#include "nf/nat.hpp"
#include "nic/pktgen.hpp"
#include "state/strategy.hpp"

namespace sprayer::core {
namespace {

constexpr u32 kCores = 4;

net::FiveTuple tuple_of(u32 i) {
  return net::FiveTuple{
      net::Ipv4Addr{10, static_cast<u8>(i >> 8), static_cast<u8>(i), 1},
      net::Ipv4Addr{10, 99, static_cast<u8>(i >> 8), static_cast<u8>(i)},
      static_cast<u16>(1024 + (i % 40000)), 80, net::kProtoTcp};
}

net::FiveTuple udp_tuple_of(u32 i) {
  net::FiveTuple t = tuple_of(i);
  t.protocol = net::kProtoUdp;
  return t;
}

// --- unit: inline last_seen stamps ------------------------------------------

TEST(FlowTableStamps, TouchAndReadBack) {
  FlowTable t(64, 16, 0);
  const auto key = tuple_of(1);
  void* e = t.insert(key);
  ASSERT_NE(e, nullptr);
  // Insert zeroes the stamp along with the entry.
  EXPECT_EQ(FlowTable::last_seen(e), 0u);
  FlowTable::touch(e, 5 * kSecond);
  EXPECT_EQ(FlowTable::last_seen(e), 5 * kSecond);
  // touch_if_stale: within the granularity window the stamp stays put...
  FlowTable::touch_if_stale(e, 5 * kSecond + kMicrosecond, kMillisecond);
  EXPECT_EQ(FlowTable::last_seen(e), 5 * kSecond);
  // ...and past it the stamp advances.
  FlowTable::touch_if_stale(e, 5 * kSecond + 2 * kMillisecond, kMillisecond);
  EXPECT_EQ(FlowTable::last_seen(e), 5 * kSecond + 2 * kMillisecond);
}

TEST(FlowTableStamps, SlotReuseClearsStamp) {
  FlowTable t(64, 16, 0);
  const auto key = tuple_of(2);
  void* e = t.insert(key);
  ASSERT_NE(e, nullptr);
  FlowTable::touch(e, 9 * kSecond);
  ASSERT_TRUE(t.remove(key));
  // Re-inserting (likely the same slot) must not inherit the old stamp.
  void* e2 = t.insert(key);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(FlowTable::last_seen(e2), 0u);
}

// --- unit: segmented online resize ------------------------------------------

TEST(FlowTableGrowth, GrowthOffKeepsSeedFullTableBehavior) {
  // Mirror of FlowTable.RespectsMaxLoadFactor: without set_growth() the
  // table must fill to capacity - capacity/8 and then refuse.
  FlowTable t(64, 8, 0);
  u32 inserted = 0;
  for (u32 i = 0; i < 64; ++i) {
    if (t.insert(tuple_of(i)) != nullptr) ++inserted;
  }
  EXPECT_EQ(inserted, 64u - 64u / 8u);
  EXPECT_EQ(t.num_segments(), 1u);
  EXPECT_EQ(t.capacity(), 64u);
}

TEST(FlowTableGrowth, GrowsBySegmentsAndFindsEverything) {
  FlowTable t(64, 16, 0);
  t.set_growth(4);
  constexpr u32 kFlows = 150;  // > 2 segments' worth of headroom
  for (u32 i = 0; i < kFlows; ++i) {
    auto* e = static_cast<u8*>(t.insert(tuple_of(i)));
    ASSERT_NE(e, nullptr) << "insert " << i << " failed despite growth";
    std::memset(e, static_cast<int>(i & 0xff), 16);
  }
  EXPECT_EQ(t.size(), kFlows);
  EXPECT_GT(t.num_segments(), 1u);
  EXPECT_LE(t.num_segments(), 4u);
  EXPECT_EQ(t.capacity(), 64u * t.num_segments());
  for (u32 i = 0; i < kFlows; ++i) {
    const auto* e = static_cast<const u8*>(t.find_local(tuple_of(i)));
    ASSERT_NE(e, nullptr) << "flow " << i << " lost after growth";
    EXPECT_EQ(e[0], static_cast<u8>(i & 0xff));
    // The remote (cross-core) path must see segment entries too.
    EXPECT_EQ(t.find_remote(tuple_of(i)), e);
  }
}

TEST(FlowTableGrowth, InsertIsIdempotentAcrossSegments) {
  FlowTable t(64, 16, 0);
  t.set_growth(4);
  for (u32 i = 0; i < 120; ++i) ASSERT_NE(t.insert(tuple_of(i)), nullptr);
  ASSERT_GT(t.num_segments(), 1u);
  const u64 size_before = t.size();
  // Re-inserting every key must return the existing entry, never a
  // duplicate in a later segment.
  for (u32 i = 0; i < 120; ++i) {
    void* again = t.insert(tuple_of(i));
    EXPECT_EQ(again, t.find_local(tuple_of(i)));
  }
  EXPECT_EQ(t.size(), size_before);
}

TEST(FlowTableGrowth, RemoveWorksInEverySegmentAndCapacityIsBounded) {
  FlowTable t(64, 16, 0);
  t.set_growth(2);
  std::vector<net::FiveTuple> keys;
  for (u32 i = 0; i < 4096; ++i) {
    const auto key = tuple_of(i);
    if (t.insert(key) == nullptr) break;  // both segments full
    keys.push_back(key);
  }
  // Growth is bounded by max_segments: the table refused eventually.
  EXPECT_EQ(t.num_segments(), 2u);
  EXPECT_LT(keys.size(), 128u);
  for (const auto& key : keys) EXPECT_TRUE(t.remove(key));
  EXPECT_EQ(t.size(), 0u);
  // And the emptied table accepts inserts again.
  EXPECT_NE(t.insert(tuple_of(9999)), nullptr);
}

TEST(FlowTableGrowth, FindBatchSpansSegments) {
  FlowTable t(64, 16, 0);
  t.set_growth(4);
  constexpr u32 kFlows = 120;
  std::vector<net::FiveTuple> keys;
  std::vector<FlowTable::FlowHash> hashes;
  for (u32 i = 0; i < kFlows; ++i) {
    keys.push_back(tuple_of(i));
    hashes.push_back(FlowTable::hash_of(keys.back()));
    ASSERT_NE(t.insert(keys.back(), hashes.back()), nullptr);
  }
  ASSERT_GT(t.num_segments(), 1u);
  std::vector<const void*> out(kFlows, nullptr);
  const u32 hits = t.find_batch(keys, hashes, out);
  EXPECT_EQ(hits, kFlows);
  for (u32 i = 0; i < kFlows; ++i) {
    EXPECT_EQ(out[i], t.find_remote(keys[i], hashes[i])) << i;
  }
}

// --- unit: the cursor-bounded sweep -----------------------------------------

TEST(FlowTableSweep, VisitsEveryEntryOncePerRotationAndIsBounded) {
  FlowTable t(256, 16, 0);
  constexpr u32 kFlows = 100;
  for (u32 i = 0; i < kFlows; ++i) ASSERT_NE(t.insert(tuple_of(i)), nullptr);
  const u64 total = t.total_groups();
  EXPECT_EQ(total, 256u / FlowTable::kGroupWidth);
  u64 cursor = 0;
  std::multiset<std::string> seen;
  u64 calls = 0;
  while (cursor < total) {
    // Bounded work: never more than 4 groups per call.
    const u32 scanned = t.sweep_groups(
        cursor, 4, [&](const net::FiveTuple& key, void*, Time) {
          seen.insert(key.to_string());
        });
    EXPECT_LE(scanned, 4u);
    ++calls;
  }
  EXPECT_GE(calls, total / 4);
  EXPECT_EQ(seen.size(), kFlows);  // each entry exactly once: no dups
  for (u32 i = 0; i < kFlows; ++i) {
    EXPECT_EQ(seen.count(tuple_of(i).to_string()), 1u) << i;
  }
  // The cursor wraps: a second rotation revisits the same population.
  std::multiset<std::string> second;
  for (u64 g = 0; g < total; g += 4) {
    (void)t.sweep_groups(cursor, 4,
                         [&](const net::FiveTuple& key, void*, Time) {
                           second.insert(key.to_string());
                         });
  }
  EXPECT_EQ(second, seen);
}

TEST(FlowTableSweep, CoversNewSegmentsAfterGrowth) {
  FlowTable t(64, 16, 0);
  t.set_growth(4);
  constexpr u32 kFlows = 120;
  for (u32 i = 0; i < kFlows; ++i) ASSERT_NE(t.insert(tuple_of(i)), nullptr);
  ASSERT_GT(t.num_segments(), 1u);
  u64 cursor = 0;
  std::set<std::string> seen;
  const u64 total = t.total_groups();
  for (u64 g = 0; g < total; g += 8) {
    (void)t.sweep_groups(cursor, 8,
                         [&](const net::FiveTuple& key, void*, Time) {
                           seen.insert(key.to_string());
                         });
  }
  EXPECT_EQ(seen.size(), kFlows);
}

// --- unit: FlowStateApi::sweep_idle — UDP-style pure idle aging -------------

TEST(SweepIdle, ExpiresIdleUdpFlowsAndSparesRefreshedOnes) {
  // UDP flows have no FIN: idle aging is the only way they ever leave the
  // table. Single-core writing-partition api: it owns every flow.
  FlowTable table(256, 16, 0);
  FlowTable* tables[] = {&table};
  CorePicker picker(1);
  CostModel costs;
  Cycles sink = 0;
  FlowStateApi api(0, tables, picker, costs, sink);

  constexpr Time kIdle = 10 * kSecond;
  api.set_now(100 * kSecond);
  constexpr u32 kFlows = 40;
  for (u32 i = 0; i < kFlows; ++i) {
    ASSERT_NE(api.insert_local_flow(udp_tuple_of(i)), nullptr);
  }
  // Half the flows stay active: refresh their stamps much later.
  api.set_now(150 * kSecond);
  for (u32 i = 0; i < kFlows; i += 2) {
    ASSERT_NE(api.get_local_flow(udp_tuple_of(i)), nullptr);
  }
  // Sweep at a time where only the unrefreshed half is past the timeout.
  api.set_now(155 * kSecond);
  auto pred = [&api](const net::FiveTuple&, const void*, Time last_seen) {
    return last_seen + kIdle <= api.now();
  };
  u32 expired = 0;
  auto on_expire = [&](const net::FiveTuple& key, FlowTable::FlowHash hash) {
    EXPECT_TRUE(api.remove_local_flow(key, hash));
    ++expired;
  };
  // Drive full rotations until a whole pass finds nothing more.
  for (u32 round = 0; round < 4; ++round) {
    (void)api.sweep_idle(static_cast<u32>(table.total_groups()), pred,
                         on_expire);
  }
  EXPECT_EQ(expired, kFlows / 2);
  EXPECT_EQ(table.size(), kFlows / 2);
  for (u32 i = 0; i < kFlows; ++i) {
    const bool refreshed = (i % 2) == 0;
    EXPECT_EQ(api.get_local_flow(udp_tuple_of(i)) != nullptr, refreshed) << i;
  }
}

TEST(SweepIdle, CandidateBatchIsBoundedPerCall) {
  FlowTable table(4096, 16, 0);
  FlowTable* tables[] = {&table};
  CorePicker picker(1);
  CostModel costs;
  Cycles sink = 0;
  FlowStateApi api(0, tables, picker, costs, sink);
  api.set_now(kSecond);
  // Far more idle flows than one sweep call may expire.
  for (u32 i = 0; i < 2000; ++i) {
    ASSERT_NE(api.insert_local_flow(udp_tuple_of(i)), nullptr);
  }
  api.set_now(100 * kSecond);
  u32 expired = 0;
  const auto st = api.sweep_idle(
      static_cast<u32>(table.total_groups()),
      [](const net::FiveTuple&, const void*, Time) { return true; },
      [&](const net::FiveTuple& key, FlowTable::FlowHash hash) {
        EXPECT_TRUE(api.remove_local_flow(key, hash));
        ++expired;
      });
  EXPECT_EQ(expired, FlowStateApi::kSweepCandidates);
  EXPECT_EQ(st.expired, FlowStateApi::kSweepCandidates);
}

// --- threaded harness --------------------------------------------------------

net::Packet* make_packet(net::PacketPool& pool, const net::FiveTuple& t,
                         u8 flags) {
  net::TcpSegmentSpec spec;
  spec.tuple = t;
  spec.flags = flags;
  return net::build_tcp_raw(pool, spec);
}

void must_inject(ThreadedMiddlebox& mbox, net::PacketPool& pool,
                 const net::FiveTuple& t, u8 flags) {
  for (;;) {
    net::Packet* pkt = make_packet(pool, t, flags);
    if (pkt != nullptr && mbox.inject(pkt)) return;
    std::this_thread::yield();
  }
}

void settle(ThreadedMiddlebox& mbox, u32 millis = 25) {
  mbox.wait_idle();
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  mbox.wait_idle();
}

/// Live flow entries, respecting the strategy's table layout (count the
/// replica table once).
u64 live_entries(ThreadedMiddlebox& mbox,
                 state::StateStrategyKind kind) {
  if (kind == state::StateStrategyKind::kWritingPartition) {
    u64 n = 0;
    for (u32 c = 0; c < kCores; ++c) {
      n += mbox.flow_table(static_cast<CoreId>(c)).size();
    }
    return n;
  }
  return mbox.flow_table(0).size();
}

SprayerConfig lifecycle_cfg(state::StateStrategyKind kind, Time idle) {
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  cfg.overload_policy = OverloadPolicy::kBlock;
  cfg.housekeeping_interval = 5 * kMillisecond;
  cfg.state.kind = kind;
  cfg.lifecycle.idle_timeout = idle;
  return cfg;
}

// --- teardown: FIN handshake leaves zero state, under every strategy --------

void fin_teardown_under(state::StateStrategyKind kind) {
  net::PacketPool pool(8192, 256);
  nf::MonitorNf monitor;
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  // Idle aging stays out of the way (60s default): removals below are pure
  // FIN teardown.
  ThreadedMiddlebox mbox(lifecycle_cfg(kind, 0), monitor, std::move(sink));
  mbox.start();
  const auto flows = nic::random_tcp_flows(48, 11);
  for (const auto& f : flows) must_inject(mbox, pool, f, net::TcpFlags::kSyn);
  mbox.wait_idle();
  // Full bidirectional close: one FIN per direction.
  for (const auto& f : flows) {
    must_inject(mbox, pool, f, net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  mbox.wait_idle();
  for (const auto& f : flows) {
    must_inject(mbox, pool, f.reversed(),
                net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  settle(mbox);
  const auto totals = monitor.aggregate();
  EXPECT_EQ(totals.connections_opened, flows.size());
  EXPECT_EQ(totals.connections_closed, flows.size());
  EXPECT_EQ(live_entries(mbox, kind), 0u) << "stranded entries after FINs";
  mbox.stop();
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(FinTeardown, WritingPartition) {
  fin_teardown_under(state::StateStrategyKind::kWritingPartition);
}
TEST(FinTeardown, Replication) {
  fin_teardown_under(state::StateStrategyKind::kReplication);
}

// --- the double-FIN bug: retransmitted FINs must not close ------------------

TEST(FinTeardown, RetransmittedFinStaysOpenMonitor) {
  net::PacketPool pool(4096, 256);
  nf::MonitorNf monitor;
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  ThreadedMiddlebox mbox(
      lifecycle_cfg(state::StateStrategyKind::kWritingPartition, 0), monitor,
      std::move(sink));
  mbox.start();
  const auto f = tuple_of(7);
  must_inject(mbox, pool, f, net::TcpFlags::kSyn);
  mbox.wait_idle();
  // Three copies of the SAME direction's FIN: the old fin_count logic
  // closed on the second copy; direction bits must keep it half-open.
  for (int i = 0; i < 3; ++i) {
    must_inject(mbox, pool, f, net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  settle(mbox);
  EXPECT_EQ(monitor.aggregate().connections_closed, 0u);
  EXPECT_EQ(live_entries(mbox, state::StateStrategyKind::kWritingPartition),
            1u);
  // The peer's FIN completes the handshake.
  must_inject(mbox, pool, f.reversed(),
              net::TcpFlags::kFin | net::TcpFlags::kAck);
  settle(mbox);
  EXPECT_EQ(monitor.aggregate().connections_closed, 1u);
  EXPECT_EQ(live_entries(mbox, state::StateStrategyKind::kWritingPartition),
            0u);
  mbox.stop();
}

TEST(FinTeardown, RetransmittedFinStaysOpenLoadBalancer) {
  net::PacketPool pool(4096, 256);
  nf::LbConfig lb_cfg;
  lb_cfg.backends.push_back(
      {net::MacAddr::from_id(100), net::Ipv4Addr{10, 1, 0, 1}});
  nf::LoadBalancerNf lb(lb_cfg);
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  ThreadedMiddlebox mbox(
      lifecycle_cfg(state::StateStrategyKind::kWritingPartition, 0), lb,
      std::move(sink));
  mbox.start();
  const net::FiveTuple f{net::Ipv4Addr{10, 0, 0, 1}, lb_cfg.vip, 2001,
                         lb_cfg.vport, net::kProtoTcp};
  must_inject(mbox, pool, f, net::TcpFlags::kSyn);
  mbox.wait_idle();
  for (int i = 0; i < 3; ++i) {
    must_inject(mbox, pool, f, net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  settle(mbox);
  // Pin still held: three same-direction FINs are one half-close.
  EXPECT_EQ(lb.active_connections()[0], 1);
  must_inject(mbox, pool, f.reversed(),
              net::TcpFlags::kFin | net::TcpFlags::kAck);
  settle(mbox);
  EXPECT_EQ(lb.active_connections()[0], 0);
  mbox.stop();
}

// --- idle aging: NAT sessions release their ports, replicas converge --------

void nat_idle_aging_under(state::StateStrategyKind kind) {
  net::PacketPool pool(8192, 256);
  nf::NatConfig nat_cfg;
  nf::NatNf nat(nat_cfg);
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  // Aggressive idle timeout: sessions that go quiet are reaped within a
  // few sweep rotations.
  ThreadedMiddlebox mbox(lifecycle_cfg(kind, 40 * kMillisecond), nat,
                         std::move(sink));
  mbox.start();
  const auto flows = nic::random_tcp_flows(24, 17);
  for (const auto& f : flows) {
    must_inject(mbox, pool, f, net::TcpFlags::kSyn);
    mbox.wait_idle();
  }
  EXPECT_EQ(nat.counters().sessions_opened, flows.size());
  // No claimed-port assertion here: the timeout is aggressive enough that
  // on a loaded host the earliest sessions can already be reaped before
  // the ramp finishes. The quiescent-state checks below are the contract.
  // Go quiet; idle aging must reclaim every session (two entries each) and
  // conserve the port pool. Worst case: 40ms idle + 8-tick rotation at 5ms.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         nat.port_pool().claimed() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  settle(mbox);
  EXPECT_EQ(nat.port_pool().claimed(), 0u) << "leaked NAT ports";
  EXPECT_EQ(live_entries(mbox, kind), 0u) << "stranded NAT entries";
  EXPECT_EQ(nat.counters().sessions_expired, flows.size());
  if (kind == state::StateStrategyKind::kReplication) {
    const auto report = mbox.state_strategy().check_divergence();
    EXPECT_TRUE(report.clean())
        << "expiry diverged: missing=" << report.missing_entries
        << " extra=" << report.extra_entries
        << " mismatched=" << report.mismatched_entries;
  }
  mbox.stop();
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(IdleAging, NatReleasesPortsWritingPartition) {
  nat_idle_aging_under(state::StateStrategyKind::kWritingPartition);
}
TEST(IdleAging, NatReleasesPortsReplication) {
  nat_idle_aging_under(state::StateStrategyKind::kReplication);
}

TEST(IdleAging, ActiveTrafficKeepsSessionsAlive) {
  net::PacketPool pool(8192, 256);
  nf::NatNf nat;
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  ThreadedMiddlebox mbox(
      lifecycle_cfg(state::StateStrategyKind::kWritingPartition,
                    60 * kMillisecond),
      nat, std::move(sink));
  mbox.start();
  const auto flows = nic::random_tcp_flows(8, 23);
  // Touch the sessions already open while the others open: on a loaded host
  // each wait_idle can take tens of milliseconds, and a session left idle
  // for the whole ramp really does pass its timeout before the loop below.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    must_inject(mbox, pool, flows[i], net::TcpFlags::kSyn);
    for (std::size_t j = 0; j < i; ++j) {
      must_inject(mbox, pool, flows[j], net::TcpFlags::kAck);
    }
    mbox.wait_idle();
  }
  // Keep every session busy for several timeout periods: the per-packet
  // get_flow touch must hold expiry off.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  while (std::chrono::steady_clock::now() < until) {
    for (const auto& f : flows) {
      must_inject(mbox, pool, f, net::TcpFlags::kAck);
    }
    mbox.wait_idle();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(nat.counters().sessions_expired, 0u)
      << "sweep expired sessions with live traffic";
  EXPECT_EQ(nat.port_pool().claimed(), flows.size());
  mbox.stop();
}

// --- table_full: the silent-drop bug is now observable -----------------------

TEST(TableFull, MonitorCountsRefusedSyns) {
  net::PacketPool pool(8192, 256);
  nf::MonitorNf monitor;
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  // Tiny tables, growth off: the SYN flood must overflow them.
  SprayerConfig cfg =
      lifecycle_cfg(state::StateStrategyKind::kWritingPartition, 0);
  cfg.lifecycle.flow_table_capacity = 64;
  ThreadedMiddlebox mbox(cfg, monitor, std::move(sink));
  mbox.start();
  constexpr u32 kSyns = 400;  // 4 cores x 56 usable slots << 400 flows
  for (u32 i = 0; i < kSyns; ++i) {
    must_inject(mbox, pool, tuple_of(i), net::TcpFlags::kSyn);
  }
  settle(mbox);
  const auto totals = monitor.aggregate();
  EXPECT_GT(totals.table_full, 0u);
  EXPECT_EQ(totals.connections_opened + totals.table_full, kSyns);
  mbox.stop();
}

// --- segmented resize under load (the TSan witness) --------------------------

TEST(ResizeUnderLoad, GrowthAbsorbsSynFloodWhileCoresRun) {
  net::PacketPool pool(16384, 256);
  nf::MonitorNf monitor;
  ThreadedMiddlebox::TxHandler sink = [](net::Packet* pkt) {
    pkt->pool()->free(pkt);
  };
  // Provision small, allow 8 segments: the flood fits only by growing
  // online while all cores insert, read, and sweep.
  SprayerConfig cfg =
      lifecycle_cfg(state::StateStrategyKind::kWritingPartition, 0);
  cfg.lifecycle.flow_table_capacity = 256;
  cfg.lifecycle.max_table_segments = 8;
  ThreadedMiddlebox mbox(cfg, monitor, std::move(sink));
  mbox.start();
  constexpr u32 kFlows = 2000;
  for (u32 i = 0; i < kFlows; ++i) {
    must_inject(mbox, pool, tuple_of(i), net::TcpFlags::kSyn);
    // Interleave reads of earlier flows: concurrent find during growth.
    if (i % 7 == 0) {
      must_inject(mbox, pool, tuple_of(i / 2), net::TcpFlags::kAck);
    }
  }
  settle(mbox);
  const auto totals = monitor.aggregate();
  EXPECT_EQ(totals.table_full, 0u) << "growth failed to absorb the flood";
  EXPECT_EQ(totals.connections_opened, kFlows);
  u64 grown_tables = 0;
  for (u32 c = 0; c < kCores; ++c) {
    if (mbox.flow_table(static_cast<CoreId>(c)).num_segments() > 1) {
      ++grown_tables;
    }
  }
  EXPECT_GT(grown_tables, 0u) << "no table actually grew";
  // Teardown drains everything back out across segment boundaries.
  for (u32 i = 0; i < kFlows; ++i) {
    must_inject(mbox, pool, tuple_of(i),
                net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  mbox.wait_idle();
  for (u32 i = 0; i < kFlows; ++i) {
    must_inject(mbox, pool, tuple_of(i).reversed(),
                net::TcpFlags::kFin | net::TcpFlags::kAck);
  }
  settle(mbox);
  EXPECT_EQ(monitor.aggregate().connections_closed, kFlows);
  EXPECT_EQ(live_entries(mbox, state::StateStrategyKind::kWritingPartition),
            0u);
  mbox.stop();
  EXPECT_EQ(pool.available(), pool.size());
}

}  // namespace
}  // namespace sprayer::core
