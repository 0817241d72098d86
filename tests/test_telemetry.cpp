// Telemetry subsystem: LogHistogram bucket math, the sharded registry and
// its seqlock snapshot contract (hammered from real threads — run under
// TSan in CI), the reorder observatory, JSON export, and the wiring through
// ThreadedMiddlebox.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "core/middlebox.hpp"
#include "core/threaded.hpp"
#include "net/packet_builder.hpp"
#include "nf/firewall.hpp"
#include "nf/synthetic.hpp"
#include "nic/pktgen.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "telemetry/json_exporter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/reorder.hpp"
#include "telemetry/snapshot.hpp"

namespace sprayer::telemetry {
namespace {

// --- LogHistogram satellites ------------------------------------------------

TEST(LogHistogram, BucketEdgesBracketEveryValue) {
  LogHistogram h(5);
  std::vector<u64> values;
  for (unsigned p = 0; p < 63; ++p) {
    values.push_back(1ULL << p);
    values.push_back((1ULL << p) + 1);
    values.push_back((1ULL << p) - 1);
  }
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) values.push_back(rng.next());
  for (const u64 v : values) {
    const std::size_t idx = h.index_of(v);
    ASSERT_LT(idx, h.num_buckets());
    EXPECT_LE(h.lower_edge(idx), v) << "value " << v;
    EXPECT_GE(h.upper_edge(idx), v) << "value " << v;
  }
}

TEST(LogHistogram, IndexIsMonotonicAcrossBoundaries) {
  LogHistogram h(5);
  // Around every power-of-two boundary the bucket index must not decrease.
  for (unsigned p = 1; p < 62; ++p) {
    const u64 at = 1ULL << p;
    EXPECT_LE(h.index_of(at - 1), h.index_of(at));
    EXPECT_LE(h.index_of(at), h.index_of(at + 1));
  }
}

TEST(LogHistogram, PercentilesWithinRelativeError) {
  LogHistogram h(7);  // 1/128 relative error
  for (u64 v = 1; v <= 100000; ++v) h.add(v);
  EXPECT_NEAR(static_cast<double>(h.p50()), 50000.0, 50000.0 / 64);
  EXPECT_NEAR(static_cast<double>(h.p90()), 90000.0, 90000.0 / 64);
  EXPECT_NEAR(static_cast<double>(h.p99()), 99000.0, 99000.0 / 64);
  EXPECT_NEAR(static_cast<double>(h.p999()), 99900.0, 99900.0 / 64);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100000u);
}

TEST(LogHistogram, MergeFastPathMatchesFullMerge) {
  LogHistogram a(5);
  LogHistogram sparse(5);
  LogHistogram empty(5);
  for (u64 v = 1; v <= 100; ++v) a.add(v);
  sparse.add(1000000, 7);  // single populated bucket, far from a's range
  a.merge(sparse);
  EXPECT_EQ(a.count(), 107u);
  EXPECT_EQ(a.max(), 1000000u);
  EXPECT_EQ(a.min(), 1u);
  a.merge(empty);  // empty-source early return must not disturb anything
  EXPECT_EQ(a.count(), 107u);
  EXPECT_EQ(a.min(), 1u);
}

TEST(LogHistogram, AddBucketReproducesQuantiles) {
  LogHistogram src(5);
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) src.add(rng.next() % 1000000 + 1);
  // Rebuild from bucket indices, as the telemetry shard merge does: the
  // same value stream routed through add_bucket must give identical
  // quantiles (quantiles only see bucket counts).
  LogHistogram dst(5);
  Rng rng2(7);
  for (int i = 0; i < 5000; ++i) {
    dst.add_bucket(dst.index_of(rng2.next() % 1000000 + 1), 1);
  }
  EXPECT_EQ(dst.count(), src.count());
  EXPECT_EQ(dst.p50(), src.p50());
  EXPECT_EQ(dst.p99(), src.p99());
  EXPECT_EQ(dst.p999(), src.p999());
  // min/max are bucket-edge approximations: must still bracket the truth.
  EXPECT_LE(dst.min(), src.min());
  EXPECT_GE(dst.max(), src.max());
}

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, ShardedCountersSumAndGaugesMerge) {
  MetricsRegistry reg(3);
  auto c = reg.counter("c");
  auto g = reg.gauge("g");
  auto m = reg.gauge("m", MetricKind::kGaugeMax);
  auto h = reg.histogram("h", 5);
  reg.gauge_fn("fn", [] { return u64{41} + 1; });
  reg.finalize();

  c.add(0, 5);
  c.add(1, 7);
  c.add(2, 1);
  g.set(0, 10);
  g.set(1, 20);
  m.record_max(0, 3);
  m.record_max(1, 9);
  m.record_max(1, 4);  // lower than current max: ignored
  h.record(0, 100);
  h.record(1, 200);
  h.record(2, 300);

  EXPECT_EQ(reg.read_total(c), 13u);
  SnapshotCollector col(reg);
  const TelemetrySnapshot snap = col.collect();
  EXPECT_EQ(snap.value("c"), 13u);
  EXPECT_EQ(snap.value("g"), 30u);  // gauges sum across shards
  EXPECT_EQ(snap.value("m"), 9u);   // max-gauges take the shard max
  EXPECT_EQ(snap.value("fn"), 42u);
  const auto* sc = snap.find("c");
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(sc->per_shard[0], 5u);
  EXPECT_EQ(sc->per_shard[1], 7u);
  EXPECT_EQ(sc->per_shard[2], 1u);
  const auto* sh = snap.find_histogram("h");
  ASSERT_NE(sh, nullptr);
  EXPECT_EQ(sh->merged.count(), 3u);
  EXPECT_GE(sh->merged.max(), 300u);
  EXPECT_EQ(reg.read(c, 1), 7u);

  // reset() (writers quiescent) zeroes every cell and bucket.
  reg.reset();
  EXPECT_EQ(reg.read_total(c), 0u);
  const TelemetrySnapshot zero = col.collect();
  for (const auto& sc_zero : zero.scalars) {
    if (sc_zero.kind != MetricKind::kGaugeFn) {
      EXPECT_EQ(sc_zero.total, 0u) << sc_zero.name;
    }
  }
  EXPECT_EQ(zero.find_histogram("h")->merged.count(), 0u);
}

TEST(MetricsRegistry, UnfinalizedRegistryIsInertNotBroken) {
  MetricsRegistry reg(2);
  auto c = reg.counter("c");
  auto h = reg.histogram("h");
  c.add(0, 100);       // no slab yet: must be a safe no-op
  h.record(1, 12345);  // likewise
  EXPECT_EQ(reg.read_total(c), 0u);
  SnapshotCollector col(reg);
  const TelemetrySnapshot snap = col.collect();
  EXPECT_EQ(snap.value("c"), 0u);
  // Default-constructed handles are no-ops too.
  Counter none;
  none.add(0, 7);
}

TEST(MetricsRegistry, MisuseThrows) {
  MetricsRegistry reg(1);
  (void)reg.counter("dup");
  EXPECT_THROW((void)reg.counter("dup"), std::logic_error);
  reg.finalize();
  EXPECT_THROW((void)reg.counter("late"), std::logic_error);
  EXPECT_THROW(reg.finalize(), std::logic_error);
}

// The satellite acceptance test: workers hammer counters inside update
// windows while a collector snapshots in a loop. Every snapshot must be
// monotonic per counter, and every shard-clean snapshot must show the two
// counters of one window in agreement. Run under TSan in CI.
TEST(MetricsRegistry, SnapshotsStayMonotonicAndConsistentUnderHammer) {
  constexpr u32 kThreads = 4;
  MetricsRegistry reg(kThreads);
  auto a = reg.counter("a");
  auto b = reg.counter("b");
  auto h = reg.histogram("h", 5);
  reg.finalize();

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (u32 t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      u64 i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Burst-then-pause, like a real worker whose update windows only
        // bracket busy iterations; the gaps are what let the collector's
        // bounded retry loop win even on an oversubscribed machine.
        for (int burst = 0; burst < 256; ++burst) {
          reg.begin_update(t);
          a.add(t, 1);
          h.record(t, i % 4096);
          b.add(t, 1);  // must never be seen out of step with `a`
          reg.end_update(t);
          ++i;
        }
        std::this_thread::yield();
      }
    });
  }

  SnapshotCollector col(reg);
  u64 prev_a = 0;
  u64 prev_b = 0;
  u64 consistent_snaps = 0;
  for (int i = 0; i < 2000 || (consistent_snaps == 0 && i < 50000); ++i) {
    const TelemetrySnapshot snap = col.collect();
    const u64 va = snap.value("a");
    const u64 vb = snap.value("b");
    ASSERT_GE(va, prev_a);  // counters are monotonic across snapshots
    ASSERT_GE(vb, prev_b);
    prev_a = va;
    prev_b = vb;
    if (snap.consistent) {
      ++consistent_snaps;
      const auto* sa = snap.find("a");
      const auto* sb = snap.find("b");
      for (u32 s = 0; s < kThreads; ++s) {
        ASSERT_EQ(sa->per_shard[s], sb->per_shard[s])
            << "torn shard " << s << " in a clean snapshot";
      }
    }
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  // The retry loop must produce at least some clean snapshots even under
  // continuous writer pressure.
  EXPECT_GT(consistent_snaps, 0u);
  // Nothing was lost: final totals match what the histogram saw.
  const TelemetrySnapshot fin = col.collect();
  EXPECT_TRUE(fin.consistent);
  EXPECT_EQ(fin.value("a"), fin.value("b"));
  EXPECT_EQ(fin.find_histogram("h")->merged.count(), fin.value("a"));
}

// --- ReorderObservatory -----------------------------------------------------

net::Packet* flow_packet(net::PacketPool& pool, u16 src_port, u32 payload) {
  net::TcpSegmentSpec spec;
  spec.tuple = net::FiveTuple{net::Ipv4Addr{10, 0, 0, 1},
                              net::Ipv4Addr{10, 0, 0, 2}, src_port, 80,
                              net::kProtoTcp};
  spec.flags = net::TcpFlags::kAck;
  spec.payload_len = 4;
  u8 payload_bytes[4];
  std::memcpy(payload_bytes, &payload, 4);
  spec.payload = payload_bytes;
  return net::build_tcp_raw(pool, spec);
}

TEST(ReorderObservatory, InOrderStreamShowsZeroAndShuffleShowsReorder) {
  net::PacketPool pool(256, 128);
  ReorderObservatory obs;
  std::vector<net::Packet*> pkts;
  for (u32 i = 0; i < 64; ++i) {
    net::Packet* pkt = flow_packet(pool, 1234, i);
    ASSERT_NE(pkt, nullptr);
    pkt->parse();
    pkt->set_flow_hash(0xabcd);  // one sampled flow
    obs.stamp(*pkt);
    pkts.push_back(pkt);
  }
  // FIFO delivery: no reordering.
  obs.observe({pkts.data(), 32});
  {
    const auto s = obs.stats();
    EXPECT_EQ(s.flows_tracked, 1u);
    EXPECT_EQ(s.packets_observed, 32u);
    EXPECT_EQ(s.ooo_packets, 0u);
  }
  // Deliver 40..63 before 32..39: the stragglers arrive with the high-water
  // mark already at seq 64, giving distances 24 (seq 40) through 31
  // (seq 33).
  obs.observe({pkts.data() + 40, 24});
  obs.observe({pkts.data() + 32, 8});
  const auto s = obs.stats();
  EXPECT_EQ(s.packets_observed, 64u);
  EXPECT_EQ(s.ooo_packets, 8u);
  EXPECT_EQ(s.max_distance, 31u);
  EXPECT_EQ(s.distance.count(), 8u);
  for (net::Packet* pkt : pkts) pool.free(pkt);
}

TEST(ReorderObservatory, SlotCollisionsSampleFirstFlowOnly) {
  net::PacketPool pool(64, 128);
  ReorderObservatory obs;
  net::Packet* first = flow_packet(pool, 1, 0);
  net::Packet* loser = flow_packet(pool, 2, 0);
  first->parse();
  loser->parse();
  first->set_flow_hash(5);
  loser->set_flow_hash(5 + ReorderObservatory::kSlots);  // same slot
  obs.stamp(*first);
  obs.stamp(*loser);
  EXPECT_EQ(obs.stats().flows_tracked, 1u);
  EXPECT_NE(first->user_tag & ReorderObservatory::kStampFlag, 0u);
  EXPECT_EQ(loser->user_tag, 0u);  // not sampled: tag untouched
  pool.free(first);
  pool.free(loser);
}

// --- JSON export ------------------------------------------------------------

TEST(JsonExporter, EmitsSchemaAndSections) {
  MetricsRegistry reg(2);
  auto c = reg.counter("x.count");
  auto g = reg.gauge("x.hwm", MetricKind::kGaugeMax);
  auto h = reg.histogram("x.delay", 5);
  reg.finalize();
  c.add(0, 3);
  g.record_max(1, 17);
  h.record(0, 250);
  SnapshotCollector col(reg);
  ReorderObservatory obs;
  const auto stats = obs.stats();
  const std::string json = JsonExporter::to_json(col.collect(), &stats);

  EXPECT_NE(json.find("\"schema\": \"sprayer.telemetry.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"x.count\": {\"total\": 3, \"per_shard\": [3, 0]}"),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"max\", \"total\": 17"), std::string::npos);
  EXPECT_NE(json.find("\"x.delay\""), std::string::npos);
  EXPECT_NE(json.find("\"reorder\""), std::string::npos);
  EXPECT_NE(json.find("\"consistent\": true"), std::string::npos);
  // Structurally sane: balanced braces (names are identifier-like).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace sprayer::telemetry

// --- ThreadedMiddlebox integration -----------------------------------------

namespace sprayer::core {
namespace {

net::Packet* tuple_packet(net::PacketPool& pool, const net::FiveTuple& t,
                          u8 flags, u64 seed) {
  net::TcpSegmentSpec spec;
  spec.tuple = t;
  spec.flags = flags;
  spec.payload_len = 8;
  u8 payload[8];
  std::memcpy(payload, &seed, 8);
  spec.payload = payload;
  return net::build_tcp_raw(pool, spec);
}

struct RunResult {
  u64 injected = 0;
  telemetry::TelemetrySnapshot snap;
  telemetry::ReorderObservatory::Stats reorder;
};

RunResult run_one_flow(DispatchMode mode) {
  net::PacketPool pool(8192, 256);
  nf::SyntheticNf nf(0);
  ThreadedMiddlebox::TxBatchHandler sink =
      [](std::span<net::Packet* const> pkts) { net::free_packets(pkts); };
  SprayerConfig cfg;
  cfg.num_cores = 4;
  cfg.mode = mode;
  cfg.telemetry = true;
  cfg.reorder_observatory = true;
  ThreadedMiddlebox mbox(cfg, nf, std::move(sink));
  mbox.start();

  const net::FiveTuple flow{net::Ipv4Addr{10, 0, 0, 1},
                            net::Ipv4Addr{10, 0, 0, 2}, 1234, 80,
                            net::kProtoTcp};
  RunResult r;
  // Install state first so sprayed data packets never race the SYN.
  if (mbox.inject(tuple_packet(pool, flow, net::TcpFlags::kSyn, 0))) {
    ++r.injected;
  }
  mbox.wait_idle();

  Rng rng(11);
  std::array<net::Packet*, 32> burst;
  for (int round = 0; round < 250; ++round) {
    u32 n = 0;
    while (n < burst.size()) {
      net::Packet* pkt =
          tuple_packet(pool, flow, net::TcpFlags::kAck, rng.next());
      if (pkt == nullptr) break;
      burst[n++] = pkt;
    }
    r.injected += mbox.inject_bulk({burst.data(), n});
    if (n < burst.size()) std::this_thread::yield();
  }
  mbox.wait_idle();
  r.snap = mbox.telemetry_snapshot();
  r.reorder = mbox.reorder_stats();
  mbox.stop();
  EXPECT_EQ(pool.available(), pool.size());
  return r;
}

TEST(ThreadedTelemetry, SprayReordersRssDoesNot) {
  const RunResult spray = run_one_flow(DispatchMode::kSpray);
  // Transferred packets are processed twice (rx worker + designated core),
  // so worker.packets = injected + foreign_packets.
  EXPECT_EQ(spray.snap.value("worker.packets"),
            spray.injected + spray.snap.value("worker.foreign_packets"));
  EXPECT_EQ(spray.snap.value("driver.injected"), spray.injected);
  EXPECT_GT(spray.snap.value("worker.batches"), 0u);
  EXPECT_GT(spray.snap.value("rx_ring.occupancy_hwm"), 0u);
  EXPECT_EQ(spray.reorder.flows_tracked, 1u);
  EXPECT_EQ(spray.reorder.packets_observed, spray.injected);
  // One flow sprayed over 4 racing cores: reordering is the whole point.
  EXPECT_GT(spray.reorder.ooo_packets, 0u);
  EXPECT_GT(spray.reorder.max_distance, 0u);
  // Every worker that processed packets shows up in its own shard.
  const auto* wp = spray.snap.find("worker.packets");
  ASSERT_NE(wp, nullptr);
  u32 active = 0;
  for (u32 s = 0; s < 4; ++s) active += wp->per_shard[s] > 0 ? 1 : 0;
  EXPECT_GT(active, 1u) << "spray mode should engage multiple cores";

  const RunResult rss = run_one_flow(DispatchMode::kRss);
  EXPECT_EQ(rss.snap.value("worker.packets"),
            rss.injected + rss.snap.value("worker.foreign_packets"));
  EXPECT_GT(rss.reorder.packets_observed, 0u);
  // Per-flow RSS keeps the flow FIFO end to end: zero out-of-order.
  EXPECT_EQ(rss.reorder.ooo_packets, 0u);
}

// --- one store for the engine and driver counts -----------------------------

/// Each CoreStats field and the registry cell it reads.
struct CountField {
  const char* name;
  RelaxedU64 CoreStats::*field;
};
constexpr CountField kCountFields[] = {
    {"engine.rx_packets", &CoreStats::rx_packets},
    {"engine.regular_packets", &CoreStats::regular_packets},
    {"engine.conn_local", &CoreStats::conn_local},
    {"engine.transfer_flush_packets", &CoreStats::conn_transferred_out},
    {"worker.foreign_packets", &CoreStats::conn_foreign_in},
    {"engine.transfer_flush_drops", &CoreStats::transfer_drops},
    {"engine.transfer_retry_packets", &CoreStats::transfer_retries},
    {"engine.nf_drops", &CoreStats::nf_drops},
    {"engine.tx_packets", &CoreStats::tx_packets},
    {"engine.busy_cycles", &CoreStats::busy_cycles},
};

/// core_stats(c) is shard c of the snapshot and total_stats() its total,
/// field by field.
void expect_counts_are_registry_cells(
    const MiddleboxSkeleton& mbox, const telemetry::TelemetrySnapshot& snap) {
  const CoreStats total = mbox.total_stats();
  for (const CountField& f : kCountFields) {
    const auto* cell = snap.find(f.name);
    ASSERT_NE(cell, nullptr) << f.name;
    EXPECT_EQ(cell->total, (total.*f.field).load()) << f.name;
    for (u32 c = 0; c < mbox.config().num_cores; ++c) {
      EXPECT_EQ(cell->per_shard[c],
                (mbox.core_stats(static_cast<CoreId>(c)).*f.field).load())
          << f.name << " core " << c;
    }
  }
}

/// A firewall that rejects connections to port 81: SYNs to it drop on
/// their designated core (often after a redirect), and its data packets
/// drop for lack of state.
nf::Acl deny_port_81() {
  nf::Acl acl(/*default_allow=*/true);
  acl.add_rule({.dst_port_lo = 81, .dst_port_hi = 81, .allow = false});
  return acl;
}

std::vector<net::FiveTuple> parity_flows(u64 seed) {
  auto flows = nic::random_tcp_flows(32, seed);
  for (std::size_t i = 0; i < flows.size(); i += 2) flows[i].dst_port = 81;
  return flows;
}

std::vector<net::Packet*> parity_burst(net::PacketPool& pool,
                                       const std::vector<net::FiveTuple>& flows,
                                       u8 flags, u32 per_flow, Rng& rng) {
  std::vector<net::Packet*> out;
  for (u32 k = 0; k < per_flow; ++k) {
    for (const auto& f : flows) {
      net::Packet* pkt = tuple_packet(pool, f, flags, rng.next());
      if (pkt != nullptr) out.push_back(pkt);
    }
  }
  return out;
}

// Redirects (spray), parks (tiny mesh rings plus a reject schedule), NF
// drops (the port-81 firewall) and rx-boundary sheds of both classes (a
// tiny rx ring filled before the workers start), with telemetry on and off.
// A flow's data is only sent once its SYN has been processed: the firewall
// writes a new entry's bytes with plain stores that other cores read.
TEST(CountStore, ThreadedCoreStatsAreRegistryCells) {
  for (const bool telemetry_on : {true, false}) {
    SCOPED_TRACE(telemetry_on ? "telemetry on" : "telemetry off");
    net::PacketPool pool(4096, 256);
    nf::FirewallNf fw(deny_port_81());
    SprayerConfig cfg;
    cfg.num_cores = 4;
    cfg.mode = DispatchMode::kSpray;
    cfg.telemetry = telemetry_on;
    cfg.rx_ring_capacity = 64;
    cfg.foreign_ring_capacity = 8;
    cfg.transfer_fault = {.reject_period = 3, .accept_cap = 0};
    ThreadedMiddlebox mbox(cfg, fw, [](std::span<net::Packet* const> pkts) {
      net::free_packets(pkts);
    });
    const auto flows = parity_flows(53);
    Rng rng(5);
    // Before start: data of stateless flows fills every rx ring to its
    // watermark (the rest is shed as regular), then SYNs of other flows
    // overrun the headroom (shed as conn).
    auto acks = parity_burst(pool, parity_flows(61), net::TcpFlags::kAck, 8,
                             rng);
    (void)mbox.inject_bulk(acks);
    auto syns = parity_burst(pool, parity_flows(67), net::TcpFlags::kSyn, 4,
                             rng);
    (void)mbox.inject_bulk(syns);
    mbox.start();
    mbox.wait_idle();
    for (const u8 flags : {u8{net::TcpFlags::kSyn}, u8{net::TcpFlags::kAck},
                           u8{net::TcpFlags::kAck}}) {
      for (net::Packet* pkt : parity_burst(pool, flows, flags, 1, rng)) {
        (void)mbox.inject(pkt);
      }
      mbox.wait_idle();
    }

    const auto snap = mbox.telemetry_snapshot();
    const CoreStats total = mbox.total_stats();
    EXPECT_GT(total.conn_foreign_in, 0u);
    EXPECT_GT(total.transfer_retries, 0u);
    EXPECT_GT(total.nf_drops, 0u);
    EXPECT_GT(mbox.shed_regular(), 0u);
    EXPECT_GT(mbox.shed_conn(), 0u);
    expect_counts_are_registry_cells(mbox, snap);
    const u32 driver = mbox.driver_shard();
    ASSERT_NE(snap.find("driver.shed_regular"), nullptr);
    ASSERT_NE(snap.find("driver.shed_conn"), nullptr);
    EXPECT_EQ(snap.find("driver.shed_regular")->per_shard[driver],
              mbox.shed_regular());
    EXPECT_EQ(snap.value("driver.shed_regular"), mbox.shed_regular());
    EXPECT_EQ(snap.value("driver.shed_conn"), mbox.shed_conn());
    EXPECT_EQ(mbox.rx_ring_drops(), mbox.shed_regular() + mbox.shed_conn());
    EXPECT_EQ(snap.find("driver.rx_ring_drops"), nullptr);
    mbox.stop();
    EXPECT_EQ(pool.available(), pool.size());
  }
}

TEST(CountStore, SimulatorCoreStatsAreRegistryCellsAndResetZeroesThem) {
  struct FreeSink final : sim::IPacketSink {
    void receive(net::Packet* pkt) override { pkt->pool()->free(pkt); }
  };
  for (const bool telemetry_on : {true, false}) {
    SCOPED_TRACE(telemetry_on ? "telemetry on" : "telemetry off");
    net::PacketPool pool(4096, 256);
    nf::FirewallNf fw(deny_port_81());
    SprayerConfig cfg;
    cfg.num_cores = 4;
    cfg.mode = DispatchMode::kSpray;
    cfg.telemetry = telemetry_on;
    cfg.foreign_ring_capacity = 2;  // a SYN burst parks on the mesh
    sim::Simulator sim;
    SimMiddlebox mbox(sim, cfg, fw);
    FreeSink sink;
    sim::Link out0(sim, {}, sink, "port0");
    sim::Link out1(sim, {}, sink, "port1");
    mbox.attach_tx_link(0, out0);
    mbox.attach_tx_link(1, out1);

    const auto flows = parity_flows(53);
    Rng rng(9);
    Time t = 0;
    for (const u8 flags : {u8{net::TcpFlags::kSyn}, u8{net::TcpFlags::kAck}}) {
      for (net::Packet* pkt : parity_burst(pool, flows, flags, 4, rng)) {
        mbox.ingress().receive(pkt);
      }
      t += from_seconds(0.001);
      sim.run_until(t);
    }

    telemetry::SnapshotCollector collector(mbox.metrics());
    const CoreStats total = mbox.total_stats();
    EXPECT_GT(total.conn_foreign_in, 0u);
    EXPECT_GT(total.transfer_retries, 0u);
    EXPECT_GT(total.nf_drops, 0u);
    expect_counts_are_registry_cells(mbox, collector.collect());

    mbox.reset_stats();
    const auto zero = collector.collect();
    for (const CountField& f : kCountFields) {
      EXPECT_EQ((mbox.total_stats().*f.field).load(), 0u) << f.name;
      EXPECT_EQ(zero.value(f.name), 0u) << f.name;
    }
    expect_counts_are_registry_cells(mbox, zero);
  }
}

// With telemetry off the registry still holds exactly the always-on counts
// (the engine's CoreStats cells and the driver's shed cells), and they
// equal the accessors; every telemetry-only metric is absent.
TEST(ThreadedTelemetry, DisabledTelemetryKeepsOnlyTheCounts) {
  net::PacketPool pool(1024, 256);
  nf::SyntheticNf nf(0);
  ThreadedMiddlebox::TxBatchHandler sink =
      [](std::span<net::Packet* const> pkts) { net::free_packets(pkts); };
  SprayerConfig cfg;
  cfg.num_cores = 2;
  cfg.telemetry = false;
  ThreadedMiddlebox mbox(cfg, nf, std::move(sink));
  mbox.start();
  const net::FiveTuple flow{net::Ipv4Addr{10, 0, 0, 3},
                            net::Ipv4Addr{10, 0, 0, 4}, 999, 80,
                            net::kProtoTcp};
  u64 injected = 0;
  if (mbox.inject(tuple_packet(pool, flow, net::TcpFlags::kSyn, 0))) {
    ++injected;
  }
  for (int i = 0; i < 100; ++i) {
    net::Packet* pkt = tuple_packet(pool, flow, net::TcpFlags::kAck, i);
    if (pkt != nullptr && mbox.inject(pkt)) ++injected;
  }
  mbox.wait_idle();
  const auto snap = mbox.telemetry_snapshot();

  std::vector<std::string> names;
  for (const auto& sc : snap.scalars) names.push_back(sc.name);
  std::vector<std::string> expected = {"driver.shed_regular",
                                       "driver.shed_conn"};
  for (const CountField& f : kCountFields) expected.emplace_back(f.name);
  std::sort(names.begin(), names.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(names, expected);
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_EQ(snap.find("worker.packets"), nullptr);
  EXPECT_EQ(snap.find("worker.batches"), nullptr);
  EXPECT_EQ(snap.find_histogram("worker.batch_size"), nullptr);
  expect_counts_are_registry_cells(mbox, snap);
  EXPECT_EQ(snap.value("engine.rx_packets"), injected);
  EXPECT_FALSE(mbox.reorder_enabled());
  mbox.stop();
  EXPECT_EQ(pool.available(), pool.size());
}

}  // namespace
}  // namespace sprayer::core
