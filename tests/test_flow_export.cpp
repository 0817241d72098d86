// Flow-record export and sampled packet-path tracing (DESIGN.md §13):
// FlowRecorder slot protocol (collision/steal/untracked semantics),
// LiveExporter emission policy (idle vs interval vs final, per-tick
// budget), PathTracer stage accounting, JsonExporter hardening (string
// escaping, counter monotonicity, inconsistent-snapshot surfacing), and
// the wiring through ThreadedMiddlebox with real worker threads (run
// under TSan in CI: single-writer recorder vs harvesting driver).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/threaded.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "nf/synthetic.hpp"
#include "nic/pktgen.hpp"
#include "telemetry/flow_export.hpp"
#include "telemetry/json_exporter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/trace.hpp"

namespace sprayer::telemetry {
namespace {

u64 count_occurrences(const std::string& hay, const std::string& needle) {
  u64 n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// --- FlowRecorder -----------------------------------------------------------

TEST(FlowRecorder, AccountsAndReadsOneFlow) {
  FlowRecorder rec(8, 10 * kMillisecond);
  rec.account(/*hash=*/5, /*bytes=*/100, /*tcp_flags=*/0x02,
              1 * kMillisecond);
  rec.account(5, 60, 0x10, 2 * kMillisecond);
  const auto v = rec.read(5);
  ASSERT_NE(v.key, 0u);
  EXPECT_EQ(v.hash(), 5u);
  EXPECT_EQ(v.packets, 2u);
  EXPECT_EQ(v.bytes, 160u);
  EXPECT_EQ(v.tcp_flags, 0x12);  // SYN|ACK union
  EXPECT_EQ(v.first, 1 * kMillisecond);
  EXPECT_EQ(v.last, 2 * kMillisecond);
  EXPECT_EQ(rec.packets(), 2u);
  EXPECT_EQ(rec.untracked(), 0u);
}

TEST(FlowRecorder, CollisionNeverDisplacesLiveIncumbent) {
  FlowRecorder rec(8, 10 * kMillisecond);
  rec.account(5, 100, 0, 1 * kMillisecond);
  // hash 13 maps to the same slot (13 & 7 == 5); the incumbent saw traffic
  // 1ms ago, well inside the idle timeout, so the newcomer goes uncounted.
  rec.account(13, 100, 0, 2 * kMillisecond);
  EXPECT_EQ(rec.untracked(), 1u);
  EXPECT_EQ(rec.evictions(), 0u);
  const auto v = rec.read(5);
  EXPECT_EQ(v.hash(), 5u);
  EXPECT_EQ(v.packets, 1u);
}

TEST(FlowRecorder, IdleIncumbentIsStolenWithFreshGeneration) {
  FlowRecorder rec(8, 10 * kMillisecond);
  rec.account(5, 100, 0x02, 1 * kMillisecond);
  const u32 gen_before = static_cast<u32>(rec.read(5).key);
  // 19ms past the incumbent's last packet: idle, steal the slot.
  rec.account(13, 40, 0, 20 * kMillisecond);
  EXPECT_EQ(rec.evictions(), 1u);
  const auto v = rec.read(5);
  ASSERT_NE(v.key, 0u);
  EXPECT_EQ(v.hash(), 13u);
  EXPECT_EQ(v.packets, 1u);
  EXPECT_EQ(v.bytes, 40u);
  EXPECT_EQ(v.tcp_flags, 0u);  // fields reset, no flag leakage
  EXPECT_EQ(v.first, 20 * kMillisecond);
  EXPECT_NE(static_cast<u32>(v.key), gen_before);  // generation bumped
}

// --- LiveExporter emission policy -------------------------------------------

FlowExportConfig unit_cfg() {
  FlowExportConfig cfg;
  cfg.enabled = true;
  cfg.table_slots = 8;
  cfg.harvest_interval = 1 * kMillisecond;
  cfg.export_interval = 10 * kMillisecond;
  cfg.idle_timeout = 20 * kMillisecond;
  cfg.snapshot_interval = 0;  // flow lines only
  cfg.max_records_per_tick = 256;
  return cfg;
}

TEST(LiveExporter, IntervalThenIdleEmission) {
  MetricsRegistry reg(1);
  FlowRecorder rec(8, unit_cfg().idle_timeout);
  LiveExporter ex(unit_cfg(), reg);
  ex.add_recorder(&rec);
  std::ostringstream out;
  ex.set_sink(&out);

  for (int i = 0; i < 3; ++i) rec.account(1, 100, 0x10, 1 * kMillisecond);
  ex.tick(1 * kMillisecond);  // flow discovered; nothing due yet
  EXPECT_EQ(ex.stats().flows_seen.load(), 1u);
  EXPECT_EQ(ex.live_flows(), 1u);
  EXPECT_EQ(ex.stats().records.load(), 0u);

  // 11ms past first-seen: the periodic interval fires for a growing flow.
  ex.tick(12 * kMillisecond);
  EXPECT_EQ(ex.stats().interval_records.load(), 1u);
  EXPECT_EQ(count_occurrences(out.str(), "\"reason\":\"interval\""), 1u);
  EXPECT_EQ(count_occurrences(out.str(), "\"delta_packets\":3"), 1u);

  // The flow stops growing: no further interval records...
  ex.tick(14 * kMillisecond);
  EXPECT_EQ(ex.stats().interval_records.load(), 1u);
  // ...and 20ms past its last packet it expires with an idle record.
  ex.tick(32 * kMillisecond);
  EXPECT_EQ(ex.stats().idle_records.load(), 1u);
  EXPECT_EQ(ex.live_flows(), 0u);
  EXPECT_EQ(count_occurrences(out.str(), "\"reason\":\"idle\""), 1u);
}

TEST(LiveExporter, IntervalDeltasAreIncremental) {
  MetricsRegistry reg(1);
  FlowRecorder rec(8, unit_cfg().idle_timeout);
  LiveExporter ex(unit_cfg(), reg);
  ex.add_recorder(&rec);
  std::ostringstream out;
  ex.set_sink(&out);

  for (int i = 0; i < 3; ++i) rec.account(1, 100, 0, 1 * kMillisecond);
  ex.tick(1 * kMillisecond);
  ex.tick(12 * kMillisecond);  // interval record: packets 3, delta 3
  for (int i = 0; i < 2; ++i) rec.account(1, 100, 0, 13 * kMillisecond);
  ex.tick(13 * kMillisecond);
  ex.tick(24 * kMillisecond);  // interval record: packets 5, delta 2
  const std::string s = out.str();
  EXPECT_EQ(count_occurrences(s, "\"packets\":3,"), 1u);
  EXPECT_EQ(count_occurrences(s, "\"packets\":5,"), 1u);
  EXPECT_EQ(count_occurrences(s, "\"delta_packets\":2"), 1u);
}

TEST(LiveExporter, BudgetDefersOverflowToNextTick) {
  FlowExportConfig cfg = unit_cfg();
  cfg.max_records_per_tick = 2;
  MetricsRegistry reg(1);
  FlowRecorder rec(8, cfg.idle_timeout);
  LiveExporter ex(cfg, reg);
  ex.add_recorder(&rec);
  std::ostringstream out;
  ex.set_sink(&out);

  for (u32 h = 1; h <= 5; ++h) rec.account(h, 100, 0, 1 * kMillisecond);
  ex.tick(1 * kMillisecond);
  EXPECT_EQ(ex.stats().flows_seen.load(), 5u);
  // All five expire at once but only two records fit per tick.
  ex.tick(30 * kMillisecond);
  EXPECT_EQ(ex.stats().records.load(), 2u);
  EXPECT_EQ(ex.stats().deferred.load(), 3u);
  ex.tick(31 * kMillisecond);
  EXPECT_EQ(ex.stats().records.load(), 4u);
  ex.tick(32 * kMillisecond);
  EXPECT_EQ(ex.stats().records.load(), 5u);
  EXPECT_EQ(ex.live_flows(), 0u);
}

TEST(LiveExporter, FinalFlushEmitsEveryLiveFlowPastBudget) {
  FlowExportConfig cfg = unit_cfg();
  cfg.max_records_per_tick = 1;
  MetricsRegistry reg(1);
  FlowRecorder rec(8, cfg.idle_timeout);
  LiveExporter ex(cfg, reg);
  ex.add_recorder(&rec);
  std::ostringstream out;
  ex.set_sink(&out);

  for (u32 h = 1; h <= 4; ++h) rec.account(h, 100, 0, 1 * kMillisecond);
  ex.tick(1 * kMillisecond);
  ex.flush_final(2 * kMillisecond);
  EXPECT_EQ(ex.stats().final_records.load(), 4u);
  EXPECT_EQ(ex.live_flows(), 0u);
  EXPECT_EQ(count_occurrences(out.str(), "\"reason\":\"final\""), 4u);
}

TEST(LiveExporter, RecordsAreCountedWithoutSink) {
  MetricsRegistry reg(1);
  FlowRecorder rec(8, unit_cfg().idle_timeout);
  LiveExporter ex(unit_cfg(), reg);
  ex.add_recorder(&rec);
  rec.account(1, 100, 0, 1 * kMillisecond);
  ex.tick(1 * kMillisecond);
  ex.flush_final(2 * kMillisecond);
  EXPECT_EQ(ex.stats().records.load(), 1u);
}

TEST(LiveExporter, SnapshotLinesCarryConsistencyVerdict) {
  FlowExportConfig cfg = unit_cfg();
  cfg.snapshot_interval = 5 * kMillisecond;
  MetricsRegistry reg(2);
  auto c = reg.counter("c");
  reg.finalize();
  LiveExporter ex(cfg, reg);
  std::ostringstream out;
  ex.set_sink(&out);

  reg.begin_update(0);
  c.add(0, 1);
  reg.end_update(0);
  ex.tick(6 * kMillisecond);
  EXPECT_EQ(ex.stats().snapshots.load(), 1u);
  EXPECT_EQ(ex.stats().inconsistent_snapshots.load(), 0u);
  EXPECT_EQ(count_occurrences(out.str(), "\"consistent\":true"), 1u);

  // A shard stuck mid-update exhausts the seqlock retries: the snapshot
  // line is still emitted, flagged, and counted — never silently dropped.
  reg.begin_update(1);
  ex.tick(12 * kMillisecond);
  reg.end_update(1);
  EXPECT_EQ(ex.stats().snapshots.load(), 2u);
  EXPECT_EQ(ex.stats().inconsistent_snapshots.load(), 1u);
  EXPECT_EQ(count_occurrences(out.str(), "\"consistent\":false"), 1u);
}

// --- PathTracer -------------------------------------------------------------

TEST(PathTracer, SamplesOneInTwoToTheShift) {
  TraceConfig tc;
  tc.sample_shift = 2;  // 1-in-4
  MetricsRegistry reg(1);
  PathTracer tracer(tc, /*base=*/0);
  tracer.register_metrics(reg);
  reg.finalize();

  net::PacketPool pool(4, 128);
  auto owned = pool.alloc();
  net::Packet* pkt = owned.get();
  ASSERT_NE(pkt, nullptr);
  u32 stamped = 0;
  for (int i = 0; i < 16; ++i) {
    pkt->user_tag = 0;
    if (tracer.maybe_stamp(*pkt, [] { return Time{1 * kMicrosecond}; })) {
      ++stamped;
      EXPECT_TRUE(PathTracer::is_traced(pkt->user_tag));
    } else {
      EXPECT_EQ(pkt->user_tag, 0u);
    }
  }
  EXPECT_EQ(stamped, 4u);
  EXPECT_EQ(tracer.sampled(), 4u);
}

TEST(PathTracer, NeverStampsReorderClaimedPackets) {
  TraceConfig tc;
  tc.sample_shift = 0;  // every packet elected
  MetricsRegistry reg(1);
  PathTracer tracer(tc, 0);
  tracer.register_metrics(reg);
  reg.finalize();

  net::PacketPool pool(4, 128);
  auto owned = pool.alloc();
  net::Packet* pkt = owned.get();
  ASSERT_NE(pkt, nullptr);
  const u64 reorder_tag = ReorderObservatory::kStampFlag | 42;
  pkt->user_tag = reorder_tag;
  EXPECT_FALSE(tracer.maybe_stamp(*pkt, [] { return Time{0}; }));
  EXPECT_EQ(pkt->user_tag, reorder_tag);  // untouched
  EXPECT_FALSE(PathTracer::is_traced(pkt->user_tag));
}

TEST(PathTracer, StageDeltasLandInTheRightHistograms) {
  TraceConfig tc;
  tc.sample_shift = 0;
  MetricsRegistry reg(1);
  PathTracer tracer(tc, /*base=*/1 * kSecond);
  tracer.register_metrics(reg);
  reg.finalize();

  net::PacketPool pool(4, 128);
  auto owned = pool.alloc();
  net::Packet* pkt = owned.get();
  ASSERT_NE(pkt, nullptr);
  pkt->user_tag = 0;
  const Time t0 = 1 * kSecond + 1 * kMicrosecond;
  ASSERT_TRUE(tracer.maybe_stamp(*pkt, [&] { return t0; }));

  tracer.record_steer(*pkt, t0 + 150 * kNanosecond);
  ASSERT_TRUE(tracer.has_driver_samples());
  reg.begin_update(0);
  tracer.flush_driver(0);
  reg.end_update(0);

  std::array<net::Packet*, 1> batch{pkt};
  reg.begin_update(0);
  tracer.record_queue(batch, 0, t0 + 1150 * kNanosecond);
  tracer.record_tx(batch, 0, [&] { return t0 + 3150 * kNanosecond; });
  reg.end_update(0);

  SnapshotCollector collector(reg);
  const auto snap = collector.collect();
  const auto* steer = snap.find_histogram("trace.steer_ns");
  const auto* queue = snap.find_histogram("trace.queue_ns");
  const auto* nf = snap.find_histogram("trace.nf_ns");
  ASSERT_NE(steer, nullptr);
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(nf, nullptr);
  EXPECT_EQ(steer->merged.count(), 1u);
  EXPECT_EQ(queue->merged.count(), 1u);
  EXPECT_EQ(nf->merged.count(), 1u);
  // Log-bucket resolution: assert the right order of magnitude, not the
  // exact value (5 significant bits ⇒ ≤ ~3% relative bucket error).
  EXPECT_GE(steer->merged.p50(), 100u);
  EXPECT_LE(steer->merged.p50(), 300u);
  EXPECT_GE(queue->merged.p50(), 700u);
  EXPECT_LE(queue->merged.p50(), 2100u);
  EXPECT_GE(nf->merged.p50(), 1400u);
  EXPECT_LE(nf->merged.p50(), 4200u);
  EXPECT_EQ(snap.value("trace.completed"), 1u);
}

TEST(PathTracer, TimestampWrapsSafelyAcross48Bits) {
  TraceConfig tc;
  tc.sample_shift = 0;
  MetricsRegistry reg(1);
  PathTracer tracer(tc, /*base=*/0);
  tracer.register_metrics(reg);
  reg.finalize();

  net::PacketPool pool(4, 128);
  auto owned = pool.alloc();
  net::Packet* pkt = owned.get();
  ASSERT_NE(pkt, nullptr);
  pkt->user_tag = 0;
  // Stamp 50ns before the 48-bit rollover, close the stage 50ns after it:
  // the mod-2^48 delta must read 100ns, not a huge negative wrap.
  const u64 edge_ns = (1ULL << 48);
  ASSERT_TRUE(tracer.maybe_stamp(
      *pkt, [&] { return Time{(edge_ns - 50) * kNanosecond}; }));
  tracer.record_steer(*pkt, Time{(edge_ns + 50) * kNanosecond});
  reg.begin_update(0);
  tracer.flush_driver(0);
  reg.end_update(0);

  SnapshotCollector collector(reg);
  const auto snap = collector.collect();
  const auto* steer = snap.find_histogram("trace.steer_ns");
  ASSERT_NE(steer, nullptr);
  EXPECT_EQ(steer->merged.count(), 1u);
  EXPECT_LE(steer->merged.p50(), 200u);
}

TEST(PathTracer, StampAfterTheStageClockRecordsZero) {
  // The driver may stamp a packet after the worker that pops it read its
  // clock: the negative delta must record 0, not (now - stamp) mod 2^48.
  TraceConfig tc;
  tc.sample_shift = 0;
  MetricsRegistry reg(1);
  PathTracer tracer(tc, /*base=*/0);
  tracer.register_metrics(reg);
  reg.finalize();

  net::PacketPool pool(4, 128);
  auto owned = pool.alloc();
  net::Packet* pkt = owned.get();
  ASSERT_NE(pkt, nullptr);
  pkt->user_tag = 0;
  const Time worker_now = 5 * kMicrosecond;
  ASSERT_TRUE(tracer.maybe_stamp(
      *pkt, [&] { return worker_now + 300 * kNanosecond; }));
  std::array<net::Packet*, 1> batch{pkt};
  reg.begin_update(0);
  tracer.record_queue(batch, 0, worker_now);
  reg.end_update(0);

  SnapshotCollector collector(reg);
  const auto snap = collector.collect();
  const auto* queue = snap.find_histogram("trace.queue_ns");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->merged.count(), 1u);
  EXPECT_EQ(queue->merged.max(), 0u);
}

// --- JsonExporter hardening -------------------------------------------------

TEST(JsonExporter, EscapesStringsForValidJson) {
  const auto esc = [](std::string_view in) {
    std::ostringstream os;
    write_json_string(os, in);
    return os.str();
  };
  EXPECT_EQ(esc("plain.name"), "\"plain.name\"");
  EXPECT_EQ(esc("quote\"back\\slash"), "\"quote\\\"back\\\\slash\"");
  EXPECT_EQ(esc("tab\tnewline\n"), "\"tab\\tnewline\\n\"");
  EXPECT_EQ(esc(std::string_view("ctl\x01", 4)), "\"ctl\\u0001\"");
}

TEST(JsonExporter, EmptySnapshotIsAValidDocument) {
  TelemetrySnapshot snap;
  std::ostringstream os;
  JsonExporter::write(os, snap);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"schema\": \"sprayer.telemetry.v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"inconsistent_shards\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser
  // (tools/check_telemetry_schema.py does the real validation in CI).
  EXPECT_EQ(count_occurrences(doc, "{"), count_occurrences(doc, "}"));
  EXPECT_EQ(count_occurrences(doc, "["), count_occurrences(doc, "]"));
}

TelemetrySnapshot counter_snapshot(u64 total, std::vector<u64> per_shard) {
  TelemetrySnapshot snap;
  ScalarSnapshot s;
  s.name = "c";
  s.kind = MetricKind::kCounter;
  s.total = total;
  s.per_shard = std::move(per_shard);
  snap.scalars.push_back(std::move(s));
  return snap;
}

TEST(JsonExporter, CounterMonotonicityAssertsOnRegression) {
  const auto prev = counter_snapshot(5, {2, 3});
  EXPECT_NO_THROW(
      JsonExporter::check_counters_monotonic(prev, counter_snapshot(5, {2, 3})));
  EXPECT_NO_THROW(
      JsonExporter::check_counters_monotonic(prev, counter_snapshot(9, {4, 5})));
  // Total regressed.
  EXPECT_THROW(
      JsonExporter::check_counters_monotonic(prev, counter_snapshot(3, {1, 2})),
      std::logic_error);
  // Total holds but one shard went backwards.
  EXPECT_THROW(
      JsonExporter::check_counters_monotonic(prev, counter_snapshot(5, {1, 4})),
      std::logic_error);
}

TEST(SnapshotCollector, CountsInconsistentSnapshots) {
  MetricsRegistry reg(2);
  auto c = reg.counter("c");
  (void)c;
  reg.finalize();
  SnapshotCollector collector(reg);
  EXPECT_TRUE(collector.collect().consistent);
  EXPECT_EQ(collector.inconsistent_snapshots(), 0u);

  reg.begin_update(1);
  const auto snap = collector.collect();
  reg.end_update(1);
  EXPECT_FALSE(snap.consistent);
  EXPECT_EQ(snap.num_shards, 2u);
  EXPECT_EQ(snap.inconsistent_shards, 1u);
  EXPECT_EQ(collector.inconsistent_snapshots(), 1u);

  std::ostringstream os;
  JsonExporter::write(os, snap);
  EXPECT_NE(os.str().find("\"consistent\": false"), std::string::npos);
  EXPECT_NE(os.str().find("\"inconsistent_shards\": 1"), std::string::npos);
}

}  // namespace
}  // namespace sprayer::telemetry

// --- ThreadedMiddlebox integration ------------------------------------------

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

/// Four worker cores, sprayed traffic, flow export + tracing on, recorders
/// churning against the harvesting driver — the TSan target for the
/// single-writer/seqlock-lite protocols.
TEST(ThreadedFlowExport, StreamsRecordsUnderMultiCoreChurn) {
  net::PacketPool pool(1u << 12, 256);
  nf::SyntheticNf nf(0);
  std::atomic<u64> forwarded{0};
  ThreadedMiddlebox::TxBatchHandler sink =
      [&](std::span<net::Packet* const> pkts) {
        forwarded.fetch_add(pkts.size(), std::memory_order_relaxed);
        net::free_packets(pkts);
      };

  SprayerConfig cfg;
  cfg.num_cores = 4;
  cfg.mode = DispatchMode::kSpray;
  cfg.telemetry = true;
  cfg.flow_export.enabled = true;
  cfg.flow_export.table_slots = 256;
  cfg.flow_export.harvest_interval = 1 * kMillisecond;
  cfg.flow_export.export_interval = 5 * kMillisecond;
  cfg.flow_export.idle_timeout = 50 * kMillisecond;
  cfg.flow_export.snapshot_interval = 20 * kMillisecond;
  cfg.trace.enabled = true;
  cfg.trace.sample_shift = 2;  // 1-in-4
  ThreadedMiddlebox mbox(cfg, nf, std::move(sink));
  ASSERT_TRUE(mbox.flow_export_enabled());
  ASSERT_NE(mbox.tracer(), nullptr);
  std::ostringstream stream;
  mbox.flow_exporter()->set_sink(&stream);  // before traffic
  mbox.start();

  const auto flows = nic::random_tcp_flows(48, 7);
  for (const auto& flow : flows) {
    while (!mbox.inject(tuple_packet(pool, flow, net::TcpFlags::kSyn, 0))) {
      std::this_thread::yield();
    }
  }
  mbox.wait_idle();

  Rng rng(3);
  std::array<net::Packet*, 32> burst{};
  for (int round = 0; round < 300; ++round) {
    u32 n = 0;
    for (; n < burst.size(); ++n) {
      const auto& flow = flows[rng.next() % flows.size()];
      net::Packet* pkt =
          tuple_packet(pool, flow, net::TcpFlags::kAck, rng.next());
      if (pkt == nullptr) break;  // pool exhausted: workers own the rest
      burst[n] = pkt;
    }
    if (n > 0) mbox.inject_bulk({burst.data(), n});
  }
  mbox.wait_idle();
  mbox.stop();  // emits "final" records and the final snapshot line

  // Every packet a worker polled from its rx ring (foreign mesh traffic is
  // not re-accounted) landed in exactly one recorder cell or the untracked
  // counter.
  const auto snap = mbox.telemetry_snapshot();
  const u64 rx_polled =
      snap.value("worker.packets") - snap.value("worker.foreign_packets");
  u64 accounted = 0;
  for (u32 c = 0; c < cfg.num_cores; ++c) {
    const auto* rec = mbox.flow_recorder(static_cast<CoreId>(c));
    ASSERT_NE(rec, nullptr);
    accounted += rec->packets() + rec->untracked();
  }
  EXPECT_EQ(accounted, rx_polled);

  const auto& st = mbox.flow_exporter()->stats();
  EXPECT_GT(st.harvests.load(), 0u);
  EXPECT_GT(st.records.load(), 0u);
  EXPECT_GT(st.final_records.load(), 0u);
  EXPECT_GT(st.snapshots.load(), 0u);

  // Stream shape: every line belongs to the flowexport schema and the
  // shutdown flush emitted final records.
  const std::string s = stream.str();
  const u64 lines = sprayer::telemetry::count_occurrences(s, "\n");
  EXPECT_EQ(sprayer::telemetry::count_occurrences(
                s, "{\"schema\":\"sprayer.flowexport.v1\","),
            lines);
  EXPECT_GT(sprayer::telemetry::count_occurrences(s, "\"reason\":\"final\""),
            0u);
  EXPECT_GT(sprayer::telemetry::count_occurrences(s, "\"type\":\"snapshot\""),
            0u);

  // Tracer plausibility: stages saw samples, the per-stage delta counts
  // never exceed the stamped population, and every stage latency is within
  // the run's wall-clock envelope (a stuck clock or wrong re-stamp order
  // shows up as an absurd p99 here).
  EXPECT_GT(mbox.tracer()->sampled(), 0u);
  EXPECT_LE(snap.value("trace.completed"), mbox.tracer()->sampled());
  for (const char* name :
       {"trace.steer_ns", "trace.queue_ns", "trace.nf_ns"}) {
    const auto* h = snap.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->merged.count(), 0u) << name;
    EXPECT_LT(h->merged.p99(), 60ull * 1000 * 1000 * 1000) << name;  // <60s
  }
  // The inconsistent-snapshot gauge is wired into the registry.
  EXPECT_NE(snap.find("telemetry.snapshot.inconsistent"), nullptr);
}

TEST(ThreadedFlowExport, DisabledFeaturesLeaveNoFootprint) {
  net::PacketPool pool(1u << 10, 256);
  nf::SyntheticNf nf(0);
  std::atomic<u64> tag_violations{0};
  ThreadedMiddlebox::TxBatchHandler sink =
      [&](std::span<net::Packet* const> pkts) {
        for (const net::Packet* pkt : pkts) {
          // No tracer, no reorder observatory: injection-side user_tag
          // values must survive to tx untouched.
          if (pkt->user_tag != 7) {
            tag_violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        net::free_packets(pkts);
      };

  SprayerConfig cfg;
  cfg.num_cores = 2;
  cfg.telemetry = true;
  ThreadedMiddlebox mbox(cfg, nf, std::move(sink));
  EXPECT_FALSE(mbox.flow_export_enabled());
  EXPECT_EQ(mbox.flow_exporter(), nullptr);
  EXPECT_EQ(mbox.flow_recorder(static_cast<CoreId>(0)), nullptr);
  EXPECT_EQ(mbox.tracer(), nullptr);
  mbox.start();

  const net::FiveTuple flow{net::Ipv4Addr{10, 0, 0, 1},
                            net::Ipv4Addr{10, 0, 0, 2}, 1234, 80,
                            net::kProtoTcp};
  net::Packet* syn = tuple_packet(pool, flow, net::TcpFlags::kSyn, 0);
  syn->user_tag = 7;
  mbox.inject(syn);
  mbox.wait_idle();
  for (int i = 0; i < 200; ++i) {
    net::Packet* pkt = tuple_packet(pool, flow, net::TcpFlags::kAck, i);
    if (pkt == nullptr) continue;
    pkt->user_tag = 7;
    mbox.inject(pkt);
  }
  mbox.wait_idle();
  mbox.stop();
  EXPECT_EQ(tag_violations.load(), 0u);

  const auto snap = mbox.telemetry_snapshot();
  EXPECT_EQ(snap.find_histogram("trace.steer_ns"), nullptr);
  EXPECT_EQ(snap.find("flow_export.records"), nullptr);
}

}  // namespace
}  // namespace sprayer::core
