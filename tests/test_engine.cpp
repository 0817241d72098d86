// SprayerCore engine unit tests with a mock platform port: classification,
// redirection, verdict handling, stateless mode, cycle accounting — and the
// FlowStateApi contract (writing-partition enforcement).
#include <gtest/gtest.h>

#include <deque>

#include "core/core_picker.hpp"
#include "core/engine.hpp"
#include "core/flow_state.hpp"
#include "core/nf.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "nic/pktgen.hpp"

namespace sprayer::core {
namespace {

constexpr u32 kCores = 4;

/// Records transfers and transmissions instead of performing them.
class MockPort final : public ICorePort {
 public:
  u32 transfer_batch(CoreId dest,
                     std::span<net::Packet* const> pkts) override {
    if (reject_transfers) return 0;
    for (net::Packet* pkt : pkts) transferred.emplace_back(dest, pkt);
    return static_cast<u32>(pkts.size());
  }
  void transmit_batch(std::span<net::Packet* const> pkts) override {
    transmitted.insert(transmitted.end(), pkts.begin(), pkts.end());
  }

  std::vector<std::pair<CoreId, net::Packet*>> transferred;
  std::vector<net::Packet*> transmitted;
  bool reject_transfers = false;
};

/// NF that records which handler saw which packets and can drop by port.
class RecordingNf final : public INetworkFunction {
 public:
  void init(NfInitConfig& cfg, u32 /*cores*/) override {
    cfg.flow_table_capacity = 256;
    cfg.flow_entry_size = 8;
    cfg.stateless = stateless;
  }
  void connection_packets(runtime::PacketBatch& batch, NfContext& ctx,
                          BatchVerdicts& /*v*/) override {
    conn_seen += batch.size();
    ctx.consume_cycles(conn_cost * batch.size());
  }
  void regular_packets(runtime::PacketBatch& batch, BatchMeta& /*meta*/,
                       NfContext& ctx, BatchVerdicts& verdicts) override {
    regular_seen += batch.size();
    ctx.consume_cycles(regular_cost * batch.size());
    for (u32 i = 0; i < batch.size(); ++i) {
      if (drop_port != 0 && batch[i]->is_tcp() &&
          batch[i]->tcp().dst_port() == drop_port) {
        verdicts.drop(i);
      }
    }
  }

  bool stateless = false;
  Cycles conn_cost = 0;
  Cycles regular_cost = 0;
  u16 drop_port = 0;
  u64 conn_seen = 0;
  u64 regular_seen = 0;
};

struct EngineBench {
  net::PacketPool pool{512, 256};
  SprayerConfig cfg;
  CorePicker picker{kCores};
  std::vector<std::unique_ptr<FlowTable>> tables;
  std::vector<FlowTable*> table_ptrs;
  RecordingNf nf;
  DynamicChain chain{nf};
  MockPort port;
  telemetry::MetricsRegistry registry{kCores + 1};
  EngineMetrics metrics;
  std::unique_ptr<NfContext> ctx;
  std::vector<NfContext*> ctx_ptrs;
  std::unique_ptr<SprayerCore> engine;
  CoreId core_id;

  explicit EngineBench(CoreId id = 0, bool stateless = false) : core_id(id) {
    cfg.num_cores = kCores;
    nf.stateless = stateless;
    for (u32 c = 0; c < kCores; ++c) {
      tables.push_back(
          std::make_unique<FlowTable>(256, 8, static_cast<CoreId>(c)));
      table_ptrs.push_back(tables.back().get());
    }
    ctx = std::make_unique<NfContext>(
        id, std::span<FlowTable* const>{table_ptrs}, picker, cfg.costs);
    ctx_ptrs.push_back(ctx.get());
    metrics = EngineMetrics::register_in(registry, /*extras=*/false);
    registry.finalize();
    engine = std::make_unique<SprayerCore>(
        id, cfg, stateless, chain, picker,
        std::span<NfContext* const>{ctx_ptrs}, port, metrics);
  }

  /// The engine's counts, read from its registry shard.
  [[nodiscard]] CoreStats stats() const {
    return metrics.read(registry, core_id, 1);
  }

  net::Packet* make(const net::FiveTuple& t, u8 flags) {
    net::TcpSegmentSpec spec;
    spec.tuple = t;
    spec.flags = flags;
    net::Packet* pkt = net::build_tcp_raw(pool, spec);
    return pkt;
  }

  /// A tuple whose designated core is `target`.
  net::FiveTuple tuple_for_core(CoreId target, u64 seed = 0) {
    Rng rng(1234 + seed);
    for (;;) {
      net::FiveTuple t;
      t.src_ip = net::Ipv4Addr{static_cast<u32>(rng.next())};
      t.dst_ip = net::Ipv4Addr{static_cast<u32>(rng.next())};
      t.src_port = static_cast<u16>(rng.next());
      t.dst_port = static_cast<u16>(rng.uniform_range(1, 65535));
      t.protocol = net::kProtoTcp;
      if (picker.pick(t) == target) return t;
    }
  }
};

TEST(Engine, RegularPacketsProcessedLocally) {
  EngineBench b;
  runtime::PacketBatch batch;
  batch.push(b.make(b.tuple_for_core(2), net::TcpFlags::kAck));
  batch.push(b.make(b.tuple_for_core(3), net::TcpFlags::kAck));
  const Cycles cycles = b.engine->process_rx(batch, 0);

  EXPECT_EQ(b.nf.regular_seen, 2u);
  EXPECT_EQ(b.nf.conn_seen, 0u);
  EXPECT_EQ(b.port.transmitted.size(), 2u);   // forwarded regardless of core
  EXPECT_EQ(b.port.transferred.size(), 0u);   // regular packets never move
  EXPECT_GT(cycles, 0u);
  for (net::Packet* p : b.port.transmitted) b.pool.free(p);
}

TEST(Engine, ConnectionPacketsRedirectedToDesignatedCore) {
  EngineBench b(/*id=*/0);
  runtime::PacketBatch batch;
  const auto local = b.tuple_for_core(0);
  const auto remote = b.tuple_for_core(3);
  batch.push(b.make(local, net::TcpFlags::kSyn));
  batch.push(b.make(remote, net::TcpFlags::kSyn));
  batch.push(b.make(remote, net::TcpFlags::kFin | net::TcpFlags::kAck));
  (void)b.engine->process_rx(batch, 0);

  EXPECT_EQ(b.nf.conn_seen, 1u);  // the local one
  ASSERT_EQ(b.port.transferred.size(), 2u);
  EXPECT_EQ(b.port.transferred[0].first, 3);
  EXPECT_EQ(b.port.transferred[1].first, 3);
  EXPECT_EQ(b.stats().conn_local, 1u);
  EXPECT_EQ(b.stats().conn_transferred_out, 2u);
  for (auto& [core, p] : b.port.transferred) b.pool.free(p);
  for (net::Packet* p : b.port.transmitted) b.pool.free(p);
}

TEST(Engine, TransferRejectionParksAndRetriesLosslessly) {
  EngineBench b(/*id=*/0);
  b.port.reject_transfers = true;
  runtime::PacketBatch batch;
  batch.push(b.make(b.tuple_for_core(1), net::TcpFlags::kSyn));
  (void)b.engine->process_rx(batch, 0);

  // The rejected descriptor is parked, not freed: transfer_drops stays
  // zero and the packet is still owned by the engine.
  EXPECT_EQ(b.stats().transfer_drops, 0u);
  EXPECT_EQ(b.engine->pending_transfers(), 1u);
  EXPECT_GT(b.stats().transfer_retries, 0u);
  EXPECT_EQ(b.pool.available(), b.pool.size() - 1);

  // Several more flush rounds against a still-full ring keep it parked.
  b.engine->flush_transfers();
  b.engine->flush_transfers();
  EXPECT_EQ(b.engine->pending_transfers(), 1u);
  EXPECT_EQ(b.stats().transfer_drops, 0u);
  EXPECT_EQ(b.stats().conn_transferred_out, 0u);

  // Once the destination has room again the backlog is delivered.
  b.port.reject_transfers = false;
  b.engine->flush_transfers();
  EXPECT_EQ(b.engine->pending_transfers(), 0u);
  EXPECT_EQ(b.stats().conn_transferred_out, 1u);
  ASSERT_EQ(b.port.transferred.size(), 1u);
  EXPECT_EQ(b.port.transferred[0].first, 1);
  for (auto& [core, p] : b.port.transferred) b.pool.free(p);
  EXPECT_EQ(b.pool.available(), b.pool.size());
}

TEST(Engine, RetryPreservesOrderAndReleaseStrandedFrees) {
  EngineBench b(/*id=*/0);
  b.port.reject_transfers = true;
  // Park a SYN, then stage a FIN for the same destination while the ring
  // is still full: the retry must deliver the SYN first.
  runtime::PacketBatch first;
  first.push(b.make(b.tuple_for_core(1), net::TcpFlags::kSyn));
  (void)b.engine->process_rx(first, 0);
  runtime::PacketBatch second;
  second.push(b.make(b.tuple_for_core(1),
                     net::TcpFlags::kFin | net::TcpFlags::kAck));
  (void)b.engine->process_rx(second, 0);
  EXPECT_EQ(b.engine->pending_transfers(), 2u);

  b.port.reject_transfers = false;
  b.engine->flush_transfers();
  ASSERT_EQ(b.port.transferred.size(), 2u);
  EXPECT_TRUE(b.port.transferred[0].second->tcp().flags() &
              net::TcpFlags::kSyn);
  EXPECT_TRUE(b.port.transferred[1].second->tcp().flags() &
              net::TcpFlags::kFin);
  for (auto& [core, p] : b.port.transferred) b.pool.free(p);

  // Teardown path: a backlog the executor could never place is freed and
  // only then counted as dropped.
  b.port.transferred.clear();
  b.port.reject_transfers = true;
  runtime::PacketBatch third;
  third.push(b.make(b.tuple_for_core(1), net::TcpFlags::kRst));
  (void)b.engine->process_rx(third, 0);
  EXPECT_EQ(b.engine->pending_transfers(), 1u);
  EXPECT_EQ(b.engine->release_stranded(), 1u);
  EXPECT_EQ(b.engine->pending_transfers(), 0u);
  EXPECT_EQ(b.stats().transfer_drops, 1u);
  EXPECT_EQ(b.pool.available(), b.pool.size());
}

TEST(Engine, ForeignBatchGoesToConnectionHandler) {
  EngineBench b(/*id=*/2);
  runtime::PacketBatch batch;
  batch.push(b.make(b.tuple_for_core(2), net::TcpFlags::kSyn));
  batch.push(b.make(b.tuple_for_core(2, 1), net::TcpFlags::kRst));
  (void)b.engine->process_foreign(batch, 0);

  EXPECT_EQ(b.nf.conn_seen, 2u);
  EXPECT_EQ(b.stats().conn_foreign_in, 2u);
  EXPECT_EQ(b.port.transmitted.size(), 2u);
  for (net::Packet* p : b.port.transmitted) b.pool.free(p);
}

TEST(Engine, StatelessModeNeverRedirects) {
  EngineBench b(/*id=*/0, /*stateless=*/true);
  runtime::PacketBatch batch;
  batch.push(b.make(b.tuple_for_core(3), net::TcpFlags::kSyn));
  batch.push(b.make(b.tuple_for_core(3), net::TcpFlags::kAck));
  (void)b.engine->process_rx(batch, 0);

  EXPECT_EQ(b.port.transferred.size(), 0u);
  EXPECT_EQ(b.nf.regular_seen, 2u);  // everything goes to regular_packets
  EXPECT_EQ(b.nf.conn_seen, 0u);
  for (net::Packet* p : b.port.transmitted) b.pool.free(p);
}

TEST(Engine, VerdictDropsAreFreedAndCounted) {
  EngineBench b;
  b.nf.drop_port = 999;
  net::FiveTuple t = b.tuple_for_core(1);
  t.dst_port = 999;
  runtime::PacketBatch batch;
  batch.push(b.make(t, net::TcpFlags::kAck));
  batch.push(b.make(b.tuple_for_core(1, 7), net::TcpFlags::kAck));
  (void)b.engine->process_rx(batch, 0);

  EXPECT_EQ(b.stats().nf_drops, 1u);
  EXPECT_EQ(b.port.transmitted.size(), 1u);
  for (net::Packet* p : b.port.transmitted) b.pool.free(p);
  EXPECT_EQ(b.pool.available(), b.pool.size());
}

TEST(Engine, CycleAccountingIncludesNfWork) {
  EngineBench cheap;
  EngineBench costly;
  costly.nf.regular_cost = 5000;

  runtime::PacketBatch a, bb;
  a.push(cheap.make(cheap.tuple_for_core(1), net::TcpFlags::kAck));
  bb.push(costly.make(costly.tuple_for_core(1), net::TcpFlags::kAck));
  const Cycles c1 = cheap.engine->process_rx(a, 0);
  const Cycles c2 = costly.engine->process_rx(bb, 0);
  EXPECT_EQ(c2 - c1, 5000u);
  for (net::Packet* p : cheap.port.transmitted) cheap.pool.free(p);
  for (net::Packet* p : costly.port.transmitted) costly.pool.free(p);
}

TEST(Engine, NonTcpPacketsAreRegularEvenInSprayMode) {
  EngineBench b;
  net::UdpDatagramSpec spec;
  spec.tuple = {net::Ipv4Addr{1, 1, 1, 1}, net::Ipv4Addr{2, 2, 2, 2}, 53,
                53, net::kProtoUdp};
  runtime::PacketBatch batch;
  batch.push(net::build_udp_raw(b.pool, spec));
  (void)b.engine->process_rx(batch, 0);
  EXPECT_EQ(b.nf.regular_seen, 1u);
  EXPECT_EQ(b.port.transferred.size(), 0u);
  for (net::Packet* p : b.port.transmitted) b.pool.free(p);
}

// --- FlowStateApi contract ----------------------------------------------

struct ApiBench : EngineBench {
  ApiBench() : EngineBench(0) {}
  FlowStateApi& api() { return ctx->flows(); }
};

TEST(FlowStateApi, WritingPartitionViolationsThrow) {
  ApiBench b;
  const auto foreign = b.tuple_for_core(2);
  EXPECT_THROW((void)b.api().insert_local_flow(foreign), std::logic_error);
  EXPECT_THROW((void)b.api().remove_local_flow(foreign), std::logic_error);
  // Reads of foreign flows are always allowed.
  EXPECT_EQ(b.api().get_flow(foreign), nullptr);
}

TEST(FlowStateApi, LocalInsertAndRemoteRead) {
  ApiBench b;
  const auto local = b.tuple_for_core(0);
  void* e = b.api().insert_local_flow(local);
  ASSERT_NE(e, nullptr);
  *static_cast<u64*>(e) = 0x1234;

  // Another core's context reads it via get_flow.
  NfContext ctx2(2, std::span<FlowTable* const>{b.table_ptrs}, b.picker,
                 b.cfg.costs);
  const void* remote = ctx2.flows().get_flow(local);
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(*static_cast<const u64*>(remote), 0x1234u);

  // And a consistent snapshot too.
  u8 buf[8];
  EXPECT_TRUE(ctx2.flows().read_flow(local, buf));
  u64 v;
  std::memcpy(&v, buf, 8);
  EXPECT_EQ(v, 0x1234u);
}

TEST(FlowStateApi, BulkGetFlows) {
  ApiBench b;
  std::vector<net::FiveTuple> keys;
  for (u64 i = 0; i < 5; ++i) keys.push_back(b.tuple_for_core(0, 100 + i));
  for (const auto& k : keys) {
    ASSERT_NE(b.api().insert_local_flow(k), nullptr);
  }
  keys.push_back(b.tuple_for_core(1, 999));  // absent flow

  std::vector<const void*> out(keys.size());
  b.api().get_flows(keys, out);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NE(out[i], nullptr);
  EXPECT_EQ(out[5], nullptr);
}

TEST(FlowStateApi, ChargesCyclesPerOperation) {
  ApiBench b;
  const auto local = b.tuple_for_core(0);
  (void)b.ctx->drain_consumed();
  (void)b.api().insert_local_flow(local);
  EXPECT_EQ(b.ctx->drain_consumed(), b.cfg.costs.flow_insert);
  (void)b.api().get_local_flow(local);
  EXPECT_EQ(b.ctx->drain_consumed(), b.cfg.costs.flow_lookup_local);
  (void)b.api().get_flow(b.tuple_for_core(3));
  EXPECT_EQ(b.ctx->drain_consumed(), b.cfg.costs.flow_lookup_remote);
}

TEST(CorePickerTest, MatchesSymmetricRssAndIsStable) {
  CorePicker picker(8);
  Rng rng(55);
  for (int i = 0; i < 200; ++i) {
    net::FiveTuple t;
    t.src_ip = net::Ipv4Addr{static_cast<u32>(rng.next())};
    t.dst_ip = net::Ipv4Addr{static_cast<u32>(rng.next())};
    t.src_port = static_cast<u16>(rng.next());
    t.dst_port = static_cast<u16>(rng.next());
    t.protocol = net::kProtoTcp;
    EXPECT_EQ(picker.pick(t), picker.pick(t.reversed()));
    EXPECT_LT(picker.pick(t), 8);
  }
  // Core counts that do not divide the indirection table are rejected
  // (designated cores would diverge from RSS placement).
  EXPECT_THROW(CorePicker{3}, std::logic_error);
}

}  // namespace
}  // namespace sprayer::core
