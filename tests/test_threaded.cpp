// ThreadedMiddlebox: the framework on real threads — packet conservation,
// writing partition with true parallelism, RSS vs spray spreading, NAT
// correctness under concurrent cores.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <span>
#include <thread>

#include "common/rng.hpp"
#include "core/threaded.hpp"
#include "net/packet_builder.hpp"
#include "nf/firewall.hpp"
#include "nf/nat.hpp"
#include "nf/synthetic.hpp"
#include "nic/pktgen.hpp"

namespace sprayer::core {
namespace {

constexpr u32 kCores = 4;

struct Collector {
  std::atomic<u64> packets{0};
  std::atomic<u64> tcp{0};

  ThreadedMiddlebox::TxHandler handler() {
    return [this](net::Packet* pkt) {
      packets.fetch_add(1, std::memory_order_relaxed);
      if (pkt->is_tcp()) tcp.fetch_add(1, std::memory_order_relaxed);
      pkt->pool()->free(pkt);
    };
  }
};

net::Packet* make_packet(net::PacketPool& pool, const net::FiveTuple& t,
                         u8 flags, u64 payload_seed) {
  net::TcpSegmentSpec spec;
  spec.tuple = t;
  spec.flags = flags;
  spec.payload_len = 8;
  u8 payload[8];
  std::memcpy(payload, &payload_seed, 8);
  spec.payload = payload;
  return net::build_tcp_raw(pool, spec);
}

TEST(ThreadedMiddlebox, ForwardsEverythingAndConservesPackets) {
  net::PacketPool pool(8192, 256);
  nf::SyntheticNf nf(0);
  Collector out;
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  ThreadedMiddlebox mbox(cfg, nf, out.handler());
  mbox.start();

  Rng rng(1);
  const auto flows = nic::random_tcp_flows(8, 3);
  u64 injected = 0;
  // SYNs first so state exists, then sprayed data.
  for (const auto& f : flows) {
    if (mbox.inject(make_packet(pool, f, net::TcpFlags::kSyn, 0))) {
      ++injected;
    }
  }
  // Unlike the simulator, worker threads have no global time order: wait
  // for the SYNs to install state before data packets race ahead of them.
  mbox.wait_idle();
  for (int i = 0; i < 20000; ++i) {
    const auto& f = flows[i % flows.size()];
    net::Packet* pkt =
        make_packet(pool, f, net::TcpFlags::kAck, rng.next());
    if (pkt == nullptr) {  // pool backpressure: let workers drain
      std::this_thread::yield();
      continue;
    }
    if (mbox.inject(pkt)) ++injected;
  }
  mbox.wait_idle();
  mbox.stop();

  EXPECT_EQ(out.packets.load(), injected);
  EXPECT_EQ(pool.available(), pool.size());  // no leaks anywhere
  EXPECT_EQ(nf.lookup_misses(), 0u);         // writing partition held
}

TEST(ThreadedMiddlebox, SprayUsesAllCoresRssDoesNot) {
  net::PacketPool pool(8192, 256);
  const net::FiveTuple flow{net::Ipv4Addr{10, 0, 0, 1},
                            net::Ipv4Addr{10, 0, 0, 2}, 1234, 80,
                            net::kProtoTcp};
  for (const auto mode : {DispatchMode::kRss, DispatchMode::kSpray}) {
    nf::SyntheticNf nf(0);
    Collector out;
    SprayerConfig cfg;
    cfg.num_cores = kCores;
    cfg.mode = mode;
    ThreadedMiddlebox mbox(cfg, nf, out.handler());
    mbox.start();

    Rng rng(7);
    mbox.inject(make_packet(pool, flow, net::TcpFlags::kSyn, 0));
    for (int i = 0; i < 8000; ++i) {
      net::Packet* pkt =
          make_packet(pool, flow, net::TcpFlags::kAck, rng.next());
      if (pkt == nullptr) {
        std::this_thread::yield();
        --i;
        continue;
      }
      while (!mbox.inject(pkt)) {
        pkt = make_packet(pool, flow, net::TcpFlags::kAck, rng.next());
        std::this_thread::yield();
      }
    }
    mbox.wait_idle();
    mbox.stop();

    const auto total = mbox.total_stats();
    u32 active_cores = 0;
    for (u32 c = 0; c < kCores; ++c) {
      // Flow state exists only on the designated core either way.
      if (mbox.flow_table(static_cast<CoreId>(c)).size() > 0) {
        EXPECT_EQ(c, mbox.picker().pick(flow.canonical()));
      }
    }
    (void)active_cores;
    if (mode == DispatchMode::kSpray) {
      EXPECT_GT(total.rx_packets, 7000u);
    }
  }
}

TEST(ThreadedMiddlebox, StagedTransfersFlushOnIdle) {
  // Spray nothing but connection packets in tiny dribbles: almost every one
  // lands on a non-designated core and goes through a transfer staging
  // buffer. After wait_idle() every staged descriptor must have been
  // flushed, processed, and either transmitted or freed — none stranded.
  net::PacketPool pool(4096, 256);
  nf::SyntheticNf nf(0);
  Collector out;
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  ThreadedMiddlebox mbox(cfg, nf, out.handler());
  mbox.start();

  const auto flows = nic::random_tcp_flows(48, 11);
  u64 injected = 0;
  for (const auto& f : flows) {
    if (mbox.inject(make_packet(pool, f, net::TcpFlags::kSyn, 0))) {
      ++injected;
    }
    mbox.wait_idle();  // force idle between singletons: worst stranding case
  }
  for (const auto& f : flows) {
    if (mbox.inject(make_packet(pool, f,
                                net::TcpFlags::kFin | net::TcpFlags::kAck,
                                1))) {
      ++injected;
    }
  }
  mbox.wait_idle();
  const auto total = mbox.total_stats();
  EXPECT_EQ(out.packets.load(), injected);
  EXPECT_GT(total.conn_transferred_out, 0u);  // staging path was exercised
  EXPECT_EQ(total.conn_transferred_out, total.conn_foreign_in);
  mbox.stop();
  EXPECT_EQ(pool.available(), pool.size());  // nothing stranded anywhere
}

TEST(ThreadedMiddlebox, BulkInjectAndBatchedTxConservePackets) {
  net::PacketPool pool(8192, 256);
  nf::SyntheticNf nf(0);
  std::atomic<u64> tx_batches{0};
  std::atomic<u64> tx_packets{0};
  ThreadedMiddlebox::TxBatchHandler sink =
      [&](std::span<net::Packet* const> pkts) {
        tx_batches.fetch_add(1, std::memory_order_relaxed);
        tx_packets.fetch_add(pkts.size(), std::memory_order_relaxed);
        net::free_packets(pkts);
      };
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  ThreadedMiddlebox mbox(cfg, nf, std::move(sink));
  mbox.start();

  Rng rng(3);
  const auto flows = nic::random_tcp_flows(8, 17);
  std::array<net::Packet*, 32> burst;
  u64 injected = 0;
  for (const auto& f : flows) {
    if (mbox.inject(make_packet(pool, f, net::TcpFlags::kSyn, 0))) {
      ++injected;
    }
  }
  mbox.wait_idle();
  for (int round = 0; round < 600; ++round) {
    u32 n = 0;
    while (n < burst.size()) {
      net::Packet* pkt = make_packet(pool, flows[rng.next() % flows.size()],
                                     net::TcpFlags::kAck, rng.next());
      if (pkt == nullptr) break;  // pool backpressure: inject what we have
      burst[n++] = pkt;
    }
    injected += mbox.inject_bulk({burst.data(), n});
    if (n < burst.size()) std::this_thread::yield();
  }
  mbox.wait_idle();
  mbox.stop();

  EXPECT_EQ(tx_packets.load(), injected);
  EXPECT_GT(tx_batches.load(), 0u);
  // The whole point: strictly fewer sink invocations than packets.
  EXPECT_LT(tx_batches.load(), tx_packets.load());
  EXPECT_EQ(pool.available(), pool.size());
  EXPECT_EQ(nf.lookup_misses(), 0u);
}

TEST(ThreadedMiddlebox, ScalarInjectFeedsQueueDelayHistogram) {
  // inject() is a burst of one through inject_bulk(): a scalar caller gets
  // the same rx timestamp, and so the same rx.queue_delay_ns samples.
  net::PacketPool pool(1024, 256);
  nf::SyntheticNf nf(0);
  Collector out;
  SprayerConfig cfg;
  cfg.num_cores = 2;
  cfg.mode = DispatchMode::kSpray;
  cfg.telemetry = true;
  ThreadedMiddlebox mbox(cfg, nf, out.handler());
  mbox.start();

  const auto flows = nic::random_tcp_flows(4, 5);
  u64 injected = 0;
  for (const auto& f : flows) {
    if (mbox.inject(make_packet(pool, f, net::TcpFlags::kSyn, 0))) {
      ++injected;
    }
  }
  mbox.wait_idle();
  for (u32 i = 0; i < 200; ++i) {
    net::Packet* pkt =
        make_packet(pool, flows[i % flows.size()], net::TcpFlags::kAck, i);
    if (mbox.inject(pkt)) ++injected;
  }
  mbox.wait_idle();
  const auto snap = mbox.telemetry_snapshot();
  mbox.stop();

  const auto* delay = snap.find_histogram("rx.queue_delay_ns");
  ASSERT_NE(delay, nullptr);
  EXPECT_GT(delay->merged.count(), 0u);
  EXPECT_EQ(out.packets.load(), injected);
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(ThreadedMiddlebox, ForeignPathCountsEveryPolledDescriptor) {
  // A firewall that rejects SYNs to port 81 drops redirected connection
  // packets on their designated core. The worker counts must still see
  // every descriptor it polled off the mesh, not the survivors the chain
  // compacted the batch to.
  net::PacketPool pool(4096, 256);
  nf::Acl acl(/*default_allow=*/true);
  acl.add_rule({.dst_port_lo = 81, .dst_port_hi = 81, .allow = false});
  nf::FirewallNf fw(std::move(acl));
  Collector out;
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  cfg.telemetry = true;
  ThreadedMiddlebox mbox(cfg, fw, out.handler());
  mbox.start();

  auto flows = nic::random_tcp_flows(64, 31);
  for (std::size_t i = 0; i < flows.size(); i += 2) flows[i].dst_port = 81;
  u64 injected = 0;
  for (const auto& f : flows) {
    if (mbox.inject(make_packet(pool, f, net::TcpFlags::kSyn, 0))) {
      ++injected;
    }
  }
  mbox.wait_idle();
  const auto snap = mbox.telemetry_snapshot();
  const CoreStats total = mbox.total_stats();
  mbox.stop();

  EXPECT_EQ(total.rx_packets, injected);
  EXPECT_EQ(fw.counters().rejected_by_acl, flows.size() / 2);
  EXPECT_EQ(total.nf_drops, flows.size() / 2);
  EXPECT_GT(total.conn_foreign_in, 0u);
  EXPECT_EQ(snap.value("worker.foreign_packets"), total.conn_foreign_in);
  // Descriptors polled: every rx packet once, every redirected one again.
  EXPECT_EQ(snap.value("worker.packets"),
            total.rx_packets + total.conn_foreign_in);
  EXPECT_EQ(out.packets.load(), injected - flows.size() / 2);
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(ThreadedMiddlebox, StatsReadableWhileWorkersRun) {
  // The engine counts are single-writer relaxed cells in the metrics
  // registry, so total_stats() and core_stats() may read them from any
  // thread while workers run — this test is the TSan witness for that
  // contract.
  net::PacketPool pool(8192, 256);
  nf::SyntheticNf nf(0);
  Collector out;
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  ThreadedMiddlebox mbox(cfg, nf, out.handler());
  mbox.start();

  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    u64 last_rx = 0;
    while (!stop_reader.load(std::memory_order_relaxed)) {
      const CoreStats total = mbox.total_stats();
      const u64 rx = total.rx_packets;
      EXPECT_GE(rx, last_rx);  // monotonic: single-writer counters
      last_rx = rx;
      u64 per_core = 0;
      for (u32 c = 0; c < kCores; ++c) {
        per_core += mbox.core_stats(static_cast<CoreId>(c)).rx_packets;
      }
      (void)per_core;  // the concurrent read itself is what TSan checks
    }
  });

  Rng rng(23);
  const auto flows = nic::random_tcp_flows(8, 29);
  u64 injected = 0;
  for (const auto& f : flows) {
    if (mbox.inject(make_packet(pool, f, net::TcpFlags::kSyn, 0))) {
      ++injected;
    }
  }
  mbox.wait_idle();
  for (int i = 0; i < 20000; ++i) {
    net::Packet* pkt =
        make_packet(pool, flows[i % flows.size()], net::TcpFlags::kAck,
                    rng.next());
    if (pkt == nullptr) {
      std::this_thread::yield();
      continue;
    }
    if (mbox.inject(pkt)) ++injected;
  }
  mbox.wait_idle();
  stop_reader.store(true);
  reader.join();
  mbox.stop();

  EXPECT_EQ(mbox.total_stats().rx_packets, injected);
  EXPECT_EQ(out.packets.load(), injected);
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(ThreadedMiddlebox, NatTranslatesUnderRealConcurrency) {
  net::PacketPool pool(8192, 256);
  nf::NatNf nat;
  std::atomic<u64> translated{0};
  const u32 external_ip = net::Ipv4Addr{192, 0, 2, 1}.host_order();
  ThreadedMiddlebox::TxHandler handler = [&](net::Packet* pkt) {
    if (pkt->is_tcp() && pkt->ipv4().src().host_order() == external_ip) {
      translated.fetch_add(1, std::memory_order_relaxed);
    }
    pkt->pool()->free(pkt);
  };

  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  ThreadedMiddlebox mbox(cfg, nat, std::move(handler));
  mbox.start();

  Rng rng(5);
  const auto flows = nic::random_tcp_flows(16, 21);
  for (const auto& f : flows) {
    mbox.inject(make_packet(pool, f, net::TcpFlags::kSyn, 0));
  }
  mbox.wait_idle();  // sessions installed before data arrives

  u64 data_sent = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto& f = flows[i % flows.size()];
    net::Packet* pkt =
        make_packet(pool, f, net::TcpFlags::kAck, rng.next());
    if (pkt == nullptr) {
      std::this_thread::yield();
      --i;
      continue;
    }
    if (mbox.inject(pkt)) ++data_sent;
  }
  mbox.wait_idle();
  mbox.stop();

  EXPECT_EQ(nat.counters().sessions_opened, 16u);
  // Every outbound packet (SYNs included) leaves with the external source.
  EXPECT_EQ(translated.load(), data_sent + 16);
  EXPECT_EQ(pool.available(), pool.size());
}

}  // namespace
}  // namespace sprayer::core
