// Host demultiplexing, connection edge cases (RST, duplicate SYN), worker
// group lifecycle, Flow Director rule precedence, link accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.hpp"
#include "net/packet_builder.hpp"
#include "nic/flow_director.hpp"
#include "runtime/worker_group.hpp"
#include "tcp/host.hpp"

namespace sprayer {
namespace {

struct HostPair {
  sim::Simulator sim;
  net::PacketPool pool{4096, 1600};
  tcp::Host client{sim, pool, "client"};
  tcp::Host server{sim, pool, "server"};
  std::unique_ptr<sim::Link> c2s;
  std::unique_ptr<sim::Link> s2c;

  HostPair() {
    sim::LinkConfig cfg;
    cfg.propagation_delay = 5 * kMicrosecond;
    c2s = std::make_unique<sim::Link>(sim, cfg, server, "c2s");
    s2c = std::make_unique<sim::Link>(sim, cfg, client, "s2c");
    client.attach_out(*c2s);
    server.attach_out(*s2c);
  }

  static net::FiveTuple tuple(u16 sport = 40000) {
    return {net::Ipv4Addr{10, 0, 0, 1}, net::Ipv4Addr{10, 0, 0, 2}, sport,
            5201, net::kProtoTcp};
  }
};

TEST(Host, NonListeningServerIgnoresSyn) {
  HostPair hp;  // server never calls listen_all
  tcp::TcpConfig cfg;
  tcp::TcpConnection& conn = hp.client.open(HostPair::tuple(), cfg, 0, 1);
  hp.sim.run_until(from_seconds(0.005));
  EXPECT_EQ(conn.state(), tcp::TcpState::kSynSent);  // no SYN-ACK ever
  EXPECT_GT(hp.server.unmatched_packets(), 0u);
  EXPECT_EQ(hp.server.connections().size(), 0u);
}

TEST(Host, DuplicateSynCreatesOneConnection) {
  HostPair hp;
  tcp::TcpConfig cfg;
  // Long initial RTO so only the handshake's own machinery retransmits —
  // then force a duplicate SYN by hand.
  hp.server.listen_all(cfg);
  (void)hp.client.open(HostPair::tuple(), cfg, 0, 1);
  hp.sim.run_until(from_micros(1));  // SYN on the wire

  net::TcpSegmentSpec spec;  // a duplicated SYN from the same client tuple
  spec.tuple = HostPair::tuple();
  spec.flags = net::TcpFlags::kSyn;
  spec.seq = 12345;
  hp.c2s->send(net::build_tcp_raw(hp.pool, spec));

  hp.sim.run_until(from_seconds(0.01));
  EXPECT_EQ(hp.server.connections().size(), 1u);  // demuxed to the same conn
}

TEST(Host, NonTcpPacketsAreCountedUnmatched) {
  HostPair hp;
  net::UdpDatagramSpec spec;
  spec.tuple = {net::Ipv4Addr{1, 1, 1, 1}, net::Ipv4Addr{10, 0, 0, 2}, 9, 9,
                net::kProtoUdp};
  hp.c2s->send(net::build_udp_raw(hp.pool, spec));
  hp.sim.run_until(from_seconds(0.001));
  EXPECT_EQ(hp.server.unmatched_packets(), 1u);
  EXPECT_EQ(hp.pool.available(), hp.pool.size());  // freed, not leaked
}

TEST(Host, RstTerminatesEstablishedConnection) {
  HostPair hp;
  tcp::TcpConfig cfg;
  hp.server.listen_all(cfg);
  tcp::TcpConnection& conn = hp.client.open(HostPair::tuple(), cfg, 0, 2);
  hp.sim.run_until(from_seconds(0.005));
  ASSERT_EQ(conn.state(), tcp::TcpState::kEstablished);

  // Forge a RST from the server side.
  net::TcpSegmentSpec spec;
  spec.tuple = HostPair::tuple().reversed();
  spec.flags = net::TcpFlags::kRst | net::TcpFlags::kAck;
  hp.s2c->send(net::build_tcp_raw(hp.pool, spec));
  hp.sim.run_until(from_seconds(0.01));
  EXPECT_EQ(conn.state(), tcp::TcpState::kDone);
}

TEST(WorkerGroup, StartStopAndWorkDistribution) {
  runtime::WorkerGroup group;
  EXPECT_FALSE(group.running());
  std::atomic<u64> iterations{0};
  std::array<std::atomic<u64>, 3> per_core{};
  group.start(3, [&](CoreId core) {
    iterations.fetch_add(1, std::memory_order_relaxed);
    per_core[core].fetch_add(1, std::memory_order_relaxed);
    return false;  // "no work": workers must still keep polling
  });
  EXPECT_TRUE(group.running());
  EXPECT_EQ(group.size(), 3u);
  // Wait for every worker, not just for a total: on a loaded host one thread
  // may start long after the others have done hundreds of iterations. The
  // deadline turns a worker that never runs into a failure, not a hang.
  const auto all_ran = [&] {
    for (const auto& c : per_core) {
      if (c.load(std::memory_order_relaxed) == 0) return false;
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((iterations.load(std::memory_order_relaxed) < 300 || !all_ran()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  group.stop();
  EXPECT_FALSE(group.running());
  for (const auto& c : per_core) {
    EXPECT_GT(c.load(), 0u);  // every worker ran
  }
  group.stop();  // idempotent
}

TEST(WorkerGroup, RestartAfterStop) {
  runtime::WorkerGroup group;
  std::atomic<u64> count{0};
  group.start(1, [&](CoreId) {
    count.fetch_add(1, std::memory_order_relaxed);
    return true;
  });
  while (count.load() < 10) std::this_thread::yield();
  group.stop();
  const u64 first = count.load();
  group.start(2, [&](CoreId) {
    count.fetch_add(1, std::memory_order_relaxed);
    return true;
  });
  while (count.load() < first + 10) std::this_thread::yield();
  group.stop();
}

TEST(FlowDirector, ExactRulesTakePrecedenceOverChecksumSpray) {
  nic::FlowDirector fdir;
  ASSERT_TRUE(fdir.program_checksum_spray(8).ok());
  const net::FiveTuple pinned{net::Ipv4Addr{10, 0, 0, 9},
                              net::Ipv4Addr{10, 0, 0, 10}, 7777, 80,
                              net::kProtoTcp};
  ASSERT_TRUE(fdir.add_exact_rule(pinned, 5).ok());

  net::PacketPool pool(8);
  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    net::TcpSegmentSpec spec;
    spec.tuple = pinned;
    spec.payload_len = 8;
    u8 payload[8];
    const u64 r = rng.next();
    std::memcpy(payload, &r, 8);
    spec.payload = payload;
    net::Packet* pkt = net::build_tcp_raw(pool, spec);
    const auto q = fdir.match(*pkt);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, 5);  // pinned despite the random checksum
    pool.free(pkt);
  }
}

TEST(Link, CountersTrackTraffic) {
  sim::Simulator sim;
  net::PacketPool pool(16);
  class Sink final : public sim::IPacketSink {
   public:
    void receive(net::Packet* pkt) override { pkt->pool()->free(pkt); }
  } sink;
  sim::Link link(sim, sim::LinkConfig{}, sink, "counted");

  net::TcpSegmentSpec spec;
  spec.tuple = HostPair::tuple();
  spec.payload_len = 100;
  for (int i = 0; i < 5; ++i) {
    link.send(net::build_tcp_raw(pool, spec));
  }
  sim.run();
  EXPECT_EQ(link.counters().tx_packets, 5u);
  EXPECT_EQ(link.counters().tx_bytes, 5u * (54 + 100));
  EXPECT_EQ(link.counters().dropped, 0u);
  EXPECT_EQ(link.name(), "counted");
}

}  // namespace
}  // namespace sprayer
