// Service-chain engine: batch compaction units, chain-vs-sequential
// equivalence over the canonical NAT -> firewall -> LB -> monitor chain,
// the lazily built shared batch metadata, memoized-hash refresh across a
// tuple-rewriting hop, stateless hops inside a mixed chain, and a 4-core
// threaded churn run over the full chain.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/chain.hpp"
#include "core/threaded.hpp"
#include "hash/designated.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "nf/firewall.hpp"
#include "nf/load_balancer.hpp"
#include "nf/monitor.hpp"
#include "nf/nat.hpp"
#include "nf/redundancy.hpp"
#include "nf/synthetic.hpp"

namespace sprayer::core {
namespace {

const net::Ipv4Addr kVip{198, 51, 100, 1};
constexpr u16 kVport = 80;
const net::Ipv4Addr kExternalIp{192, 0, 2, 1};

net::Packet* make_pkt(net::PacketPool& pool, const net::FiveTuple& t, u8 flags,
                      u64 payload_seed = 0) {
  net::TcpSegmentSpec spec;
  spec.tuple = t;
  spec.flags = flags;
  spec.payload_len = 8;
  u8 payload[8];
  std::memcpy(payload, &payload_seed, 8);
  spec.payload = payload;
  return net::build_tcp_raw(pool, spec);
}

net::FiveTuple client_flow(u32 i) {
  net::FiveTuple t;
  t.src_ip = net::Ipv4Addr{10, 0, 0, static_cast<u8>(1 + i)};
  t.dst_ip = kVip;
  t.src_port = static_cast<u16>(1000 + i);
  t.dst_port = kVport;
  t.protocol = net::kProtoTcp;
  return t;
}

nf::Acl allow_all() { return nf::Acl{/*default_allow=*/true}; }

nf::LbConfig lb_config() {
  nf::LbConfig cfg;
  cfg.vip = kVip;
  cfg.vport = kVport;
  cfg.backends = {{net::MacAddr::from_id(1), net::Ipv4Addr{10, 1, 0, 1}},
                  {net::MacAddr::from_id(2), net::Ipv4Addr{10, 1, 0, 2}}};
  return cfg;
}

/// Everything a chain needs to run standalone on one core: per-hop flow
/// tables, per-hop contexts, scratch — the same wiring the executors build,
/// minus threads and rings.
class ChainRig {
 public:
  explicit ChainRig(DynamicChain& chain, u32 num_cores = 1)
      : chain_(chain), picker_(num_cores) {
    const u32 hops = chain.num_hops();
    hop_cfgs_.resize(hops);
    ChainInit ci;
    ci.hop_cfgs = hop_cfgs_;
    ci.num_cores = num_cores;
    chain_.init(ci);
    tables_.resize(hops);
    table_ptrs_.resize(hops);
    for (u32 h = 0; h < hops; ++h) {
      const u32 cap =
          hop_cfgs_[h].stateless ? 2u : hop_cfgs_[h].flow_table_capacity;
      for (u32 c = 0; c < num_cores; ++c) {
        tables_[h].push_back(std::make_unique<FlowTable>(
            cap, hop_cfgs_[h].flow_entry_size, static_cast<CoreId>(c)));
        table_ptrs_[h].push_back(tables_[h].back().get());
      }
    }
    for (u32 h = 0; h < hops; ++h) {
      contexts_.push_back(std::make_unique<NfContext>(
          static_cast<CoreId>(0), std::span<FlowTable* const>{table_ptrs_[h]},
          picker_, costs_));
      ctx_ptrs_.push_back(contexts_.back().get());
    }
  }

  void conn(runtime::PacketBatch& batch, runtime::PacketBatch& drops) {
    chain_.connection_pass(batch, scratch_,
                           std::span<NfContext* const>{ctx_ptrs_},
                           now_ += kMicrosecond, drops);
  }
  void regular(runtime::PacketBatch& batch, runtime::PacketBatch& drops) {
    chain_.regular_pass(batch, scratch_,
                        std::span<NfContext* const>{ctx_ptrs_},
                        now_ += kMicrosecond, drops);
  }

  [[nodiscard]] const ChainScratch& scratch() const { return scratch_; }

  [[nodiscard]] u64 table_entries() const {
    u64 n = 0;
    for (const auto& hop : tables_) {
      for (const auto& t : hop) n += t->size();
    }
    return n;
  }

 private:
  DynamicChain& chain_;
  CorePicker picker_;
  CostModel costs_{};
  std::vector<NfInitConfig> hop_cfgs_;
  std::vector<std::vector<std::unique_ptr<FlowTable>>> tables_;
  std::vector<std::vector<FlowTable*>> table_ptrs_;
  std::vector<std::unique_ptr<NfContext>> contexts_;
  std::vector<NfContext*> ctx_ptrs_;
  ChainScratch scratch_;
  Time now_ = 0;
};

// --- PacketBatch::compact --------------------------------------------------

TEST(PacketBatchCompact, SlidesSurvivorsDownInOrder) {
  net::PacketPool pool(64, 256);
  runtime::PacketBatch batch;
  std::vector<net::Packet*> made;
  for (u32 i = 0; i < 8; ++i) {
    net::FiveTuple t = client_flow(i);
    net::Packet* pkt = make_pkt(pool, t, net::TcpFlags::kAck);
    made.push_back(pkt);
    batch.push(pkt);
  }

  runtime::PacketBatch drops;
  std::vector<std::pair<u32, u32>> moves;
  const u32 survivors = batch.compact(
      [](u32 i) { return i % 2 == 0; }, drops,
      [&](u32 from, u32 to) { moves.emplace_back(from, to); });

  ASSERT_EQ(survivors, 4u);
  ASSERT_EQ(batch.size(), 4u);
  ASSERT_EQ(drops.size(), 4u);
  // Order preserved in both partitions.
  for (u32 j = 0; j < 4; ++j) {
    EXPECT_EQ(batch[j], made[2 * j + 1]);
    EXPECT_EQ(drops[j], made[2 * j]);
  }
  // Every survivor behind a hole moved exactly once, front to back.
  const std::vector<std::pair<u32, u32>> expected{{1, 0}, {3, 1}, {5, 2},
                                                  {7, 3}};
  EXPECT_EQ(moves, expected);

  net::free_packets(batch.packets());
  net::free_packets(drops.packets());
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(PacketBatchCompact, NoDropsIsANoOp) {
  net::PacketPool pool(64, 256);
  runtime::PacketBatch batch;
  for (u32 i = 0; i < 5; ++i) {
    batch.push(make_pkt(pool, client_flow(i), net::TcpFlags::kAck));
  }
  runtime::PacketBatch drops;
  u32 moves = 0;
  const u32 survivors = batch.compact([](u32) { return false; }, drops,
                                      [&](u32, u32) { ++moves; });
  EXPECT_EQ(survivors, 5u);
  EXPECT_EQ(drops.size(), 0u);
  EXPECT_EQ(moves, 0u);
  net::free_packets(batch.packets());
}

// --- Multi-hop chain vs sequential one-hop chains ---------------------------

/// One complete NF set for the canonical 4-hop chain.
struct NfSet {
  nf::NatNf nat;
  nf::FirewallNf fw{allow_all()};
  nf::LoadBalancerNf lb{lb_config()};
  nf::MonitorNf mon;
};

/// Transmitted-packet signature: final tuple, LB-assigned MAC, and both
/// checksums — if these match across arms, the arms rewrote identically.
std::string tx_signature(net::Packet* pkt) {
  const net::FiveTuple t = pkt->five_tuple();
  const net::MacAddr mac = pkt->eth().dst();
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%08x:%u>%08x:%u/%u m%02x%02x%02x%02x%02x%02x i%04x t%04x",
                t.src_ip.host_order(), t.src_port, t.dst_ip.host_order(),
                t.dst_port, t.protocol, mac.data()[0], mac.data()[1],
                mac.data()[2], mac.data()[3], mac.data()[4], mac.data()[5],
                pkt->ipv4().checksum(), pkt->tcp().checksum());
  return std::string{buf};
}

struct ArmResult {
  std::vector<std::string> tx;
  u64 drops = 0;
};

/// Drive one arm through the scripted workload: SYNs, three data rounds,
/// RSTs. `process(batch, is_conn, drops)` runs one batch through the arm.
template <class ProcessFn>
ArmResult run_workload(net::PacketPool& pool, u32 flows, ProcessFn&& process) {
  ArmResult result;
  auto run_batch = [&](u8 flags, u64 seed, bool is_conn) {
    runtime::PacketBatch batch;
    runtime::PacketBatch drops;
    for (u32 i = 0; i < flows; ++i) {
      batch.push(make_pkt(pool, client_flow(i), flags, seed));
    }
    process(batch, is_conn, drops);
    for (net::Packet* pkt : batch) result.tx.push_back(tx_signature(pkt));
    result.drops += drops.size();
    net::free_packets(batch.packets());
    net::free_packets(drops.packets());
  };

  run_batch(net::TcpFlags::kSyn, 0, true);
  for (u64 round = 1; round <= 3; ++round) {
    run_batch(net::TcpFlags::kAck, round, false);
  }
  run_batch(net::TcpFlags::kRst, 99, true);
  return result;
}

TEST(ChainEquivalence, MultiHopChainMatchesSequentialOneHopChains) {
  net::PacketPool pool(1024, 256);
  constexpr u32 kFlows = 16;

  // Arm 1: one four-hop chain, hops sharing the per-batch metadata.
  NfSet c;
  DynamicChain chain({&c.nat, &c.fw, &c.lb, &c.mon});
  ChainRig chain_rig(chain);
  const ArmResult chain_res =
      run_workload(pool, kFlows,
                   [&](runtime::PacketBatch& b, bool conn,
                       runtime::PacketBatch& drops) {
                     conn ? chain_rig.conn(b, drops)
                          : chain_rig.regular(b, drops);
                   });

  // Arm 2: four fully independent single-NF passes, survivors fed forward —
  // what running four separate middleboxes back-to-back would do (each
  // pass builds its own metadata).
  NfSet s;
  DynamicChain s0{s.nat}, s1{s.fw}, s2{s.lb}, s3{s.mon};
  std::vector<std::unique_ptr<ChainRig>> seq_rigs;
  for (DynamicChain* one_hop : {&s0, &s1, &s2, &s3}) {
    seq_rigs.push_back(std::make_unique<ChainRig>(*one_hop));
  }
  const ArmResult seq_res = run_workload(
      pool, kFlows,
      [&](runtime::PacketBatch& b, bool conn, runtime::PacketBatch& drops) {
        for (auto& rig : seq_rigs) {
          if (b.empty()) break;
          conn ? rig->conn(b, drops) : rig->regular(b, drops);
        }
      });

  // Identical forwarded packets (tuples, LB MACs, checksums), in order.
  EXPECT_EQ(chain_res.tx, seq_res.tx);
  EXPECT_EQ(chain_res.drops, seq_res.drops);
  EXPECT_EQ(chain_res.drops, 0u);  // ACL allows, every flow has state

  // Identical per-NF counters in both arms.
  for (const NfSet* set : {&c, &s}) {
    EXPECT_EQ(set->nat.counters().sessions_opened, kFlows);
    EXPECT_EQ(set->nat.counters().sessions_closed, kFlows);
    EXPECT_EQ(set->nat.counters().unmatched_dropped, 0u);
    EXPECT_EQ(set->nat.port_pool().claimed(), 0u);  // RSTs released all
    EXPECT_EQ(set->fw.counters().admitted, kFlows);
    EXPECT_EQ(set->fw.counters().closed, kFlows);
    EXPECT_EQ(set->fw.counters().dropped_no_state, 0u);
    EXPECT_EQ(set->lb.counters().assigned, kFlows);
    EXPECT_EQ(set->lb.counters().dropped_no_state, 0u);
    EXPECT_EQ(set->mon.aggregate().connections_opened, kFlows);
    EXPECT_EQ(set->mon.aggregate().connections_closed, kFlows);
    EXPECT_EQ(set->mon.aggregate().packets, kFlows * 5u);
  }
  EXPECT_EQ(chain_rig.table_entries(), 0u);
  EXPECT_EQ(pool.available(), pool.size());
}

// --- Lazily built shared metadata -------------------------------------------

TEST(ChainLazyMeta, SyntheticOnlyChainNeverBuildsMeta) {
  net::PacketPool pool(128, 256);
  nf::SyntheticNf first;
  nf::SyntheticNf second;
  DynamicChain chain({&first, &second});
  ChainRig rig(chain);

  constexpr u32 kFlows = 8;
  runtime::PacketBatch batch;
  runtime::PacketBatch drops;
  for (u32 i = 0; i < kFlows; ++i) {
    batch.push(make_pkt(pool, client_flow(i), net::TcpFlags::kSyn));
  }
  rig.conn(batch, drops);
  EXPECT_FALSE(rig.scratch().meta.built);
  net::free_packets(batch.packets());
  batch.clear();

  for (u32 i = 0; i < kFlows; ++i) {
    batch.push(make_pkt(pool, client_flow(i), net::TcpFlags::kAck, i));
  }
  rig.regular(batch, drops);
  ASSERT_EQ(batch.size(), kFlows);
  // Neither hop reads the shared tuples or hashes, so no hop built them.
  EXPECT_FALSE(rig.scratch().meta.built);
  net::free_packets(batch.packets());
  EXPECT_EQ(first.lookup_misses() + second.lookup_misses(), 0u);
  EXPECT_EQ(drops.size(), 0u);

  // Control: a hop that reads the metadata builds it during the pass.
  nf::MonitorNf mon;
  DynamicChain reader(mon);
  ChainRig reader_rig(reader);
  batch.clear();
  batch.push(make_pkt(pool, client_flow(0), net::TcpFlags::kAck));
  reader_rig.regular(batch, drops);
  EXPECT_TRUE(reader_rig.scratch().meta.built);
  net::free_packets(batch.packets());
  EXPECT_EQ(pool.available(), pool.size());
}

// --- Memoized-hash refresh across a rewriting hop -------------------------

TEST(ChainHashRefresh, SurvivorsCarryValidHashAfterNat) {
  net::PacketPool pool(128, 256);
  nf::NatNf nat;
  nf::MonitorNf mon;
  DynamicChain chain({&nat, &mon});
  ChainRig rig(chain);

  const net::FiveTuple t = client_flow(7);
  runtime::PacketBatch batch;
  runtime::PacketBatch drops;
  batch.push(make_pkt(pool, t, net::TcpFlags::kSyn));
  rig.conn(batch, drops);
  ASSERT_EQ(batch.size(), 1u);
  net::free_packets(batch.packets());
  batch.clear();

  batch.push(make_pkt(pool, t, net::TcpFlags::kAck, 42));
  rig.regular(batch, drops);
  ASSERT_EQ(batch.size(), 1u);
  net::Packet* out = batch[0];
  // NAT rewrote the source...
  EXPECT_EQ(out->ipv4().src().host_order(), kExternalIp.host_order());
  // ...and the chain re-memoized the hash for the downstream hop, so
  // post-chain consumers never read a stale memo.
  ASSERT_TRUE(out->has_flow_hash());
  EXPECT_EQ(out->flow_hash(), hash::flow_hash(out->five_tuple()));
  // Symmetric hash: the memo also routes return traffic correctly.
  EXPECT_EQ(out->flow_hash(), hash::flow_hash(out->five_tuple().reversed()));
  net::free_packets(batch.packets());
  EXPECT_EQ(pool.available(), pool.size());
}

TEST(ChainHashRefresh, LastHopRewriteLeavesMemoLazy) {
  // When the tuple-rewriting hop is the last hop there is no downstream
  // reader: the chain skips the eager refresh and leaves the memo
  // invalidated, and the next packet_flow_hash() call recomputes it.
  net::PacketPool pool(128, 256);
  nf::NatNf nat;
  DynamicChain chain(nat);
  ChainRig rig(chain);

  const net::FiveTuple t = client_flow(3);
  runtime::PacketBatch batch;
  runtime::PacketBatch drops;
  batch.push(make_pkt(pool, t, net::TcpFlags::kSyn));
  rig.conn(batch, drops);
  ASSERT_EQ(batch.size(), 1u);
  net::free_packets(batch.packets());
  batch.clear();

  batch.push(make_pkt(pool, t, net::TcpFlags::kAck, 42));
  rig.regular(batch, drops);
  ASSERT_EQ(batch.size(), 1u);
  net::Packet* out = batch[0];
  EXPECT_EQ(out->ipv4().src().host_order(), kExternalIp.host_order());
  EXPECT_FALSE(out->has_flow_hash());
  // Lazy recompute yields the hash of the rewritten tuple, never stale.
  EXPECT_EQ(hash::packet_flow_hash(*out), hash::flow_hash(out->five_tuple()));
  net::free_packets(batch.packets());
  EXPECT_EQ(pool.available(), pool.size());
}

// --- Stateless hop inside a mixed chain -----------------------------------

TEST(ChainMixed, StatelessHopSeesConnectionPacketsAsRegular) {
  net::PacketPool pool(128, 256);
  nf::RedundancyNf re;  // stateless: everything lands in regular_packets()
  nf::MonitorNf mon;
  DynamicChain chain({&re, &mon});
  ChainRig rig(chain);

  constexpr u32 kFlows = 8;
  runtime::PacketBatch batch;
  runtime::PacketBatch drops;
  for (u32 i = 0; i < kFlows; ++i) {
    batch.push(make_pkt(pool, client_flow(i), net::TcpFlags::kSyn, i));
  }
  rig.conn(batch, drops);
  EXPECT_EQ(batch.size(), kFlows);
  net::free_packets(batch.packets());
  batch.clear();

  for (u32 i = 0; i < kFlows; ++i) {
    batch.push(make_pkt(pool, client_flow(i), net::TcpFlags::kAck, 100 + i));
  }
  rig.regular(batch, drops);
  EXPECT_EQ(batch.size(), kFlows);
  net::free_packets(batch.packets());

  // The stateless hop fingerprinted every payload — connection packets
  // included (it has no flow events to observe).
  EXPECT_EQ(re.hits() + re.misses(), 2u * kFlows);
  // The stateful hop downstream still saw real connection events.
  EXPECT_EQ(mon.aggregate().connections_opened, kFlows);
  EXPECT_EQ(mon.aggregate().packets, 2u * kFlows);
  EXPECT_EQ(drops.size(), 0u);
  EXPECT_EQ(pool.available(), pool.size());
}

// --- Threaded executor running the full chain -----------------------------

TEST(ChainThreaded, FourCoreChurnConservesEverything) {
  net::PacketPool pool(8192, 256);
  constexpr u32 kCores = 4;
  constexpr u32 kFlows = 32;

  NfSet nfs;
  DynamicChain chain({&nfs.nat, &nfs.fw, &nfs.lb, &nfs.mon});

  std::atomic<u64> tx{0};
  ThreadedMiddlebox::TxBatchHandler sink =
      [&](std::span<net::Packet* const> pkts) {
        tx.fetch_add(pkts.size(), std::memory_order_relaxed);
        net::free_packets(pkts);
      };
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  ThreadedMiddlebox mbox(cfg, chain, std::move(sink));
  ASSERT_EQ(mbox.num_hops(), 4u);
  mbox.start();

  u64 injected = 0;
  // Phase 1: open every session (conn packets redirect once, whole chain
  // runs on the designated core).
  for (u32 i = 0; i < kFlows; ++i) {
    if (mbox.inject(make_pkt(pool, client_flow(i), net::TcpFlags::kSyn))) {
      ++injected;
    }
  }
  mbox.wait_idle();
  EXPECT_EQ(nfs.nat.counters().sessions_opened, kFlows);
  EXPECT_EQ(nfs.fw.counters().admitted, kFlows);
  EXPECT_EQ(nfs.lb.counters().assigned, kFlows);

  // Phase 2: sprayed data through all four hops.
  for (u32 i = 0; i < 12000; ++i) {
    net::Packet* pkt =
        make_pkt(pool, client_flow(i % kFlows), net::TcpFlags::kAck, i);
    if (pkt == nullptr) {  // pool backpressure: let workers drain
      std::this_thread::yield();
      --i;
      continue;
    }
    if (mbox.inject(pkt)) ++injected;
  }
  mbox.wait_idle();

  // Phase 3: tear every session down.
  for (u32 i = 0; i < kFlows; ++i) {
    if (mbox.inject(make_pkt(pool, client_flow(i), net::TcpFlags::kRst))) {
      ++injected;
    }
  }
  mbox.wait_idle();
  const CoreStats total = mbox.total_stats();
  mbox.stop();

  // Conservation: every accepted packet was forwarded, none dropped by any
  // hop, nothing leaked.
  EXPECT_EQ(tx.load(), injected);
  EXPECT_EQ(total.nf_drops, 0u);
  EXPECT_EQ(pool.available(), pool.size());

  // Full teardown: every hop's tables empty on every core, ports released.
  for (u32 h = 0; h < 4; ++h) {
    for (u32 c = 0; c < kCores; ++c) {
      EXPECT_EQ(mbox.hop_flow_table(h, static_cast<CoreId>(c)).size(), 0u)
          << "hop " << h << " core " << c;
    }
  }
  EXPECT_EQ(nfs.nat.port_pool().claimed(), 0u);
  EXPECT_EQ(nfs.nat.counters().sessions_closed, kFlows);
  EXPECT_EQ(nfs.fw.counters().closed, kFlows);
  EXPECT_EQ(nfs.mon.aggregate().connections_opened, kFlows);
  EXPECT_EQ(nfs.mon.aggregate().connections_closed, kFlows);
  EXPECT_EQ(nfs.mon.aggregate().packets, injected);
}

}  // namespace
}  // namespace sprayer::core
