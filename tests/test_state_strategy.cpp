// Pluggable state strategies (DESIGN.md §14): unit coverage for the
// replication op log / sync frames, strategy table topologies, divergence
// auditing, the strategy-aware violation messages — and the cross-strategy
// equivalence suite: the same trace driven through writing partition and
// state-compute replication must produce byte-identical NF output and
// identical end state (modulo replica layout and masked timestamps).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/core_picker.hpp"
#include "core/flow_state.hpp"
#include "core/flow_table.hpp"
#include "core/middlebox.hpp"
#include "core/threaded.hpp"
#include "net/packet_builder.hpp"
#include "nf/firewall.hpp"
#include "nf/load_balancer.hpp"
#include "nf/monitor.hpp"
#include "nf/nat.hpp"
#include "nf/redundancy.hpp"
#include "nic/pktgen.hpp"
#include "sim/simulator.hpp"
#include "state/strategy.hpp"
#include "state/sync.hpp"
#include "state/view.hpp"

namespace sprayer::core {
namespace {

constexpr u32 kCores = 4;

constexpr state::StateStrategyKind kAllKinds[] = {
    state::StateStrategyKind::kWritingPartition,
    state::StateStrategyKind::kReplication,
};

// --- unit: replication op log ----------------------------------------------

net::FiveTuple tuple_of(u8 i) {
  return net::FiveTuple{net::Ipv4Addr{10, 0, 0, i}, net::Ipv4Addr{10, 0, 1, i},
                        static_cast<u16>(1000 + i), 80, net::kProtoTcp};
}

TEST(ReplOpLog, DedupsConsecutiveUpsertsPerKey) {
  state::ReplOpLog log;
  const auto a = tuple_of(1);
  const auto b = tuple_of(2);
  log.record_upsert(a, 11, 0);
  log.record_upsert(a, 11, 0);  // same key+hop, still pending: suppressed
  log.record_upsert(b, 22, 0);
  log.record_upsert(a, 11, 0);  // most recent op for a is an upsert: suppressed
  EXPECT_EQ(log.size(), 2u);
  // Same key on a different hop is a different entry.
  log.record_upsert(a, 11, 1);
  EXPECT_EQ(log.size(), 3u);
}

TEST(ReplOpLog, RemoveThenReinsertKeepsBothOps) {
  state::ReplOpLog log;
  const auto a = tuple_of(3);
  log.record_upsert(a, 33, 0);
  log.record_remove(a, 33, 0);
  log.record_upsert(a, 33, 0);  // re-insert after remove must survive
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.ops()[0].kind, state::ReplOpKind::kUpsert);
  EXPECT_EQ(log.ops()[1].kind, state::ReplOpKind::kRemove);
  EXPECT_EQ(log.ops()[2].kind, state::ReplOpKind::kUpsert);
  log.clear();
  EXPECT_TRUE(log.empty());
}

// --- unit: sync frame round trip -------------------------------------------

TEST(SyncRuntime, RoundTripAppliesUpsertsAndRemoves) {
  constexpr u32 kEntry = 16;
  FlowTable src_table(256, kEntry, 0);
  FlowTable dst_table(256, kEntry, 1);
  state::SyncRuntime src(0, {&src_table});
  state::SyncRuntime dst(1, {&dst_table});

  const auto a = tuple_of(1);
  const auto b = tuple_of(2);
  for (const auto& key : {a, b}) {
    auto* e = static_cast<u8*>(src_table.insert(key));
    ASSERT_NE(e, nullptr);
    std::memset(e, key.src_port & 0xff, kEntry);
    src.log().record_upsert(key, FlowTable::hash_of(key), 0);
  }

  auto chunks = src.serialize(4096);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_TRUE(src.has_pending());  // serialize leaves the log for retry
  state::SyncRuntime::ApplyResult applied{};
  for (const auto& chunk : chunks) {
    const auto r = dst.apply(chunk);
    applied.upserts += r.upserts;
    applied.removes += r.removes;
  }
  src.clear_log();
  EXPECT_EQ(applied.upserts, 2u);
  EXPECT_EQ(dst_table.size(), 2u);
  for (const auto& key : {a, b}) {
    const auto* got = static_cast<const u8*>(dst_table.find_remote(key));
    ASSERT_NE(got, nullptr) << key.to_string();
    const auto* want = static_cast<const u8*>(src_table.find_local(key));
    EXPECT_EQ(std::memcmp(got, want, kEntry), 0);
  }
  EXPECT_EQ(dst.stats().ops_applied.load(), 2u);

  // Now a remove: ships and erases on the receiver.
  ASSERT_TRUE(src_table.remove(a));
  src.log().record_remove(a, FlowTable::hash_of(a), 0);
  for (const auto& chunk : src.serialize(4096)) (void)dst.apply(chunk);
  src.clear_log();
  EXPECT_EQ(dst_table.find_remote(a), nullptr);
  EXPECT_NE(dst_table.find_remote(b), nullptr);
}

TEST(SyncRuntime, SmallFramesChunkAndVanishedEntriesAreSkipped) {
  constexpr u32 kEntry = 16;
  FlowTable src_table(256, kEntry, 0);
  FlowTable dst_table(256, kEntry, 1);
  state::SyncRuntime src(0, {&src_table});
  state::SyncRuntime dst(1, {&dst_table});

  constexpr u8 kFlows = 20;
  for (u8 i = 1; i <= kFlows; ++i) {
    const auto key = tuple_of(i);
    auto* e = static_cast<u8*>(src_table.insert(key));
    ASSERT_NE(e, nullptr);
    std::memset(e, i, kEntry);
    src.log().record_upsert(key, FlowTable::hash_of(key), 0);
  }
  // An entry that vanished between log and harvest (no logged remove —
  // the engine-level flow always logs one, but serialize must not trip):
  // its upsert is simply skipped.
  const auto gone = tuple_of(kFlows + 1);
  ASSERT_NE(src_table.insert(gone), nullptr);
  src.log().record_upsert(gone, FlowTable::hash_of(gone), 0);
  ASSERT_TRUE(src_table.remove(gone));

  // ~96 bytes per frame: a couple of ops each, so the log must chunk.
  auto chunks = src.serialize(96);
  EXPECT_GT(chunks.size(), 1u);
  u32 upserts = 0;
  for (const auto& chunk : chunks) {
    EXPECT_LE(chunk.size(), 96u);
    upserts += dst.apply(chunk).upserts;
  }
  src.clear_log();
  EXPECT_EQ(upserts, kFlows);
  EXPECT_EQ(dst_table.size(), kFlows);
  EXPECT_EQ(dst_table.find_remote(gone), nullptr);
  EXPECT_EQ(dst.stats().apply_failures.load(), 0u);
}

// A flow inserted and removed between two harvests never reached the
// replicas, so nothing about it may ship: a remove for it would make every
// peer count an apply failure. A flow that existed before the window still
// ships its remove.
TEST(SyncRuntime, FlowCreatedAndRemovedWithinOneWindowShipsNothing) {
  state::StateStrategyConfig cfg;
  cfg.kind = state::StateStrategyKind::kReplication;
  auto strat = state::StateStrategy::make(cfg, kCores);
  strat->add_hop(256, 16);
  const CorePicker picker(kCores);
  const CostModel costs;

  const auto fresh = tuple_of(1);
  const auto owner = picker.pick(fresh);
  auto old = tuple_of(2);
  while (picker.pick(old) != owner) ++old.src_port;
  NfContext ctx(owner, strat->hop_tables(0), picker, costs);
  ctx.configure_state(strat->view(owner, 0));

  auto harvest_and_apply = [&] {
    state::SyncRuntime& rt = *strat->sync_runtime(owner);
    for (const auto& chunk : rt.serialize(4096)) {
      for (CoreId c = 0; c < kCores; ++c) {
        if (c != owner) (void)strat->sync_runtime(c)->apply(chunk);
      }
    }
    rt.clear_log();
  };

  ASSERT_NE(ctx.flows().insert_local_flow(old), nullptr);
  harvest_and_apply();
  // One window: `fresh` is born and dies, `old` dies.
  ASSERT_NE(ctx.flows().insert_local_flow(fresh), nullptr);
  ASSERT_NE(ctx.flows().get_local_flow(fresh), nullptr);
  ASSERT_TRUE(ctx.flows().remove_local_flow(fresh));
  ASSERT_TRUE(ctx.flows().remove_local_flow(old));
  harvest_and_apply();

  const auto sync = strat->sync_stats();
  EXPECT_EQ(sync.apply_failures, 0u);
  EXPECT_EQ(sync.ops_applied, 2u * (kCores - 1));  // old: upsert + remove
  for (FlowTable* t : strat->hop_tables(0)) {
    EXPECT_EQ(t->size(), 0u);
  }
  EXPECT_TRUE(strat->check_divergence().clean());
}

// --- unit: strategy topologies + divergence audit ---------------------------

TEST(StateStrategy, TableTopologiesMatchTheirContract) {
  state::StateStrategyConfig cfg;
  for (const auto kind : kAllKinds) {
    cfg.kind = kind;
    auto strat = state::StateStrategy::make(cfg, kCores);
    strat->add_hop(1u << 10, 16);
    const auto tables = strat->hop_tables(0);
    ASSERT_EQ(tables.size(), kCores);
    switch (kind) {
      case state::StateStrategyKind::kWritingPartition:
        // N private shards at the asked capacity, owner = core.
        for (u32 c = 0; c < kCores; ++c) {
          EXPECT_EQ(tables[c]->capacity(), 1u << 10);
          EXPECT_EQ(tables[c]->owner(), c);
          if (c > 0) {
            EXPECT_NE(tables[c], tables[c - 1]);
          }
        }
        break;
      case state::StateStrategyKind::kReplication:
        // N replicas scaled to hold the whole flow space.
        for (u32 c = 0; c < kCores; ++c) {
          EXPECT_EQ(tables[c]->capacity(), (1u << 10) * kCores);
          if (c > 0) {
            EXPECT_NE(tables[c], tables[c - 1]);
          }
          EXPECT_NE(strat->sync_runtime(static_cast<CoreId>(c)), nullptr);
        }
        break;
    }
  }
}

TEST(StateStrategy, DivergenceAuditCountsMissingExtraAndMismatched) {
  state::StateStrategyConfig cfg;
  cfg.kind = state::StateStrategyKind::kReplication;
  auto strat = state::StateStrategy::make(cfg, 2);
  strat->add_hop(256, 8);
  const auto tables = strat->hop_tables(0);

  const auto a = tuple_of(1);
  const auto b = tuple_of(2);
  const auto c = tuple_of(3);
  // a: equal on both replicas. b: only on the reference (missing).
  // c: only on the other replica (extra).
  auto put = [](FlowTable* t, const net::FiveTuple& key, u8 fill) {
    auto* e = static_cast<u8*>(t->insert(key));
    ASSERT_NE(e, nullptr);
    std::memset(e, fill, t->entry_size());
  };
  put(tables[0], a, 7);
  put(tables[1], a, 7);
  put(tables[0], b, 9);
  put(tables[1], c, 5);
  auto report = strat->check_divergence();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.missing_entries, 1u);
  EXPECT_EQ(report.extra_entries, 1u);
  EXPECT_EQ(report.mismatched_entries, 0u);
  EXPECT_EQ(strat->divergence_checks(), 1u);
  EXPECT_EQ(strat->divergence_mismatches(), report.total());

  // Converge b and c, then corrupt a's bytes on one side: mismatched.
  put(tables[1], b, 9);
  put(tables[0], c, 5);
  std::memset(tables[1]->find_local(a), 8, 8);
  report = strat->check_divergence();
  EXPECT_EQ(report.missing_entries, 0u);
  EXPECT_EQ(report.extra_entries, 0u);
  EXPECT_EQ(report.mismatched_entries, 1u);
}

// --- executor parity: both executors build the same per-core wiring --------

/// Per-(hop, core) table shape as an executor built it.
struct TableShape {
  u32 capacity = 0;
  u32 entry_size = 0;
  u32 max_segments = 0;
  bool operator==(const TableShape&) const = default;
};

template <typename Mbox>
std::vector<TableShape> table_shapes(Mbox& mbox) {
  std::vector<TableShape> out;
  for (u32 h = 0; h < mbox.num_hops(); ++h) {
    for (u32 c = 0; c < kCores; ++c) {
      const FlowTable& t = mbox.hop_flow_table(h, static_cast<CoreId>(c));
      out.push_back({t.capacity(), t.entry_size(), t.max_segments()});
    }
  }
  return out;
}

TEST(ExecutorParity, StatelessAndStatefulHopsGetTheSameTables) {
  constexpr u32 kCapacity = 1u << 9;
  constexpr u32 kSegments = 4;
  for (const auto kind : kAllKinds) {
    SCOPED_TRACE(state::to_string(kind));
    SprayerConfig cfg;
    cfg.num_cores = kCores;
    cfg.state.kind = kind;
    cfg.lifecycle.flow_table_capacity = kCapacity;
    cfg.lifecycle.max_table_segments = kSegments;

    nf::RedundancyNf re_sim, re_thr;
    nf::FirewallNf fw_sim(nf::Acl{true}), fw_thr(nf::Acl{true});
    DynamicChain sim_chain({&re_sim, &fw_sim});
    DynamicChain thr_chain({&re_thr, &fw_thr});
    sim::Simulator sim;
    SimMiddlebox sim_mbox(sim, cfg, sim_chain);
    ThreadedMiddlebox thr_mbox(cfg, thr_chain,
                               [](std::span<net::Packet* const>) {});
    const auto shapes = table_shapes(sim_mbox);
    ASSERT_EQ(shapes.size(), 2 * kCores);
    EXPECT_EQ(shapes, table_shapes(thr_mbox));

    // What the strategy builds for a 2-slot request (the stateless hop) and
    // for the lifecycle capacity override (the stateful hop).
    auto reference = state::StateStrategy::make(cfg.state, kCores);
    reference->add_hop(2, shapes[0].entry_size);
    reference->add_hop(kCapacity, shapes[kCores].entry_size);
    for (u32 c = 0; c < kCores; ++c) {
      const TableShape& stateless = shapes[c];
      const TableShape& stateful = shapes[kCores + c];
      EXPECT_EQ(stateless.capacity, reference->hop_tables(0)[c]->capacity());
      EXPECT_EQ(stateless.max_segments, 1u);  // growth off
      EXPECT_EQ(stateful.capacity, reference->hop_tables(1)[c]->capacity());
      EXPECT_EQ(stateful.max_segments, kSegments);  // growth on
    }
  }
}

// --- unit: violation messages name the strategy and cores --------------------

TEST(FlowStateApi, WriteViolationNamesStrategyAndCores) {
  FlowTable t0(64, 16, 0);
  FlowTable t1(64, 16, 1);
  FlowTable* tables[] = {&t0, &t1};
  CorePicker picker(2);
  CostModel costs;
  Cycles sink = 0;
  FlowStateApi api(0, tables, picker, costs, sink);  // default view: WP

  // Find a flow whose designated core is NOT this api's core.
  net::FiveTuple foreign = tuple_of(1);
  while (api.designated_core(foreign) == 0) ++foreign.src_port;

  try {
    (void)api.insert_local_flow(foreign);
    FAIL() << "expected a writing-partition violation";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("state[writing_partition] violation"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("insert_local_flow on core 0"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("core 1 is the designated core"), std::string::npos)
        << msg;
  }
  EXPECT_THROW((void)api.remove_local_flow(foreign), std::logic_error);
}

// --- the cross-strategy equivalence harness ---------------------------------

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

/// Inject one deterministic packet, riding out pool backpressure (under
/// OverloadPolicy::kBlock the ring itself never sheds).
void must_inject(ThreadedMiddlebox& mbox, net::PacketPool& pool,
                 const net::FiveTuple& t, u8 flags, u64 seed) {
  for (;;) {
    net::Packet* pkt = make_packet(pool, t, flags, seed);
    if (pkt != nullptr && mbox.inject(pkt)) return;
    std::this_thread::yield();
  }
}

/// Idle, then give the housekeeping tick a chance to flush any sync frames
/// a momentary pool shortage deferred, then idle again.
void settle(ThreadedMiddlebox& mbox) {
  mbox.wait_idle();
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  mbox.wait_idle();
}

using EntryMask = void (*)(std::vector<u8>&);

/// Zero a leading Time field (NF timestamps: monitor first_seen, firewall
/// established_at) — wall-clock-dependent, legitimately differs per run.
void mask_leading_time(std::vector<u8>& bytes) {
  std::memset(bytes.data(), 0, std::min(bytes.size(), sizeof(Time)));
}

using EndState = std::map<std::string, std::vector<u8>>;

/// The end state, collected per the strategy's layout: union of the per-core
/// shards (writing partition — each flow lives on exactly one) or core 0's
/// replica (replication — every replica holds the whole space).
EndState collect_state(ThreadedMiddlebox& mbox, EntryMask mask) {
  EndState out;
  auto grab = [&](FlowTable& t) {
    t.for_each([&](const net::FiveTuple& key, void* data) {
      std::vector<u8> bytes(t.entry_size());
      std::memcpy(bytes.data(), data, bytes.size());
      if (mask != nullptr) mask(bytes);
      out.emplace(key.to_string(), std::move(bytes));
    });
  };
  if (mbox.state_strategy().kind() ==
      state::StateStrategyKind::kWritingPartition) {
    for (u32 c = 0; c < kCores; ++c) grab(mbox.flow_table(static_cast<CoreId>(c)));
  } else {
    grab(mbox.flow_table(0));
  }
  return out;
}

struct RunResult {
  std::vector<std::string> frames;  // tx frame bytes, sorted
  EndState state;
};

template <typename MakeNf, typename Drive>
RunResult run_strategy(state::StateStrategyKind kind, MakeNf make_nf,
                       Drive drive, EntryMask mask) {
  net::PacketPool pool(16384, 256);
  auto nf = make_nf();  // fresh NF per run: port pools / cursors reset
  RunResult r;
  std::mutex mu;
  ThreadedMiddlebox::TxBatchHandler sink =
      [&](std::span<net::Packet* const> pkts) {
        std::scoped_lock lk(mu);
        for (net::Packet* p : pkts) {
          r.frames.emplace_back(reinterpret_cast<const char*>(p->data()),
                                p->len());
        }
        net::free_packets(pkts);
      };
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  cfg.overload_policy = OverloadPolicy::kBlock;
  cfg.state.kind = kind;
  ThreadedMiddlebox mbox(cfg, *nf, std::move(sink));
  mbox.start();
  drive(mbox, pool);
  settle(mbox);
  if (kind == state::StateStrategyKind::kReplication) {
    const auto report = mbox.state_strategy().check_divergence();
    EXPECT_TRUE(report.clean())
        << "replicas diverged: mismatched=" << report.mismatched_entries
        << " missing=" << report.missing_entries
        << " extra=" << report.extra_entries;
    const auto sync = mbox.state_strategy().sync_stats();
    EXPECT_GT(sync.frames_sent, 0u);
    EXPECT_EQ(sync.apply_failures, 0u);
  }
  r.state = collect_state(mbox, mask);
  mbox.stop();
  EXPECT_EQ(pool.available(), pool.size())
      << "packet leak under " << state::to_string(kind);
  std::sort(r.frames.begin(), r.frames.end());
  return r;
}

template <typename MakeNf, typename Drive>
void expect_equivalent(MakeNf make_nf, Drive drive, EntryMask mask) {
  RunResult base;
  for (const auto kind : kAllKinds) {
    RunResult r = run_strategy(kind, make_nf, drive, mask);
    if (kind == kAllKinds[0]) {
      base = std::move(r);
      EXPECT_FALSE(base.frames.empty());
      continue;
    }
    EXPECT_EQ(base.frames.size(), r.frames.size())
        << "tx frame count differs under " << state::to_string(kind);
    EXPECT_TRUE(base.frames == r.frames)
        << "tx bytes differ under " << state::to_string(kind);
    EXPECT_EQ(base.state.size(), r.state.size())
        << "end-state entry count differs under " << state::to_string(kind);
    EXPECT_TRUE(base.state == r.state)
        << "end state differs under " << state::to_string(kind);
  }
}

// --- equivalence: the four stateful NFs -------------------------------------

TEST(StateStrategyEquivalence, NatTranslationByteIdentical) {
  // time_wait=0: RST aborts immediately (exercises replicated removes) and
  // no timestamps ever land in entries, so no masking is needed. Connection
  // events are serialized (wait_idle) because the port-pool cursor makes
  // claim order globally significant.
  auto make_nf = [] {
    nf::NatConfig cfg;
    cfg.time_wait = 0;
    return std::make_unique<nf::NatNf>(cfg);
  };
  const auto flows = nic::random_tcp_flows(16, 33);
  auto drive = [&flows](ThreadedMiddlebox& mbox, net::PacketPool& pool) {
    for (const auto& f : flows) {
      must_inject(mbox, pool, f, net::TcpFlags::kSyn, 0);
      mbox.wait_idle();
    }
    for (u32 i = 0; i < 1500; ++i) {
      must_inject(mbox, pool, flows[i % flows.size()], net::TcpFlags::kAck,
                  1000 + i);
    }
    mbox.wait_idle();
    // Abort the even-indexed sessions; the odd ones stay in the end state.
    for (u32 i = 0; i < flows.size(); i += 2) {
      must_inject(mbox, pool, flows[i], net::TcpFlags::kRst, 2);
    }
  };
  expect_equivalent(make_nf, drive, nullptr);
}

TEST(StateStrategyEquivalence, MonitorTrackingByteIdentical) {
  auto make_nf = [] {
    return std::make_unique<nf::MonitorNf>(/*close_on_single_fin=*/true);
  };
  const auto flows = nic::random_tcp_flows(32, 7);
  auto drive = [&flows](ThreadedMiddlebox& mbox, net::PacketPool& pool) {
    for (const auto& f : flows) {
      must_inject(mbox, pool, f, net::TcpFlags::kSyn, 0);
    }
    mbox.wait_idle();
    for (u32 i = 0; i < 2000; ++i) {
      must_inject(mbox, pool, flows[i % flows.size()], net::TcpFlags::kAck,
                  5000 + i);
    }
    mbox.wait_idle();
    // Close the even-indexed connections (single FIN closes under this
    // monitor config — exercises get_local_flow + remove replication).
    for (u32 i = 0; i < flows.size(); i += 2) {
      must_inject(mbox, pool, flows[i],
                  net::TcpFlags::kFin | net::TcpFlags::kAck, 6);
    }
  };
  expect_equivalent(make_nf, drive, &mask_leading_time);
}

TEST(StateStrategyEquivalence, FirewallAdmissionByteIdentical) {
  auto make_nf = [] {
    return std::make_unique<nf::FirewallNf>(nf::Acl{/*default_allow=*/true});
  };
  const auto flows = nic::random_tcp_flows(24, 19);
  auto drive = [&flows](ThreadedMiddlebox& mbox, net::PacketPool& pool) {
    for (const auto& f : flows) {
      must_inject(mbox, pool, f, net::TcpFlags::kSyn, 0);
    }
    mbox.wait_idle();
    for (u32 i = 0; i < 2000; ++i) {
      must_inject(mbox, pool, flows[i % flows.size()], net::TcpFlags::kAck,
                  7000 + i);
    }
    mbox.wait_idle();
    // One FIN per connection: fin_count=1 everywhere, nothing closes —
    // an in-place mutation every replica must converge on.
    for (const auto& f : flows) {
      must_inject(mbox, pool, f, net::TcpFlags::kFin | net::TcpFlags::kAck, 8);
    }
  };
  expect_equivalent(make_nf, drive, &mask_leading_time);
}

TEST(StateStrategyEquivalence, LoadBalancerAssignmentByteIdentical) {
  auto make_nf = [] {
    nf::LbConfig cfg;
    for (u32 b = 0; b < 3; ++b) {
      cfg.backends.push_back(
          {net::MacAddr::from_id(100 + b), net::Ipv4Addr{10, 1, 0, static_cast<u8>(b + 1)}});
    }
    return std::make_unique<nf::LoadBalancerNf>(cfg);
  };
  const nf::LbConfig ref;  // default VIP endpoint
  std::vector<net::FiveTuple> flows;
  for (u8 i = 0; i < 12; ++i) {
    flows.push_back(net::FiveTuple{net::Ipv4Addr{10, 0, 0, static_cast<u8>(i + 1)},
                                   ref.vip, static_cast<u16>(2000 + i),
                                   ref.vport, net::kProtoTcp});
  }
  auto drive = [&flows](ThreadedMiddlebox& mbox, net::PacketPool& pool) {
    // The round-robin backend cursor is global: serialize SYNs so every
    // strategy assigns the same backend sequence.
    for (const auto& f : flows) {
      must_inject(mbox, pool, f, net::TcpFlags::kSyn, 0);
      mbox.wait_idle();
    }
    for (u32 i = 0; i < 1200; ++i) {
      must_inject(mbox, pool, flows[i % flows.size()], net::TcpFlags::kAck,
                  9000 + i);
    }
  };
  expect_equivalent(make_nf, drive, nullptr);
}

// --- 4-core churn under each strategy (the TSan witness) ---------------------

void churn_under(state::StateStrategyKind kind) {
  net::PacketPool pool(16384, 256);
  nf::NatConfig nat_cfg;
  nat_cfg.time_wait = 0;
  nf::NatNf nat(nat_cfg);
  std::atomic<u64> out{0};
  ThreadedMiddlebox::TxHandler handler = [&out](net::Packet* pkt) {
    out.fetch_add(1, std::memory_order_relaxed);
    pkt->pool()->free(pkt);
  };
  SprayerConfig cfg;
  cfg.num_cores = kCores;
  cfg.mode = DispatchMode::kSpray;
  cfg.overload_policy = OverloadPolicy::kBlock;
  cfg.state.kind = kind;
  ThreadedMiddlebox mbox(cfg, nat, std::move(handler));
  mbox.start();

  u64 injected = 0;
  constexpr u32 kRounds = 3;
  for (u32 round = 0; round < kRounds; ++round) {
    const auto flows = nic::random_tcp_flows(64, 100 + round);
    // Phase 1: concurrent session setup across all cores.
    for (const auto& f : flows) {
      must_inject(mbox, pool, f, net::TcpFlags::kSyn, round);
      ++injected;
    }
    mbox.wait_idle();
    // Phase 2: sprayed data races across every core, reads only.
    for (u32 i = 0; i < 3000; ++i) {
      must_inject(mbox, pool, flows[i % flows.size()], net::TcpFlags::kAck,
                  (u64{round} << 32) | i);
      ++injected;
    }
    mbox.wait_idle();
    // Phase 3: concurrent teardown — except the last round, whose sessions
    // stay live so the replication divergence audit compares real state.
    if (round + 1 < kRounds) {
      for (const auto& f : flows) {
        must_inject(mbox, pool, f, net::TcpFlags::kRst, round);
        ++injected;
      }
      mbox.wait_idle();
    }
  }
  settle(mbox);
  if (kind == state::StateStrategyKind::kReplication) {
    const auto report = mbox.state_strategy().check_divergence();
    EXPECT_TRUE(report.clean())
        << "replicas diverged after churn: mismatched="
        << report.mismatched_entries << " missing=" << report.missing_entries
        << " extra=" << report.extra_entries;
  }
  mbox.stop();
  EXPECT_EQ(out.load(), injected);  // SYNs open, data matches, RSTs match
  EXPECT_EQ(pool.available(), pool.size());
  EXPECT_EQ(nat.counters().unmatched_dropped, 0u);
}

TEST(StateStrategyChurn, WritingPartition) {
  churn_under(state::StateStrategyKind::kWritingPartition);
}

TEST(StateStrategyChurn, Replication) {
  churn_under(state::StateStrategyKind::kReplication);
}

}  // namespace
}  // namespace sprayer::core
