// Throughput of run-to-completion NF service chains: the canonical
// NAT -> firewall -> LB -> monitor chain (or a prefix of it), run as one
// DynamicChain whose hops share the per-batch BatchMeta (DESIGN.md §11).
//
// Two drivers:
//   * driver=inline (default): one thread refills a batch from pre-built
//     template frames and calls chain.regular_pass() directly — the same
//     wiring SprayerCore uses, minus rings and threads. This isolates the
//     per-packet chain cost; it is also the only honest 1-core number on a
//     1-CPU host, where the threaded executor timeslices driver against
//     worker and measures the scheduler instead.
//   * driver=threaded: the full ThreadedMiddlebox open-loop flood
//     (template memcpy + inject_bulk), for end-to-end numbers on hosts
//     with enough cores to dedicate one to the driver.
//
// Emits one JSON line per configuration:
//
//   ./bench/chain_throughput [hops=4] [driver=inline] [cores=1]
//       [duration=0.4] [flows=64] [rx_batch=32] [burst=32] [hop_timing=0]
//       [telemetry=1]
//
// hop_timing=1 turns on the per-hop latency counters
// (ChainInit::hop_timing — one clock read per hop per batch) and fills
// per_hop[].ns_per_packet from the chain.h<i>.<nf>.ns counters; leave it 0
// for clean end-to-end pps numbers.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "core/chain.hpp"
#include "core/threaded.hpp"
#include "hash/designated.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "nf/firewall.hpp"
#include "nf/load_balancer.hpp"
#include "nf/monitor.hpp"
#include "nf/nat.hpp"
#include "telemetry/snapshot.hpp"

using namespace sprayer;

namespace {

const net::Ipv4Addr kVip{198, 51, 100, 1};
constexpr u16 kVport = 80;

struct RunConfig {
  u32 hops = 4;
  bool inline_driver = true;
  u32 cores = 1;
  double duration_s = 0.4;
  u32 flows = 64;
  u32 rx_batch = 32;
  u32 burst = 32;
  bool hop_timing = false;
  bool telemetry = true;
};

struct HopResult {
  std::string nf;
  u64 packets = 0;
  u64 drops = 0;
  /// Valid only when `timed` — hop_timing=0 runs never measure it, and the
  /// JSON emits null rather than a misleading 0.0.
  double ns_per_packet = 0.0;
  bool timed = false;
};

struct RunResult {
  double elapsed_s = 0.0;
  u64 injected = 0;
  u64 forwarded = 0;
  u64 nf_drops = 0;
  std::vector<HopResult> per_hop;
};

/// The chain under test: NAT first (claims ports, rewrites tuples), then
/// the read-mostly hops. Owns the NFs so every run gets fresh state.
struct ChainFixture {
  nf::NatNf nat;
  nf::FirewallNf fw{nf::Acl{/*default_allow=*/true}};
  nf::LoadBalancerNf lb;
  nf::MonitorNf mon;
  core::DynamicChain chain;

  static nf::LbConfig lb_config() {
    nf::LbConfig cfg;
    cfg.vip = kVip;
    cfg.vport = kVport;
    cfg.backends = {{net::MacAddr::from_id(1), net::Ipv4Addr{10, 1, 0, 1}},
                    {net::MacAddr::from_id(2), net::Ipv4Addr{10, 1, 0, 2}}};
    return cfg;
  }

  explicit ChainFixture(u32 hops) : lb(lb_config()), chain(prefix(hops)) {}

 private:
  std::vector<core::INetworkFunction*> prefix(u32 hops) {
    std::vector<core::INetworkFunction*> all{&nat, &fw, &lb, &mon};
    all.resize(std::min<std::size_t>(hops, all.size()));
    return all;
  }
};

struct Template {
  std::vector<u8> frame;
  u32 rss_hash = 0;  // what the NIC would stamp in the rx descriptor
};

std::vector<net::FiveTuple> vip_flows(u32 n) {
  std::vector<net::FiveTuple> flows;
  for (u32 i = 0; i < n; ++i) {
    net::FiveTuple t;
    t.src_ip = net::Ipv4Addr{10, 0, static_cast<u8>(i >> 8),
                             static_cast<u8>(i & 0xff)};
    t.dst_ip = kVip;
    t.src_port = static_cast<u16>(1024 + i);
    t.dst_port = kVport;
    t.protocol = net::kProtoTcp;
    flows.push_back(t);
  }
  return flows;
}

/// One valid VIP-bound TCP data frame (plus its RSS hash) per flow; the
/// measured loop then only memcpys and stamps.
std::vector<Template> build_templates(
    const std::vector<net::FiveTuple>& flow_set) {
  net::PacketPool scratch(flow_set.size() + 1, 256);
  std::vector<Template> templates;
  for (const auto& flow : flow_set) {
    net::TcpSegmentSpec spec;
    spec.tuple = flow;
    spec.flags = net::TcpFlags::kAck;
    spec.payload_len = 6;
    const u8 payload[6] = {1, 2, 3, 4, 5, 6};
    spec.payload = payload;
    net::Packet* pkt = net::build_tcp_raw(scratch, spec);
    Template t;
    t.frame.assign(pkt->data(), pkt->data() + pkt->len());
    t.rss_hash = hash::packet_flow_hash(*pkt);
    templates.push_back(std::move(t));
    scratch.free(pkt);
  }
  return templates;
}

/// Single-thread closed loop over chain passes: the SprayerCore wiring
/// (per-hop tables, per-hop contexts, shared scratch) without rings or
/// worker threads.
RunResult run_inline(const RunConfig& rc) {
  ChainFixture fixture(rc.hops);
  core::DynamicChain& chain = fixture.chain;
  const u32 hops = chain.num_hops();

  telemetry::MetricsRegistry registry(1);
  std::vector<core::NfInitConfig> hop_cfgs(hops);
  core::ChainInit ci;
  ci.hop_cfgs = hop_cfgs;
  ci.num_cores = 1;
  if (rc.telemetry) {
    ci.registry = &registry;
    for (auto& cfg : hop_cfgs) cfg.registry = &registry;
  }
  ci.hop_timing = rc.hop_timing;
  chain.init(ci);
  registry.finalize();

  core::CorePicker picker(1);
  core::CostModel costs{};
  std::vector<std::vector<std::unique_ptr<core::FlowTable>>> tables(hops);
  std::vector<std::vector<core::FlowTable*>> table_ptrs(hops);
  std::vector<std::unique_ptr<core::NfContext>> contexts;
  std::vector<core::NfContext*> ctx_ptrs;
  for (u32 h = 0; h < hops; ++h) {
    const u32 cap = hop_cfgs[h].stateless ? 2u : hop_cfgs[h].flow_table_capacity;
    tables[h].push_back(std::make_unique<core::FlowTable>(
        cap, hop_cfgs[h].flow_entry_size, static_cast<CoreId>(0)));
    table_ptrs[h].push_back(tables[h].back().get());
  }
  for (u32 h = 0; h < hops; ++h) {
    contexts.push_back(std::make_unique<core::NfContext>(
        static_cast<CoreId>(0), std::span<core::FlowTable* const>{table_ptrs[h]},
        picker, costs));
    ctx_ptrs.push_back(contexts.back().get());
  }
  const std::span<core::NfContext* const> ctxs{ctx_ptrs};
  core::ChainScratch scratch;
  Time now = 0;

  const auto flow_set = vip_flows(rc.flows);
  const auto templates = build_templates(flow_set);
  net::PacketPool pool(1u << 12, 256);

  // Open every session first (what the designated core would do).
  {
    runtime::PacketBatch batch;
    runtime::PacketBatch drops;
    for (const auto& flow : flow_set) {
      net::TcpSegmentSpec spec;
      spec.tuple = flow;
      spec.flags = net::TcpFlags::kSyn;
      net::Packet* syn = net::build_tcp_raw(pool, spec);
      (void)hash::packet_flow_hash(*syn);
      batch.push(syn);
      if (batch.full()) {
        chain.connection_pass(batch, scratch, ctxs, now += kMicrosecond, drops);
        net::free_packets(batch.packets());
        batch.clear();
      }
    }
    if (!batch.empty()) {
      chain.connection_pass(batch, scratch, ctxs, now += kMicrosecond, drops);
      net::free_packets(batch.packets());
      batch.clear();
    }
    if (!drops.empty()) net::free_packets(drops.packets());
  }

  // The measured loop recycles one burst of buffers: refill from the
  // template (the hops rewrite headers in place), stamp the NIC-provided
  // RSS hash, run the chain.
  const u32 burst = std::min(rc.burst, runtime::kMaxBatchSize);
  std::vector<net::Packet*> bufs(burst);
  const u32 got = pool.alloc_bulk(std::span{bufs.data(), burst});
  SPRAYER_CHECK(got == burst);

  runtime::PacketBatch batch;
  runtime::PacketBatch drops;
  u64 injected = 0;
  u64 forwarded = 0;
  u64 dropped = 0;
  std::size_t next_template = 0;

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(rc.duration_s));
  while (Clock::now() < deadline) {
    batch.clear();
    drops.clear();
    for (u32 i = 0; i < burst; ++i) {
      const Template& t = templates[next_template];
      if (++next_template == templates.size()) next_template = 0;
      net::Packet* pkt = bufs[i];
      std::memcpy(pkt->data(), t.frame.data(), t.frame.size());
      pkt->set_len(static_cast<u32>(t.frame.size()));
      pkt->parse();
      pkt->set_flow_hash(t.rss_hash);
      batch.push(pkt);
    }
    injected += burst;
    chain.regular_pass(batch, scratch, ctxs, now += kMicrosecond, drops);
    forwarded += batch.size();
    dropped += drops.size();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  pool.free_bulk(std::span<net::Packet* const>{bufs});

  RunResult res;
  res.elapsed_s = elapsed;
  res.injected = injected;
  res.forwarded = forwarded;
  res.nf_drops = dropped;
  if (rc.telemetry) {
    telemetry::SnapshotCollector collector(registry);
    const auto snap = collector.collect();
    for (u32 h = 0; h < hops; ++h) {
      HopResult hop;
      hop.nf = chain.hop(h).name();
      const std::string prefix = "chain.h" + std::to_string(h) + "." + hop.nf;
      hop.packets = snap.value(prefix + ".packets");
      hop.drops = snap.value(prefix + ".drops");
      const u64 ns = snap.value(prefix + ".ns");
      if (hop.packets > 0 && ns > 0) {
        hop.ns_per_packet =
            static_cast<double>(ns) / static_cast<double>(hop.packets);
        hop.timed = true;
      }
      res.per_hop.push_back(std::move(hop));
    }
  }
  return res;
}

/// Full threaded executor, open-loop flood (same shape as
/// threaded_throughput's bulk path).
RunResult run_threaded(const RunConfig& rc) {
  net::PacketPool pool(1u << 15, 256);
  ChainFixture fixture(rc.hops);
  std::atomic<u64> forwarded{0};

  core::SprayerConfig cfg;
  cfg.num_cores = rc.cores;
  cfg.rx_batch = rc.rx_batch;
  cfg.mode = core::DispatchMode::kSpray;
  cfg.housekeeping_interval = 0;
  cfg.telemetry = rc.telemetry;
  cfg.chain_hop_timing = rc.hop_timing;
  cfg.overload_policy = OverloadPolicy::kDropNew;

  core::ThreadedMiddlebox mbox(
      cfg, fixture.chain,
      [&](std::span<net::Packet* const> pkts) {
        forwarded.fetch_add(pkts.size(), std::memory_order_relaxed);
        net::free_packets(pkts);
      });
  mbox.start();

  const auto flow_set = vip_flows(rc.flows);
  const auto templates = build_templates(flow_set);

  // Open every session before the measured interval (SYNs redirect and
  // claim NAT ports; the measured path is pure regular traffic).
  for (const auto& flow : flow_set) {
    net::TcpSegmentSpec spec;
    spec.tuple = flow;
    spec.flags = net::TcpFlags::kSyn;
    net::Packet* syn = net::build_tcp_raw(pool, spec);
    while (!mbox.inject(syn)) {
      syn = net::build_tcp_raw(pool, spec);
      std::this_thread::yield();
    }
  }
  mbox.wait_idle();
  forwarded.store(0);  // don't attribute warmup SYNs to the measured loop

  using Clock = std::chrono::steady_clock;
  const u32 burst_size = std::min(rc.burst, runtime::kMaxBatchSize);
  std::array<net::Packet*, runtime::kMaxBatchSize> burst{};
  u64 injected = 0;
  std::size_t next_template = 0;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(rc.duration_s));
  while (Clock::now() < deadline) {
    const u32 n = pool.alloc_bulk(std::span{burst.data(), burst_size});
    if (n == 0) {  // backpressure: workers own every buffer right now
      std::this_thread::yield();
      continue;
    }
    for (u32 i = 0; i < n; ++i) {
      const auto& frame = templates[next_template].frame;
      if (++next_template == templates.size()) next_template = 0;
      std::memcpy(burst[i]->data(), frame.data(), frame.size());
      burst[i]->set_len(static_cast<u32>(frame.size()));
    }
    injected += mbox.inject_bulk({burst.data(), n});
  }
  mbox.wait_idle();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  RunResult res;
  res.elapsed_s = elapsed;
  res.injected = injected;
  res.forwarded = forwarded.load();
  res.nf_drops = mbox.total_stats().nf_drops;
  if (rc.telemetry) {
    const auto snap = mbox.telemetry_snapshot();
    for (u32 h = 0; h < fixture.chain.num_hops(); ++h) {
      HopResult hop;
      hop.nf = fixture.chain.hop(h).name();
      const std::string prefix = "chain.h" + std::to_string(h) + "." + hop.nf;
      hop.packets = snap.value(prefix + ".packets");
      hop.drops = snap.value(prefix + ".drops");
      const u64 ns = snap.value(prefix + ".ns");
      if (hop.packets > 0 && ns > 0) {
        hop.ns_per_packet =
            static_cast<double>(ns) / static_cast<double>(hop.packets);
        hop.timed = true;
      }
      res.per_hop.push_back(std::move(hop));
    }
  }
  mbox.stop();
  return res;
}

void print_json(const RunConfig& rc, const RunResult& res) {
  std::printf(
      "{\"bench\":\"chain_throughput\",\"driver\":\"%s\","
      "\"hops\":%u,\"cores\":%u,\"rx_batch\":%u,\"flows\":%u,"
      "\"hop_timing\":%u,\"elapsed_s\":%.4f,\"injected\":%llu,"
      "\"forwarded\":%llu,\"pps\":%.0f,\"nf_drops\":%llu,\"per_hop\":[",
      rc.inline_driver ? "inline" : "threaded", rc.hops, rc.cores,
      rc.rx_batch, rc.flows, rc.hop_timing ? 1u : 0u, res.elapsed_s,
      static_cast<unsigned long long>(res.injected),
      static_cast<unsigned long long>(res.forwarded),
      static_cast<double>(res.forwarded) / res.elapsed_s,
      static_cast<unsigned long long>(res.nf_drops));
  for (std::size_t h = 0; h < res.per_hop.size(); ++h) {
    const auto& hop = res.per_hop[h];
    std::printf(
        "%s{\"hop\":%zu,\"nf\":\"%s\",\"packets\":%llu,\"drops\":%llu,"
        "\"ns_per_packet\":",
        h == 0 ? "" : ",", h, hop.nf.c_str(),
        static_cast<unsigned long long>(hop.packets),
        static_cast<unsigned long long>(hop.drops));
    // Unmeasured (hop_timing=0) is null, not a fake 0.0.
    if (hop.timed) {
      std::printf("%.2f}", hop.ns_per_packet);
    } else {
      std::printf("null}");
    }
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliConfig cli(argc, argv);
  RunConfig base;
  base.duration_s = cli.get_double("duration", 0.4);
  base.flows = static_cast<u32>(cli.get_u64("flows", 64));
  base.rx_batch = static_cast<u32>(cli.get_u64("rx_batch", 32));
  base.burst = static_cast<u32>(cli.get_u64("burst", 32));
  base.hop_timing = cli.get_u64("hop_timing", 0) != 0;
  base.telemetry = cli.get_u64("telemetry", 1) != 0;

  for (const auto& driver_s : split_list(cli.get("driver", "inline"))) {
    for (const auto& hops_s : split_list(cli.get("hops", "4"))) {
      for (const auto& cores_s : split_list(cli.get("cores", "1"))) {
        RunConfig rc = base;
        rc.inline_driver = driver_s != "threaded";
        rc.hops = std::clamp<u32>(static_cast<u32>(std::stoul(hops_s)), 1, 4);
        rc.cores = static_cast<u32>(std::stoul(cores_s));
        print_json(rc,
                   rc.inline_driver ? run_inline(rc) : run_threaded(rc));
      }
    }
  }
  return 0;
}
