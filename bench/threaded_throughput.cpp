// Throughput of the threaded executor on real worker threads: one driver
// thread copies pre-built template frames into pool buffers and injects
// them, N workers run the NF, and the TX sink counts and frees survivors.
// Compares the per-packet API path (inject(), a one-packet inject_bulk(),
// + per-packet sink) against the batched path (inject_bulk() bursts +
// per-batch sink, staged transfers, bulk pool operations) across core
// counts and dispatch modes.
//
// Emits one JSON line per configuration (pps, drops, per-core stats) so
// successive PRs can track the trajectory:
//
//   ./bench/threaded_throughput [cores=1,2,4] [modes=spray,flow]
//       [paths=packet,bulk] [duration=0.4] [flows=64] [rx_batch=32]
//       [burst=32] [nf_cycles=0] [telemetry=1] [reorder=0]
//       [telemetry_json=prefix] [variants=1] [policy=drop-new]
//       [flow_export=0] [trace=0] [trace_shift=6] [live_json=path]
//
// telemetry=0 disables the metrics registry entirely (for overhead A/B
// runs). reorder=1 turns on the spray-reorder observatory. telemetry_json
// writes one "sprayer.telemetry.v1" snapshot file per configuration,
// named <prefix>.<mode>.<path>.c<cores>.json. variants>1 pre-builds that
// many payload variants per flow: with a single template per flow every
// packet of a flow carries the same TCP checksum, so checksum-bit spraying
// degenerates to per-flow placement — variant payloads restore the
// per-packet entropy real traffic has (needed to observe reordering).
//
// flow_export=1 turns on the per-core flow-record tables and the live
// "sprayer.flowexport.v1" stream (live_json= names the sink file/FIFO;
// empty keeps accounting on with no stream, the pure-overhead case).
// trace=1 enables the sampled packet-path tracer (requires telemetry=1)
// at 1-in-2^trace_shift; the result line grows records/records_per_s and
// per-stage (steer/queue/nf) p50/p99 latency fields.
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
#include "core/threaded.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "nf/synthetic.hpp"
#include "nic/pktgen.hpp"
#include "telemetry/json_exporter.hpp"
#include "telemetry/snapshot.hpp"

using namespace sprayer;

namespace {

constexpr u32 kMaxBurst = 64;

struct RunConfig {
  u32 cores = 4;
  core::DispatchMode mode = core::DispatchMode::kSpray;
  bool bulk = true;
  double duration_s = 0.4;
  u32 flows = 64;
  u32 rx_batch = 32;
  u32 burst = 32;
  Cycles nf_cycles = 0;
  bool telemetry = true;
  bool reorder = false;
  std::string telemetry_json;  // snapshot file prefix; empty = no export
  u32 variants = 1;            // payload variants per flow
  bool flow_export = false;
  bool trace = false;
  u32 trace_shift = 6;    // 1-in-2^shift sampled packets
  std::string live_json;  // flow-export stream sink; empty = no stream
  // Default drop-new, not the framework's drop-regular-first: this bench
  // floods open-loop, so it lives permanently above the shed watermark and
  // any reserved conn headroom just rescales the effective ring capacity
  // (~0.75x pps on an oversubscribed host). Tail-drop keeps the tracked
  // series measuring the drain rate; use policy= for overload experiments
  // (overload_drill compares the policies properly).
  OverloadPolicy policy = OverloadPolicy::kDropNew;
};

struct RunResult {
  double elapsed_s = 0.0;
  u64 injected = 0;
  u64 forwarded = 0;
  u64 tx_calls = 0;
  u64 rx_ring_drops = 0;
  core::CoreStats total;
  std::vector<core::CoreStats> per_core;
  // Flow export / trace observability (populated only when enabled).
  u64 flow_records = 0;
  u64 flows_seen = 0;
  u64 trace_sampled = 0;
  struct StageLat {
    u64 p50 = 0;
    u64 p99 = 0;
  };
  StageLat steer_ns, queue_ns, nf_ns;
};

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

/// Pre-build one valid TCP data frame per flow; the driver then only
/// memcpys, so packet construction cost stays off the measured path.
std::vector<std::vector<u8>> build_templates(
    const std::vector<net::FiveTuple>& flow_set, u32 variants) {
  net::PacketPool scratch(flow_set.size() + 1, 256);
  std::vector<std::vector<u8>> templates;
  for (const auto& flow : flow_set) {
    for (u32 v = 0; v < variants; ++v) {
      net::TcpSegmentSpec spec;
      spec.tuple = flow;
      spec.flags = net::TcpFlags::kAck;
      spec.payload_len = 6;
      const u8 payload[6] = {1, 2, 3, 4, 5, static_cast<u8>(6 + v)};
      spec.payload = payload;
      net::Packet* pkt = net::build_tcp_raw(scratch, spec);
      templates.emplace_back(pkt->data(), pkt->data() + pkt->len());
      scratch.free(pkt);
    }
  }
  return templates;
}

RunResult run_one(const RunConfig& rc) {
  net::PacketPool pool(1u << 15, 256);
  nf::SyntheticNf nf(rc.nf_cycles);
  std::atomic<u64> forwarded{0};
  std::atomic<u64> tx_calls{0};

  core::SprayerConfig cfg;
  cfg.num_cores = rc.cores;
  cfg.mode = rc.mode;
  cfg.rx_batch = rc.rx_batch;
  cfg.housekeeping_interval = 0;
  cfg.telemetry = rc.telemetry;
  cfg.reorder_observatory = rc.reorder;
  cfg.overload_policy = rc.policy;
  cfg.flow_export.enabled = rc.flow_export;
  cfg.flow_export.sink_path = rc.live_json;
  cfg.trace.enabled = rc.trace;
  cfg.trace.sample_shift = rc.trace_shift;

  std::unique_ptr<core::ThreadedMiddlebox> mbox;
  if (rc.bulk) {
    mbox = std::make_unique<core::ThreadedMiddlebox>(
        cfg, nf,
        core::ThreadedMiddlebox::TxBatchHandler(
            [&](std::span<net::Packet* const> pkts) {
              forwarded.fetch_add(pkts.size(), std::memory_order_relaxed);
              tx_calls.fetch_add(1, std::memory_order_relaxed);
              net::free_packets(pkts);
            }));
  } else {
    mbox = std::make_unique<core::ThreadedMiddlebox>(
        cfg, nf,
        core::ThreadedMiddlebox::TxHandler([&](net::Packet* pkt) {
          forwarded.fetch_add(1, std::memory_order_relaxed);
          tx_calls.fetch_add(1, std::memory_order_relaxed);
          pkt->pool()->free(pkt);
        }));
  }
  if (rc.telemetry) {
    // Pool magazine effectiveness, evaluated lazily at snapshot time
    // (gauge_fn registration is allowed after the registry is finalized).
    mbox->metrics().gauge_fn("pool.magazine_hits",
                             [&pool] { return pool.cache_stats().hits; });
    mbox->metrics().gauge_fn("pool.magazine_misses",
                             [&pool] { return pool.cache_stats().misses; });
    mbox->metrics().gauge_fn("pool.locked_allocs",
                             [&pool] { return pool.cache_stats().locked; });
  }
  mbox->start();

  const auto flow_set = nic::random_tcp_flows(rc.flows, 42);
  const auto templates =
      build_templates(flow_set, std::max<u32>(rc.variants, 1));

  // Establish flow state before the measured interval (SYNs redirect).
  for (const auto& flow : flow_set) {
    net::TcpSegmentSpec spec;
    spec.tuple = flow;
    spec.flags = net::TcpFlags::kSyn;
    net::Packet* syn = net::build_tcp_raw(pool, spec);
    while (!mbox->inject(syn)) {
      syn = net::build_tcp_raw(pool, spec);
      std::this_thread::yield();
    }
  }
  mbox->wait_idle();

  using Clock = std::chrono::steady_clock;
  const u32 burst_size = std::min(rc.burst, kMaxBurst);
  std::array<net::Packet*, kMaxBurst> burst{};
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
      const auto& frame = templates[next_template];
      if (++next_template == templates.size()) next_template = 0;
      std::memcpy(burst[i]->data(), frame.data(), frame.size());
      burst[i]->set_len(static_cast<u32>(frame.size()));
    }
    if (rc.bulk) {
      injected += mbox->inject_bulk({burst.data(), n});
    } else {
      for (u32 i = 0; i < n; ++i) {
        if (mbox->inject(burst[i])) ++injected;
      }
    }
  }
  mbox->wait_idle();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  if (rc.telemetry && !rc.telemetry_json.empty()) {
    const auto snap = mbox->telemetry_snapshot();
    const auto reorder_stats = mbox->reorder_stats();
    std::string path = rc.telemetry_json;
    path += rc.mode == core::DispatchMode::kSpray ? ".spray" : ".flow";
    path += rc.bulk ? ".bulk" : ".packet";
    path += ".c" + std::to_string(rc.cores) + ".json";
    telemetry::JsonExporter::write_file(
        path, snap, rc.reorder ? &reorder_stats : nullptr);
  }
  mbox->stop();  // flushes the final flow-export records

  RunResult res;
  if (auto* fx = mbox->flow_exporter()) {
    const auto& st = fx->stats();
    res.flow_records = st.records;
    res.flows_seen = st.flows_seen;
  }
  if (mbox->tracer() != nullptr) {
    res.trace_sampled = mbox->tracer()->sampled();
    const auto snap = mbox->telemetry_snapshot();
    const auto stage = [&](const char* name) {
      RunResult::StageLat lat;
      if (const auto* h = snap.find_histogram(name)) {
        lat.p50 = h->merged.p50();
        lat.p99 = h->merged.p99();
      }
      return lat;
    };
    res.steer_ns = stage("trace.steer_ns");
    res.queue_ns = stage("trace.queue_ns");
    res.nf_ns = stage("trace.nf_ns");
  }
  res.elapsed_s = elapsed;
  res.injected = injected;
  res.forwarded = forwarded.load();
  res.tx_calls = tx_calls.load();
  res.rx_ring_drops = mbox->rx_ring_drops();
  res.total = mbox->total_stats();
  for (u32 c = 0; c < rc.cores; ++c) {
    res.per_core.push_back(mbox->core_stats(static_cast<CoreId>(c)));
  }
  return res;
}

void print_json(const RunConfig& rc, const RunResult& res) {
  std::printf(
      "{\"bench\":\"threaded_throughput\",\"mode\":\"%s\","
      "\"path\":\"%s\",\"cores\":%u,\"rx_batch\":%u,\"nf_cycles\":%llu,"
      "\"elapsed_s\":%.4f,\"injected\":%llu,\"forwarded\":%llu,"
      "\"pps\":%.0f,\"tx_calls\":%llu,\"rx_ring_drops\":%llu,"
      "\"transfer_drops\":%llu,",
      rc.mode == core::DispatchMode::kSpray ? "spray" : "flow",
      rc.bulk ? "bulk" : "packet", rc.cores, rc.rx_batch,
      static_cast<unsigned long long>(rc.nf_cycles), res.elapsed_s,
      static_cast<unsigned long long>(res.injected),
      static_cast<unsigned long long>(res.forwarded),
      static_cast<double>(res.forwarded) / res.elapsed_s,
      static_cast<unsigned long long>(res.tx_calls),
      static_cast<unsigned long long>(res.rx_ring_drops),
      static_cast<unsigned long long>(res.total.transfer_drops));
  if (rc.flow_export) {
    std::printf(
        "\"flow_records\":%llu,\"flow_records_per_s\":%.0f,"
        "\"flows_seen\":%llu,",
        static_cast<unsigned long long>(res.flow_records),
        static_cast<double>(res.flow_records) / res.elapsed_s,
        static_cast<unsigned long long>(res.flows_seen));
  }
  if (rc.trace) {
    const auto stage = [](const char* name, const RunResult::StageLat& s,
                          const char* trailer) {
      std::printf("\"%s\":{\"p50\":%llu,\"p99\":%llu}%s", name,
                  static_cast<unsigned long long>(s.p50),
                  static_cast<unsigned long long>(s.p99), trailer);
    };
    std::printf("\"trace_sampled\":%llu,\"trace_ns\":{",
                static_cast<unsigned long long>(res.trace_sampled));
    stage("steer", res.steer_ns, ",");
    stage("queue", res.queue_ns, ",");
    stage("nf", res.nf_ns, "},");
  }
  std::printf("\"per_core\":[");
  for (std::size_t c = 0; c < res.per_core.size(); ++c) {
    const auto& s = res.per_core[c];
    std::printf(
        "%s{\"core\":%zu,\"rx\":%llu,\"tx\":%llu,\"conn_local\":%llu,"
        "\"conn_out\":%llu,\"conn_in\":%llu}",
        c == 0 ? "" : ",", c, static_cast<unsigned long long>(s.rx_packets),
        static_cast<unsigned long long>(s.tx_packets),
        static_cast<unsigned long long>(s.conn_local),
        static_cast<unsigned long long>(s.conn_transferred_out),
        static_cast<unsigned long long>(s.conn_foreign_in));
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const CliConfig cli(argc, argv);
  RunConfig base;
  base.duration_s = cli.get_double("duration", 0.4);
  base.flows = static_cast<u32>(cli.get_u64("flows", 64));
  base.rx_batch = static_cast<u32>(cli.get_u64("rx_batch", 32));
  base.burst = static_cast<u32>(cli.get_u64("burst", 32));
  base.nf_cycles = cli.get_u64("nf_cycles", 0);
  base.telemetry = cli.get_u64("telemetry", 1) != 0;
  base.reorder = cli.get_u64("reorder", 0) != 0;
  base.telemetry_json = cli.get("telemetry_json", "");
  base.variants = static_cast<u32>(cli.get_u64("variants", 1));
  base.flow_export = cli.get_u64("flow_export", 0) != 0;
  base.trace = cli.get_u64("trace", 0) != 0;
  base.trace_shift = static_cast<u32>(cli.get_u64("trace_shift", 6));
  base.live_json = cli.get("live_json", "");
  const std::string policy_s = cli.get("policy", "drop-new");
  base.policy = policy_s == "drop-new"   ? OverloadPolicy::kDropNew
                : policy_s == "block"    ? OverloadPolicy::kBlock
                                         : OverloadPolicy::kDropRegularFirst;

  for (const auto& cores_s : split_list(cli.get("cores", "1,2,4"))) {
    for (const auto& mode_s : split_list(cli.get("modes", "spray,flow"))) {
      for (const auto& path_s : split_list(cli.get("paths", "packet,bulk"))) {
        RunConfig rc = base;
        rc.cores = static_cast<u32>(std::stoul(cores_s));
        rc.mode = mode_s == "flow" ? core::DispatchMode::kRss
                                   : core::DispatchMode::kSpray;
        rc.bulk = path_s == "bulk";
        print_json(rc, run_one(rc));
      }
    }
  }
  return 0;
}
