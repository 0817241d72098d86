// Head-to-head race of the pluggable flow-state strategies (DESIGN.md §14)
// on the threaded executor: writing partition vs state-compute replication,
// across three traffic mixes chosen to pull the strategies apart:
//
//   churn        — pure SYN/FIN storm through the monitor (insert/remove at
//                  every packet): the flow-event path dominates, so the cost
//                  of redirecting + replicating is the whole story;
//   nat_write    — NAT sessions held open while every cycle re-touches them
//                  with SYN/FIN mutations between data bursts: write-heavy
//                  flow events plus a translated read per data packet (one
//                  FIN per cycle, from one side only, so no session ever
//                  closes and the tables stay at the flow-set size);
//   monitor_read — established flows, pure data: the regular path is
//                  read-only, which is replication's best case (every
//                  get_flow is served from the local replica) and writing
//                  partition's cross-core cache-miss case.
//
// Emits one JSON line per (strategy, workload) with throughput plus the
// per-strategy telemetry (remote reads / avoided remote reads, sync-frame
// broadcast traffic, replica-divergence audit);
// tools/check_state_schema.py validates the output and CI gates on it:
//
//   ./bench/state_strategy
//       [strategies=writing_partition,replication]
//       [workloads=churn,nat_write,monitor_read] [cores=4] [duration=0.4]
//       [flows=0 (per-workload default)] [rx_batch=32] [burst=32]
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
#include "nf/monitor.hpp"
#include "nf/nat.hpp"
#include "nic/pktgen.hpp"

using namespace sprayer;

namespace {

constexpr u32 kMaxBurst = 64;

enum class Workload { kChurn, kNatWrite, kMonitorRead };

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kChurn:
      return "churn";
    case Workload::kNatWrite:
      return "nat_write";
    case Workload::kMonitorRead:
      return "monitor_read";
  }
  return "unknown";
}

struct RunConfig {
  state::StateStrategyKind strategy =
      state::StateStrategyKind::kWritingPartition;
  Workload workload = Workload::kChurn;
  u32 cores = 4;
  double duration_s = 0.4;
  u32 flows = 0;  // 0 = per-workload default
  u32 rx_batch = 32;
  u32 burst = 32;

  [[nodiscard]] u32 effective_flows() const {
    if (flows != 0) return flows;
    switch (workload) {
      case Workload::kChurn:
        return 4096;
      case Workload::kNatWrite:
        return 2048;
      case Workload::kMonitorRead:
        return 1024;
    }
    return 1024;
  }
};

struct RunResult {
  double elapsed_s = 0.0;
  u64 injected = 0;
  u64 forwarded = 0;
  u64 rx_ring_drops = 0;
  core::CoreStats total;
  core::FlowAccessStats access;
  core::StrategyCounters counters;  // summed over cores (plain copies)
  state::SyncStatsSnapshot sync;
  state::DivergenceReport divergence;
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

/// One pre-built frame per flow with the given flags (payload only on data
/// frames, where variant payloads keep the checksum-spray entropy real
/// traffic has).
void append_wave(std::vector<std::vector<u8>>& out,
                 const std::vector<net::FiveTuple>& flow_set, u8 flags,
                 u32 variant) {
  net::PacketPool scratch(2, 256);
  for (const auto& flow : flow_set) {
    net::TcpSegmentSpec spec;
    spec.tuple = flow;
    spec.flags = flags;
    u8 payload[6] = {1, 2, 3, 4, 5, static_cast<u8>(variant)};
    if (flags == net::TcpFlags::kAck) {
      spec.payload_len = sizeof(payload);
      spec.payload = payload;
    }
    net::Packet* pkt = net::build_tcp_raw(scratch, spec);
    out.emplace_back(pkt->data(), pkt->data() + pkt->len());
    scratch.free(pkt);
  }
}

/// The injected cycle, one wave after another; same-flow conn frames are a
/// full flow-set apart so they stay ordered through the rings.
std::vector<std::vector<u8>> build_cycle(
    Workload w, const std::vector<net::FiveTuple>& flow_set) {
  std::vector<std::vector<u8>> cycle;
  switch (w) {
    case Workload::kChurn:
      // Open + close every flow, every cycle: all conn packets.
      append_wave(cycle, flow_set, net::TcpFlags::kSyn, 0);
      append_wave(cycle, flow_set,
                  net::TcpFlags::kFin | net::TcpFlags::kAck, 0);
      break;
    case Workload::kNatWrite:
      // Sessions stay open (pre-established, FIN from one side only never
      // completes the close handshake); every SYN/FIN still runs the conn
      // handler and mutates the session entry, every ACK translates.
      append_wave(cycle, flow_set, net::TcpFlags::kSyn, 0);
      append_wave(cycle, flow_set, net::TcpFlags::kAck, 0);
      append_wave(cycle, flow_set,
                  net::TcpFlags::kFin | net::TcpFlags::kAck, 0);
      break;
    case Workload::kMonitorRead:
      // Established flows, pure data: regular-path reads only.
      for (u32 v = 0; v < 4; ++v) {
        append_wave(cycle, flow_set, net::TcpFlags::kAck, v);
      }
      break;
  }
  return cycle;
}

RunResult run_one(const RunConfig& rc) {
  net::PacketPool pool(1u << 15, 256);
  const u32 flows = rc.effective_flows();

  // NAT teardown is FIN-only by construction (see build_cycle); a huge
  // TIME_WAIT just documents that no session expires mid-run.
  nf::NatConfig nat_cfg;
  nat_cfg.time_wait = 3600 * kSecond;
  std::unique_ptr<core::INetworkFunction> nf;
  switch (rc.workload) {
    case Workload::kChurn:
      nf = std::make_unique<nf::MonitorNf>(/*close_on_single_fin=*/true);
      break;
    case Workload::kNatWrite:
      nf = std::make_unique<nf::NatNf>(nat_cfg);
      break;
    case Workload::kMonitorRead:
      nf = std::make_unique<nf::MonitorNf>();
      break;
  }

  std::atomic<u64> forwarded{0};
  core::SprayerConfig cfg;
  cfg.num_cores = rc.cores;
  cfg.mode = core::DispatchMode::kSpray;
  cfg.rx_batch = rc.rx_batch;
  // Replication flushes alloc-stalled sync frames from housekeeping, so it
  // must tick; the same interval everywhere keeps the race fair.
  cfg.housekeeping_interval = 5 * kMillisecond;
  cfg.telemetry = false;
  // Open-loop flood: tail-drop at the rx ring measures the drain rate (same
  // rationale as threaded_throughput).
  cfg.overload_policy = OverloadPolicy::kDropNew;
  cfg.state.kind = rc.strategy;

  core::ThreadedMiddlebox mbox(
      cfg, *nf,
      core::ThreadedMiddlebox::TxBatchHandler(
          [&](std::span<net::Packet* const> pkts) {
            forwarded.fetch_add(pkts.size(), std::memory_order_relaxed);
            net::free_packets(pkts);
          }));
  mbox.start();

  const auto flow_set = nic::random_tcp_flows(flows, 42);
  const auto cycle = build_cycle(rc.workload, flow_set);

  // Establish flow state before the measured interval (NAT sessions and
  // monitored flows; churn starts cold — opening is the workload).
  if (rc.workload != Workload::kChurn) {
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
  }

  using Clock = std::chrono::steady_clock;
  const u32 burst_size = std::min(rc.burst, kMaxBurst);
  std::array<net::Packet*, kMaxBurst> burst{};
  u64 injected = 0;
  std::size_t next_frame = 0;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(rc.duration_s));
  while (Clock::now() < deadline) {
    const u32 n = pool.alloc_bulk(std::span{burst.data(), burst_size});
    if (n == 0) {  // backpressure: workers (or sync frames) own the buffers
      std::this_thread::yield();
      continue;
    }
    for (u32 i = 0; i < n; ++i) {
      const auto& frame = cycle[next_frame];
      if (++next_frame == cycle.size()) next_frame = 0;
      std::memcpy(burst[i]->data(), frame.data(), frame.size());
      burst[i]->set_len(static_cast<u32>(frame.size()));
    }
    injected += mbox.inject_bulk({burst.data(), n});
  }
  mbox.wait_idle();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // Let housekeeping broadcast any alloc-stalled sync frames, then audit
  // the replicas at quiescence.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  mbox.wait_idle();

  RunResult res;
  res.divergence = mbox.state_strategy().check_divergence();
  res.sync = mbox.state_strategy().sync_stats();
  res.elapsed_s = elapsed;
  res.injected = injected;
  res.forwarded = forwarded.load();
  res.rx_ring_drops = mbox.rx_ring_drops();
  res.total = mbox.total_stats();
  res.access = mbox.access_stats();
  for (u32 c = 0; c < rc.cores; ++c) {
    const auto& sc = mbox.context(static_cast<CoreId>(c))
                         .flows()
                         .strategy_counters();
    res.counters.remote_reads += sc.remote_reads.load();
    res.counters.remote_reads_avoided += sc.remote_reads_avoided.load();
  }
  mbox.stop();
  return res;
}

void print_json(const RunConfig& rc, const RunResult& res) {
  std::printf(
      "{\"bench\":\"state_strategy\",\"strategy\":\"%s\","
      "\"workload\":\"%s\",\"cores\":%u,\"flows\":%u,"
      "\"elapsed_s\":%.4f,\"injected\":%llu,\"forwarded\":%llu,"
      "\"pps\":%.0f,\"rx_ring_drops\":%llu,"
      "\"conn\":{\"local\":%llu,\"transferred_out\":%llu,"
      "\"foreign_in\":%llu},"
      "\"access\":{\"reads_regular\":%llu,\"reads_conn\":%llu,"
      "\"writes_regular\":%llu,\"writes_conn\":%llu},"
      "\"state\":{\"remote_reads\":%llu,\"remote_reads_avoided\":%llu},",
      state::to_string(rc.strategy), to_string(rc.workload), rc.cores,
      rc.effective_flows(), res.elapsed_s,
      static_cast<unsigned long long>(res.injected),
      static_cast<unsigned long long>(res.forwarded),
      static_cast<double>(res.forwarded) / res.elapsed_s,
      static_cast<unsigned long long>(res.rx_ring_drops),
      static_cast<unsigned long long>(res.total.conn_local),
      static_cast<unsigned long long>(res.total.conn_transferred_out),
      static_cast<unsigned long long>(res.total.conn_foreign_in),
      static_cast<unsigned long long>(res.access.reads_in_regular),
      static_cast<unsigned long long>(res.access.reads_in_connection),
      static_cast<unsigned long long>(res.access.writes_in_regular),
      static_cast<unsigned long long>(res.access.writes_in_connection),
      static_cast<unsigned long long>(res.counters.remote_reads.load()),
      static_cast<unsigned long long>(
          res.counters.remote_reads_avoided.load()));
  if (rc.strategy == state::StateStrategyKind::kReplication) {
    std::printf(
        "\"sync\":{\"frames_sent\":%llu,\"bytes_sent\":%llu,"
        "\"ops_sent\":%llu,\"frames_applied\":%llu,\"ops_applied\":%llu,"
        "\"apply_failures\":%llu,\"alloc_stalls\":%llu},"
        "\"divergence\":{\"entries_compared\":%llu,\"mismatched\":%llu,"
        "\"missing\":%llu,\"extra\":%llu,\"clean\":%s}}\n",
        static_cast<unsigned long long>(res.sync.frames_sent),
        static_cast<unsigned long long>(res.sync.bytes_sent),
        static_cast<unsigned long long>(res.sync.ops_sent),
        static_cast<unsigned long long>(res.sync.frames_applied),
        static_cast<unsigned long long>(res.sync.ops_applied),
        static_cast<unsigned long long>(res.sync.apply_failures),
        static_cast<unsigned long long>(res.sync.alloc_stalls),
        static_cast<unsigned long long>(res.divergence.entries_compared),
        static_cast<unsigned long long>(res.divergence.mismatched_entries),
        static_cast<unsigned long long>(res.divergence.missing_entries),
        static_cast<unsigned long long>(res.divergence.extra_entries),
        res.divergence.clean() ? "true" : "false");
  } else {
    std::printf("\"sync\":null,\"divergence\":null}\n");
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const CliConfig cli(argc, argv);
  RunConfig base;
  base.cores = static_cast<u32>(cli.get_u64("cores", 4));
  base.duration_s = cli.get_double("duration", 0.4);
  base.flows = static_cast<u32>(cli.get_u64("flows", 0));
  base.rx_batch = static_cast<u32>(cli.get_u64("rx_batch", 32));
  base.burst = static_cast<u32>(cli.get_u64("burst", 32));

  const std::string strategies =
      cli.get("strategies", "writing_partition,replication");
  const std::string workloads =
      cli.get("workloads", "churn,nat_write,monitor_read");
  for (const auto& wl : split_list(workloads)) {
    for (const auto& st : split_list(strategies)) {
      RunConfig rc = base;
      if (st == "writing_partition" || st == "wp") {
        rc.strategy = state::StateStrategyKind::kWritingPartition;
      } else if (st == "replication" || st == "repl") {
        rc.strategy = state::StateStrategyKind::kReplication;
      } else {
        std::fprintf(stderr, "unknown strategy %s\n", st.c_str());
        return 2;
      }
      if (wl == "churn") {
        rc.workload = Workload::kChurn;
      } else if (wl == "nat_write") {
        rc.workload = Workload::kNatWrite;
      } else if (wl == "monitor_read") {
        rc.workload = Workload::kMonitorRead;
      } else {
        std::fprintf(stderr, "unknown workload %s\n", wl.c_str());
        return 2;
      }
      print_json(rc, run_one(rc));
    }
  }
  return 0;
}
