// The repo benchmark: three traffic mixes through the shipping threaded
// configuration (ThreadedMiddlebox, spray dispatch, writing partition,
// telemetry on, default housekeeping and lifecycle sweep, inject_bulk) over
// one DynamicChain NAT -> monitor, with 2 worker cores and this thread as
// driver and traffic source.
//
//   perfbench workload=<elephant|many_flows|conn_churn> seed=<n> seconds=<s>
//             trace=<0|1> rates=elephant=<kpps>,many_flows=<kpps>,...
//             [out=<dir>] [dump=<frames> dump_path=<file>]
//
// trace=0 prints the end-to-end metrics, trace=1 the per-layer ledger.
// The last stdout line is the JSON record; self-check failures are listed
// on stderr and make the run exit 1. README.md beside this file maps each
// layer metric to the end-to-end metric and workload it should move.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/compiler.hpp"
#include "common/config.hpp"
#include "core/chain.hpp"
#include "core/threaded.hpp"
#include "net/checksum.hpp"
#include "net/packet_pool.hpp"
#include "nf/monitor.hpp"
#include "nf/nat.hpp"
#include "runtime/spsc_ring.hpp"
#include "telemetry/snapshot.hpp"
#include "traffic.hpp"

namespace perfbench {
namespace {

using namespace sprayer;

constexpr u32 kCores = 2;
constexpr u32 kBurst = 32;
constexpr u32 kPoolPackets = 1u << 15;
constexpr u32 kSetupWindow = 1024;

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

// --- placement ----------------------------------------------------------------
struct Placement {
  int driver = -1;
  std::vector<int> workers;
  u32 nproc = 0;

  static Placement detect() {
    Placement p;
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    p.nproc = static_cast<u32>(std::thread::hardware_concurrency());
    // Leave the first CPU to the OS when there is room for it.
    const std::size_t base = cpus.size() >= 4 ? 1 : 0;
    if (cpus.size() >= 3) {
      p.driver = cpus[base];
      p.workers = {cpus[base + 1], cpus[base + 2]};
    }
    return p;
  }

  static void pin_self(const std::vector<int>& cpus) {
    if (cpus.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  }

  /// Workers inherit the creating thread's mask: restrict it to the worker
  /// CPUs across start(), then move the driver to its own CPU.
  template <class Start>
  void start_workers(Start&& start) const {
    pin_self(workers);
    start();
    if (driver >= 0) pin_self({driver});
  }

  [[nodiscard]] std::string describe() const {
    std::string out = "{\"nproc\":" + std::to_string(nproc);
    out += ",\"driver_cpu\":" + std::to_string(driver) + ",\"worker_cpus\":[";
    for (std::size_t i = 0; i < workers.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(workers[i]);
    }
    return out + "]}";
  }
};

// --- latency histogram ----------------------------------------------------------
/// Log-linear histogram (32 sub-buckets per octave) whose quantiles
/// interpolate inside the bucket.
class LatHist {
 public:
  void add(u64 v) {
    ++counts_[index(v)];
    ++n_;
  }
  void merge(const LatHist& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  void reset() {
    counts_.fill(0);
    n_ = 0;
  }
  [[nodiscard]] u64 count() const { return n_; }
  [[nodiscard]] double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_ - 1) + 0.5;
    double seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double next = seen + static_cast<double>(counts_[i]);
      if (next >= rank) {
        const double frac = (rank - seen) / static_cast<double>(counts_[i]);
        return lower(i) + frac * width(i);
      }
      seen = next;
    }
    return lower(counts_.size() - 1);
  }

 private:
  static constexpr u32 kBits = 5;
  static constexpr u32 kSub = 1u << kBits;
  static std::size_t index(u64 v) {
    const int msb = 63 - std::countl_zero(v | 1);
    if (static_cast<u32>(msb) < kBits) return v;
    const u32 range = static_cast<u32>(msb) - kBits + 1;
    const u32 sub = static_cast<u32>(v >> range) & (kSub - 1);
    return std::min<std::size_t>(std::size_t{range} * kSub + sub, kSize - 1);
  }
  static double lower(std::size_t i) {
    const u64 range = i / kSub;
    const u64 sub = i % kSub;
    return range == 0 ? static_cast<double>(sub)
                      : static_cast<double>(sub << range);
  }
  static double width(std::size_t i) {
    const u64 range = i / kSub;
    return range == 0 ? 1.0 : static_cast<double>(u64{1} << range);
  }
  static constexpr std::size_t kSize = (64 - kBits + 1) * kSub;
  std::array<u64, kSize> counts_{};
  u64 n_ = 0;
};

// --- spans -----------------------------------------------------------------------
enum SpanKind : u16 { kGen, kAlloc, kInject, kPoll, kTx, kFree, kSpanKinds };
constexpr const char* kSpanNames[] = {"gen", "alloc", "inject", "poll", "tx", "free"};

struct Span {
  u64 start = 0;
  u32 dur = 0;
  u16 kind = 0;
  u16 n = 0;
};

/// One thread's spans: totals always, the records themselves up to a cap,
/// written out when the run ends.
class SpanLog {
 public:
  static constexpr std::size_t kCap = 1u << 18;
  void add(SpanKind k, u64 t0, u64 t1, u32 n) {
    total_[k] += t1 - t0;
    count_[k] += n;
    if (spans_.size() < kCap) {
      spans_.push_back(Span{t0, static_cast<u32>(t1 - t0), k, static_cast<u16>(n)});
    }
  }
  void reset() {
    total_.fill(0);
    count_.fill(0);
    spans_.clear();
  }
  [[nodiscard]] u64 total(SpanKind k) const { return total_[k]; }
  [[nodiscard]] u64 count(SpanKind k) const { return count_[k]; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void reserve() { spans_.reserve(kCap); }

 private:
  std::array<u64, kSpanKinds> total_{};
  std::array<u64, kSpanKinds> count_{};
  std::vector<Span> spans_;
};

// --- TX sink ------------------------------------------------------------------------
/// Per-connection completion state shared with the workers.
struct alignas(64) SlotShared {
  std::atomic<u32> delivered{0};  // engine packets delivered, cumulative
  std::atomic<u32> target{0};     // cumulative packets released so far
  std::atomic<u64> done_at{0};    // ns since epoch the last round completed
};

/// Latency windows of a measured interval, by scheduled send time.
constexpr u32 kLatWindows = 48;

struct alignas(64) WorkerTally {
  std::atomic<u64> delivered{0};  // published once per batch
  u64 local = 0;
  u64 measured = 0;
  u64 nat_errors = 0;
  u64 csum_errors = 0;
  std::array<LatHist, kLatWindows> lat;
  SpanLog spans;
};

/// The TX handler: checks the NAT translation of every delivered packet,
/// records latency for measured packets, completes connection rounds, and
/// frees the batch.
class Sink {
 public:
  Sink(u32 slots, u64 epoch, bool tracing, const Placement& place)
      : epoch_(epoch), tracing_(tracing), place_(place), slots_(slots),
        mapping_(slots) {
    const u32 ring = std::bit_ceil(std::max<u32>(slots, 2));
    for (u32 w = 0; w < kCores; ++w) {
      rings_.push_back(std::make_unique<runtime::SpscRing<u32>>(ring));
      if (tracing_) tally_[w].spans.reserve();
    }
  }
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  void operator()(std::span<net::Packet* const> pkts) {
    WorkerTally& w = tally_[worker_index()];
    const u64 t0 = now_ns();
    const u64 rel = t0 - epoch_;
    const bool verify = verify_.load(std::memory_order_relaxed);
    for (net::Packet* pkt : pkts) {
      net::Ipv4View ip = pkt->ipv4();
      net::TcpView tcp = pkt->tcp();
      const u32 src = ip.src().host_order();
      const u32 dst = ip.dst().host_order();
      u64 ts;
      u8 tag;
      FrameWriter::read_stamp(tcp.bytes(), ts, tag);
      const bool c2s = src == kExternalIp;
      const u32 flow = flow_of(dst);
      if (flow >= slots_.size()) {
        ++w.nat_errors;
        continue;
      }
      // Outbound: source rewritten to the flow's external mapping, server
      // untouched. Inbound: destination restored to the client.
      std::atomic<u32>& map = mapping_[flow];
      if (c2s) {
        if ((tag & kTagSyn) != 0) {
          const u32 m = map.load(std::memory_order_relaxed);
          map.store((u32{tcp.src_port()} << 16) | (m & 0xffff),
                    std::memory_order_relaxed);
        } else if (tcp.src_port() != map.load(std::memory_order_relaxed) >> 16) {
          ++w.nat_errors;
        }
        if (dst != server_ip(flow) || tcp.dst_port() != kServerPort) ++w.nat_errors;
      } else {
        if (dst != client_ip(flow) ||
            tcp.dst_port() != (map.load(std::memory_order_relaxed) & 0xffff) ||
            src != server_ip(flow) || tcp.src_port() != kServerPort) {
          ++w.nat_errors;
        }
      }
      if (verify) {
        const u32 l4_len = ip.total_length() - ip.header_len();
        if (net::internet_checksum(ip.bytes(), 20) != 0 ||
            !net::l4_checksum_valid(ip.src(), ip.dst(), net::kProtoTcp,
                                    tcp.bytes(), l4_len)) {
          ++w.csum_errors;
        }
      }
      if ((tag & kTagMeasured) != 0) {
        const u64 win = (ts - std::min(ts, lat_base_)) / lat_window_ns_;
        w.lat[std::min<u64>(win, kLatWindows - 1)].add(rel > ts ? rel - ts : 0);
        ++w.measured;
      }
      if ((tag & kTagEngine) != 0) {
        SlotShared& s = slots_[flow];
        const u32 n = s.delivered.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (n == s.target.load(std::memory_order_acquire)) {
          s.done_at.store(rel, std::memory_order_relaxed);
          SPRAYER_CHECK_MSG(rings_[&w - tally_]->push(flow),
                            "completion ring holds one entry per slot");
        }
      }
    }
    w.local += pkts.size();
    if (tracing_) {
      const u64 t1 = now_ns();
      net::free_packets(pkts);
      const u64 t2 = now_ns();
      w.spans.add(kFree, t1, t2, static_cast<u32>(pkts.size()));
      w.spans.add(kTx, t0, t2, 1);
    } else {
      net::free_packets(pkts);
    }
    w.delivered.store(w.local, std::memory_order_release);
  }

  [[nodiscard]] u64 delivered() const {
    u64 n = 0;
    for (const auto& w : tally_) n += w.delivered.load(std::memory_order_acquire);
    return n;
  }
  [[nodiscard]] WorkerTally& tally(u32 w) { return tally_[w]; }
  [[nodiscard]] SlotShared& slot(u32 s) { return slots_[s]; }
  [[nodiscard]] std::atomic<u32>& mapping(u32 s) { return mapping_[s]; }
  [[nodiscard]] runtime::SpscRing<u32>& ring(u32 w) { return *rings_[w]; }
  void set_verify(bool on) { verify_.store(on, std::memory_order_relaxed); }
  /// Quiescent-only: clear the per-worker measurement state; latency is
  /// binned by scheduled send time into windows of `window_ns` from now.
  void reset_measurement(u64 window_ns = u64{1} << 62) {
    lat_base_ = now_ns() - epoch_;
    lat_window_ns_ = window_ns;
    for (auto& w : tally_) {
      for (auto& h : w.lat) h.reset();
      w.measured = 0;
      w.spans.reset();
    }
  }

 private:
  u32 worker_index() {
    thread_local const Sink* owner = nullptr;
    thread_local u32 index = 0;
    if (owner != this) {
      owner = this;
      index = next_worker_.fetch_add(1, std::memory_order_relaxed);
      SPRAYER_CHECK_MSG(index < kCores, "more TX threads than worker cores");
      // Workers start on the shared worker set; the first batch settles
      // each on a CPU of its own.
      if (index < place_.workers.size()) Placement::pin_self({place_.workers[index]});
    }
    return index;
  }

  u64 epoch_;
  bool tracing_;
  const Placement& place_;
  u64 lat_base_ = 0;
  u64 lat_window_ns_ = u64{1} << 62;
  std::atomic<u32> next_worker_{0};
  std::atomic<bool> verify_{false};
  std::vector<SlotShared> slots_;
  // (external port << 16) | client port, per flow/slot.
  std::vector<std::atomic<u32>> mapping_;
  std::vector<std::unique_ptr<runtime::SpscRing<u32>>> rings_;
  WorkerTally tally_[kCores];
};

// --- one middlebox instance ------------------------------------------------------
/// NAT TIME_WAIT: long enough that a host stall between a connection's
/// last FIN and its final ACK does not expire the session first (the 50 ms
/// default is sized for the simulator), short enough that the reused
/// tuples of conn_churn keep port use far below the pool.
constexpr Time kNatTimeWait = 500 * kMillisecond;

struct Instance {
  nf::NatNf nat{nf::NatConfig{.time_wait = kNatTimeWait}};
  // Behind the NAT the monitor sees the client's FIN and the server's FIN
  // under different canonical keys (ext:port<->server vs server<->client),
  // so it closes a connection on the first FIN it can observe.
  nf::MonitorNf monitor{/*close_on_single_fin=*/true};
  core::DynamicChain chain{std::vector<core::INetworkFunction*>{&nat, &monitor}};
  Sink sink;
  std::unique_ptr<core::ThreadedMiddlebox> mbox;

  Instance(u32 slots, u64 epoch, bool traced, const Placement& place)
      : sink(slots, epoch, traced, place) {
    core::SprayerConfig cfg;
    cfg.num_cores = kCores;
    cfg.mode = core::DispatchMode::kSpray;
    // Lossless admission everywhere, the open-loop latency instances too.
    // The default policy (kDropRegularFirst) sheds once an rx ring passes
    // its watermark, which a host stall of a worker's vCPU reaches in ~10 ms
    // at the frozen rates, so the shed count would measure the host. Under
    // kBlock a packet held back by a stall is still timed from its scheduled
    // send time: the stall shows as latency, not as loss. Below the
    // watermark the two policies admit alike.
    cfg.overload_policy = OverloadPolicy::kBlock;
    cfg.state.kind = state::StateStrategyKind::kWritingPartition;
    cfg.telemetry = true;
    cfg.trace.enabled = traced;
    cfg.chain_hop_timing = traced;
    mbox = std::make_unique<core::ThreadedMiddlebox>(
        cfg, chain,
        [this](std::span<net::Packet* const> pkts) { sink(pkts); });
  }
  ~Instance() {
    if (mbox) mbox->stop();
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  [[nodiscard]] u64 live_entries() {
    u64 n = 0;
    for (u32 h = 0; h < mbox->num_hops(); ++h) {
      for (u32 c = 0; c < kCores; ++c) {
        n += mbox->hop_flow_table(h, static_cast<CoreId>(c)).size();
      }
    }
    return n;
  }
};

// --- counters sampled around a phase ----------------------------------------------
struct Sample {
  u64 t = 0;
  core::CoreStats per_core[kCores];
  u64 shed = 0;
  u64 remote_reads = 0;
  u64 reads = 0;
  net::PacketPool::CacheStats cache;
  telemetry::TelemetrySnapshot snap;
};

Sample sample(Instance& in, net::PacketPool& pool) {
  Sample s;
  s.t = now_ns();
  for (u32 c = 0; c < kCores; ++c) {
    s.per_core[c] = in.mbox->core_stats(static_cast<CoreId>(c));
    for (u32 h = 0; h < in.mbox->num_hops(); ++h) {
      auto& flows = in.mbox->hop_context(h, static_cast<CoreId>(c)).flows();
      s.remote_reads += flows.strategy_counters().remote_reads.load();
      const auto& a = flows.access_stats();
      s.reads += a.reads_in_regular + a.reads_in_connection;
    }
  }
  s.shed = in.mbox->rx_ring_drops();
  s.cache = pool.cache_stats();
  s.snap = in.mbox->telemetry_snapshot();
  return s;
}

u64 delta(const telemetry::TelemetrySnapshot& a, const telemetry::TelemetrySnapshot& b,
          const std::string& name) {
  return b.value(name) - std::min(b.value(name), a.value(name));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- the driver ---------------------------------------------------------------------
struct Options {
  Workload workload = Workload::kElephant;
  std::string workload_name;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  double rate_pps = 0;  // open-loop offered rate of the latency interval
  std::string out;
};

struct PhaseStats {
  u64 offered = 0;
  u64 accepted = 0;
  u64 measured_offered = 0;
  std::vector<double> window_mpps;
  LatHist lag;  // open loop: inject time minus scheduled time
  u64 empty_allocs = 0;
  std::vector<std::pair<u64, u32>> inject_calls;  // traced: (ns, packets)
};

class Driver {
 public:
  Driver(const Options& opt, net::PacketPool& pool, u64 epoch)
      : opt_(opt), pool_(pool), epoch_(epoch), writer_(opt.seed),
        shape_(shape_of(opt.workload)), conn_packets_(churn_packets_per_conn()) {}

  /// Construct, start, and establish the workload's long-lived flows.
  /// Returns the set-up time in seconds.
  double setup(std::unique_ptr<Instance>& in, const Placement& place, bool traced) {
    const u64 t0 = now_ns();
    traced_ = false;
    window_s_ = 0;
    const u32 slots = std::max(shape_.flows, shape_.slots);
    in = std::make_unique<Instance>(slots, epoch_, traced, place);
    place.start_workers([&] { in->mbox->start(); });
    in_ = in.get();
    Rng rng = seed_flows(flows_, shape_.flows, opt_.seed);
    engine_reset(Script::kOpen, rng.next());
    if (shape_.flows > 0) {
      // Open every session through the same round-gated engine the churn
      // workload uses: SYN, then SYN-ACK to the observed mapping, then ACK.
      opens_left_ = shape_.flows;
      PhaseStats ps;
      run_engine(ps, /*seconds=*/20.0, /*rate=*/0, false, /*until_idle=*/true);
      for (u32 f = 0; f < shape_.flows; ++f) {
        flows_[f].cseq = conn_[f].cseq;
        flows_[f].sseq = conn_[f].sseq;
      }
      if (conns_done_ != shape_.flows) {
        fail("set-up established " + std::to_string(conns_done_) + " of " +
             std::to_string(shape_.flows) + " sessions (rx sheds " +
             std::to_string(in->mbox->rx_ring_drops()) + ", NF drops " +
             std::to_string(in->mbox->total_stats().nf_drops.load()) + ")");
      }
    }
    in->mbox->wait_idle();
    stream_ = std::make_unique<StreamGen>(opt_.workload, opt_.seed, flows_);
    if (opt_.workload == Workload::kConnChurn) {
      engine_reset(Script::kChurn, opt_.seed ^ kSaltChurn);
    }
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  /// Run traffic for `seconds`: closed loop when rate == 0 (kBlock
  /// instance), otherwise open loop at `rate` packets per second.
  PhaseStats run(double seconds, double rate, bool measured, bool traced,
                 double window_s = 0) {
    PhaseStats ps;
    traced_ = traced;
    window_s_ = window_s;
    if (opt_.workload == Workload::kConnChurn) {
      opens_left_ = ~u64{0};
      run_engine(ps, seconds, rate, measured, false);
    } else {
      run_stream(ps, seconds, rate, measured);
    }
    return ps;
  }

  /// Churn only: stop opening connections and let every open one finish.
  bool drain(double timeout_s) {
    if (opt_.workload != Workload::kConnChurn) return true;
    opens_left_ = 0;
    PhaseStats ps;
    run_engine(ps, timeout_s, 0, false, true);
    return active_ == 0;
  }

  [[nodiscard]] const SpanLog& spans() const { return spans_; }
  void reset_spans() { spans_.reset(); }
  void reserve_spans() { spans_.reserve(); }
  [[nodiscard]] u64 open_sessions() const { return shape_.flows; }
  [[nodiscard]] u64 stuck_connections() const { return active_; }
  [[nodiscard]] u64 offered_total() const { return offered_total_; }
  [[nodiscard]] u64 ports_claimed_peak() const { return ports_peak_; }
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }
  void fail(const std::string& what) { errors_.push_back(what); }

  /// Deterministic generator output for the seed, without a middlebox:
  /// every round completes as soon as it is sent, mappings are synthetic.
  void dump(u64 frames, std::FILE* out) {
    std::vector<u8> buf(2048);
    (void)seed_flows(flows_, shape_.flows, opt_.seed);
    auto ext = [](u32 f) { return static_cast<u16>(10000 + f % 50000); };
    auto put = [&](const Frame& f, u32 cport) {
      const u32 len = writer_.write(buf.data(), f, cport, ext(f.flow));
      std::fwrite(buf.data(), 1, len, out);
    };
    if (opt_.workload == Workload::kConnChurn) {
      // The engine's draws in its order, slots served round-robin.
      const u32 slots = shape_.slots;
      std::vector<ConnState> conn(slots);
      Rng crng(opt_.seed ^ kSaltChurn);
      std::vector<u32> base(slots);
      std::vector<u32> count(slots, 0);
      for (u32& b : base) b = crng.below(64000);
      u64 emitted = 0;
      for (u32 s = 0; emitted < frames; s = (s + 1) % slots) {
        ConnState& c = conn[s];
        if (c.round == 0 && c.data == 0) {
          c.data = static_cast<u8>(draw_segments(crng));
          c.cseq = static_cast<u32>(crng.next());
          c.sseq = static_cast<u32>(crng.next());
          c.cport = churn_port(base[s], count[s]++);
        }
        Frame frames_out[kMaxRound];
        u32 n = 0;
        script_round(Script::kChurn, s, c, [&](const Frame& f) { frames_out[n++] = f; });
        for (u32 i = 0; i < n && emitted < frames; ++i, ++emitted) {
          frames_out[i].ts = emitted * 100;
          put(frames_out[i], c.cport);
        }
        if (++c.round == script_rounds(Script::kChurn)) c = ConnState{};
      }
      return;
    }
    StreamGen gen(opt_.workload, opt_.seed, flows_);
    for (u64 i = 0; i < frames; ++i) {
      Frame f;
      gen.next(f);
      f.ts = i * 100;
      put(f, flows_[f.flow].cport);
    }
  }

 private:
  // --- connection engine (driver side) ---
  void engine_reset(Script script, u64 seed) {
    script_ = script;
    engine_rng_ = Rng(seed);
    slot_base_.assign(shape_.slots, 0);
    slot_conns_.assign(shape_.slots, 0);
    for (u32& b : slot_base_) b = engine_rng_.below(64000);
    conn_.assign(std::max(shape_.flows, shape_.slots), ConnState{});
    free_.clear();
    if (script == Script::kChurn) {
      for (u32 s = shape_.slots; s-- > 0;) free_.push_back(s);
    }
    // Room for a full round (at most kMaxRound frames) of every connection
    // that can be open at once.
    const u32 open_max = script == Script::kOpen ? kSetupWindow : shape_.slots;
    queue_.assign(std::bit_ceil<std::size_t>(std::size_t{open_max} * kMaxRound), Frame{});
    qhead_ = qtail_ = 0;
    active_ = 0;
    conns_done_ = 0;
    next_open_ = 0;
  }

  void push_frame(const Frame& f) {
    queue_[qtail_++ & (queue_.size() - 1)] = f;
  }

  void release_round(u32 slot, u64 ts) {
    ConnState& c = conn_[slot];
    const u64 first = qtail_;
    const u32 n = script_round(script_, slot, c, [&](const Frame& f) { push_frame(f); });
    for (u64 i = first; i < qtail_; ++i) queue_[i & (queue_.size() - 1)].ts = ts;
    SlotShared& s = in_->sink.slot(slot);
    // Published before any packet of the round is injected (the rx ring
    // push orders it before the sink's read).
    s.target.store(s.target.load(std::memory_order_relaxed) + n,
                   std::memory_order_release);
  }

  void open_conn(u32 slot, u64 ts) {
    ConnState& c = conn_[slot];
    c = ConnState{};
    if (script_ == Script::kOpen) {
      c.cport = flows_[slot].cport;
    } else {
      c.data = static_cast<u8>(draw_segments(engine_rng_));
      c.cport = churn_port(slot_base_[slot], slot_conns_[slot]++);
    }
    c.cseq = static_cast<u32>(engine_rng_.next());
    c.sseq = static_cast<u32>(engine_rng_.next());
    in_->sink.mapping(slot).store(c.cport, std::memory_order_relaxed);
    ++active_;
    release_round(slot, ts);
  }

  /// A slot's round completed: release the next one or finish.
  void complete(u32 slot) {
    ConnState& c = conn_[slot];
    if (++c.round < script_rounds(script_)) {
      release_round(slot, in_->sink.slot(slot).done_at.load(std::memory_order_relaxed));
      return;
    }
    --active_;
    ++conns_done_;
    if (script_ == Script::kChurn) free_.push_back(slot);
  }

  void poll_completions() {
    for (u32 w = 0; w < kCores; ++w) {
      u32 slot;
      while (in_->sink.ring(w).pop(slot)) complete(slot);
    }
  }

  /// Allocate up to `n` packets, fill them with frames taken by `next`, and
  /// inject them.
  template <class Next>
  void send_burst(PhaseStats& ps, u32 n, u8 tag, Next&& next) {
    net::Packet* pkts[kBurst];
    const u64 t0 = traced_ ? now_ns() : 0;
    const u32 got = pool_.alloc_bulk({pkts, n});
    const u64 t1 = traced_ ? now_ns() : 0;
    if (got < n) ++ps.empty_allocs;
    // The buffers come back cold from the workers: start every line fill
    // of the burst before writing any frame.
    for (u32 i = 0; i < got; ++i) {
      __builtin_prefetch(pkts[i]->data(), 1);
      __builtin_prefetch(pkts[i]->data() + 59, 1);  // a minimum frame's last byte
    }
    for (u32 i = 0; i < got; ++i) {
      Frame f;
      u32 cport;
      next(f, cport);
      f.tag = static_cast<u8>(f.tag | tag);
      const u16 ext = static_cast<u16>(
          in_->sink.mapping(f.flow).load(std::memory_order_relaxed) >> 16);
      pkts[i]->set_len(writer_.write(pkts[i]->data(), f, cport, ext, /*resident=*/true));
      pkts[i]->ingress_port = f.dir == Dir::kC2S ? 0 : 1;
    }
    const u64 t2 = traced_ ? now_ns() : 0;
    const u32 acc = got > 0 ? in_->mbox->inject_bulk({pkts, got}) : 0;
    if (traced_) {
      const u64 t3 = now_ns();
      spans_.add(kAlloc, t0, t1, got);
      spans_.add(kGen, t1, t2, got);
      spans_.add(kInject, t2, t3, got);
      if (got > 0) ps.inject_calls.emplace_back(t3 - t2, got);
    }
    ps.offered += got;
    ps.accepted += acc;
    offered_total_ += got;
    if ((tag & kTagMeasured) != 0) ps.measured_offered += got;
  }

  struct Windows {
    u64 next = 0;
    u64 start_t = 0;
    u64 start_d = 0;
  };
  void tick_window(PhaseStats& ps, Windows& w, u64 now) {
    if (window_s_ <= 0 || now < w.next) return;
    const u64 d = in_->sink.delivered();
    if (w.start_t != 0) {
      ps.window_mpps.push_back(static_cast<double>(d - w.start_d) * 1e3 /
                               static_cast<double>(now - w.start_t));
    }
    w.start_t = now;
    w.start_d = d;
    w.next = now + static_cast<u64>(window_s_ * 1e9);
  }

  void run_stream(PhaseStats& ps, double seconds, double rate, bool measured) {
    const u64 start = now_ns();
    const u64 end = start + static_cast<u64>(seconds * 1e9);
    const u8 tag = measured ? kTagMeasured : 0;
    const double ns_per_pkt = rate > 0 ? 1e9 / rate : 0;
    u64 sent = 0;
    Windows win;
    u64 now = start;
    while (now < end) {
      u32 n = kBurst;
      if (rate > 0) {
        // Packet i is due at start + i * ns_per_pkt.
        const u64 due = static_cast<u64>(static_cast<double>(now - start) / ns_per_pkt) + 1;
        n = static_cast<u32>(std::min<u64>(kBurst, due - std::min(due, sent)));
      }
      if (n > 0) {
        const u64 base = start - epoch_;
        send_burst(ps, n, tag, [&](Frame& f, u32& cport) {
          stream_->next(f);
          f.ts = rate > 0 ? base + static_cast<u64>(static_cast<double>(sent) * ns_per_pkt)
                          : now - epoch_;
          if (rate > 0) ps.lag.add(now - epoch_ - std::min(now - epoch_, f.ts));
          cport = flows_[f.flow].cport;
          ++sent;
        });
      }
      // Idle iterations just re-read the clock: a PAUSE-based spin can make
      // a hypervisor deschedule this vCPU (pause-loop exiting).
      now = now_ns();
      tick_window(ps, win, now);
    }
  }

  void run_engine(PhaseStats& ps, double seconds, double rate, bool measured,
                  bool until_idle) {
    const u64 start = now_ns();
    const u64 end = start + static_cast<u64>(seconds * 1e9);
    const u8 tag = measured ? kTagMeasured : 0;
    // Open loop: connections arrive at rate / packets-per-connection.
    const double conn_ns = rate > 0 ? 1e9 * conn_packets_ / rate : 0;
    u64 arrivals = 0;
    Windows win;
    u64 now = start;
    while (now < end) {
      const u64 tp = traced_ ? now_ns() : 0;
      poll_completions();
      if (rate > 0) {
        const u64 due = static_cast<u64>(static_cast<double>(now - start) / conn_ns) + 1;
        while (arrivals < due && !free_.empty() && opens_left_ > 0) {
          const u64 ts = start - epoch_ +
                         static_cast<u64>(static_cast<double>(arrivals) * conn_ns);
          const u32 slot = free_.back();
          free_.pop_back();
          open_conn(slot, ts);
          ++arrivals;
          --opens_left_;
        }
      } else if (script_ == Script::kOpen) {
        // Set-up: every session once, with few enough handshakes in flight
        // that no rx ring nears its capacity.
        while (opens_left_ > 0 && active_ < kSetupWindow) {
          open_conn(next_open_++, now - epoch_);
          --opens_left_;
        }
      } else {
        while (opens_left_ > 0 && !free_.empty()) {
          const u32 slot = free_.back();
          free_.pop_back();
          open_conn(slot, now - epoch_);
          --opens_left_;
        }
      }
      if (traced_) spans_.add(kPoll, tp, now_ns(), 0);
      const u64 queued = qtail_ - qhead_;
      if (queued > 0) {
        const u32 n = static_cast<u32>(std::min<u64>(kBurst, queued));
        send_burst(ps, n, tag, [&](Frame& f, u32& cport) {
          f = queue_[qhead_++ & (queue_.size() - 1)];
          cport = conn_[f.flow].cport;
          if (rate > 0) ps.lag.add(now - epoch_ - std::min(now - epoch_, f.ts));
        });
      } else {
        if (until_idle && active_ == 0 && opens_left_ == 0) break;
      }
      now = now_ns();
      tick_window(ps, win, now);
      if (in_->nat.port_pool().claimed() > ports_peak_) {
        ports_peak_ = in_->nat.port_pool().claimed();
      }
    }
  }

  const Options& opt_;
  net::PacketPool& pool_;
  u64 epoch_;
  FrameWriter writer_;
  WorkloadShape shape_;
  double conn_packets_;  // mean packets per churn connection
  Instance* in_ = nullptr;
  std::vector<FlowSeq> flows_;
  std::unique_ptr<StreamGen> stream_;
  bool traced_ = false;
  double window_s_ = 0;
  SpanLog spans_;
  std::vector<std::string> errors_;
  u64 offered_total_ = 0;
  u64 ports_peak_ = 0;

  Script script_ = Script::kOpen;
  Rng engine_rng_{0};
  std::vector<u32> slot_base_;
  std::vector<u32> slot_conns_;
  std::vector<ConnState> conn_;
  std::vector<u32> free_;
  std::vector<Frame> queue_;
  u64 qhead_ = 0;
  u64 qtail_ = 0;
  u64 active_ = 0;
  u64 conns_done_ = 0;
  u64 opens_left_ = 0;
  u32 next_open_ = 0;
};

// --- checks -------------------------------------------------------------------------
/// Quiescent invariants of one instance: conservation over its whole life,
/// lossless mesh, and correct translations.
void check_instance(Instance& in, Driver& drv, u64 offered_before, const char* what) {
  in.mbox->wait_idle();
  const u64 offered = drv.offered_total() - offered_before;
  const auto st = in.mbox->total_stats();
  const u64 delivered = in.sink.delivered();
  const u64 shed = in.mbox->rx_ring_drops();
  const u64 nf_drops = st.nf_drops.load();
  const u64 mesh_drops = st.transfer_drops.load();
  if (offered != delivered + shed + nf_drops + mesh_drops) {
    drv.fail(std::string(what) + ": conservation offered=" + std::to_string(offered) +
             " delivered=" + std::to_string(delivered) + " shed=" + std::to_string(shed) +
             " nf_drops=" + std::to_string(nf_drops) +
             " mesh_drops=" + std::to_string(mesh_drops));
  }
  if (mesh_drops != 0 || in.mbox->pending_transfers() != 0) {
    drv.fail(std::string(what) + ": mesh transfer_drops=" + std::to_string(mesh_drops) +
             " pending=" + std::to_string(in.mbox->pending_transfers()));
  }
  u64 nat_errors = 0;
  u64 csum_errors = 0;
  for (u32 w = 0; w < kCores; ++w) {
    nat_errors += in.sink.tally(w).nat_errors;
    csum_errors += in.sink.tally(w).csum_errors;
  }
  if (nat_errors != 0) {
    drv.fail(std::string(what) + ": " + std::to_string(nat_errors) +
             " delivered packets with a wrong NAT translation");
  }
  if (csum_errors != 0) {
    drv.fail(std::string(what) + ": " + std::to_string(csum_errors) +
             " delivered packets with a bad checksum");
  }
}

/// Low-rate pass: every packet offered must be delivered, with valid
/// checksums (the sink verifies them during this pass).
void low_rate_pass(Instance& in, Driver& drv, double seconds, double rate) {
  in.mbox->wait_idle();
  const u64 d0 = in.sink.delivered();
  const u64 offered0 = drv.offered_total();
  in.sink.set_verify(true);
  (void)drv.run(seconds, rate, false, false);
  if (!drv.drain(2.0)) drv.fail("low-rate pass: connections did not finish");
  in.mbox->wait_idle();
  in.sink.set_verify(false);
  const u64 delivered = in.sink.delivered() - d0;
  const u64 offered = drv.offered_total() - offered0;
  if (delivered != offered) {
    drv.fail("low-rate pass delivered " + std::to_string(delivered) + " of " +
             std::to_string(offered));
  }
}

/// The q-quantile of `v`, interpolating between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

// Window estimators. A co-tenant of the host can only take time away from
// the benchmark's vCPUs: it lowers a window's delivered rate and raises its
// latencies, never the reverse. So the figures take the quartile of the
// windows on the side the host cannot push toward: a real change of the
// program moves every window, undisturbed ones included, while a noisy
// spell that spoils up to three windows in four does not move the figure.
double rate_estimate(std::vector<double> windows) { return quantile(std::move(windows), 0.75); }
double latency_estimate(std::vector<double> windows) {
  return quantile(std::move(windows), 0.25);
}

/// Peak resident set size of this process, in KiB.
u64 peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<u64>(ru.ru_maxrss);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Live-entry and port accounting after the last connection closed and
/// TIME_WAIT plus a full sweep rotation have passed.
struct LeakReport {
  u64 leaked_entries = 0;
  u64 ports_leaked = 0;
};

LeakReport settle_and_count(Instance& in, Driver& drv) {
  if (!drv.drain(3.0)) {
    drv.fail(std::to_string(drv.stuck_connections()) + " connections never completed");
  }
  in.mbox->wait_idle();
  // NAT TIME_WAIT plus a full sweep rotation (8 housekeeping ticks of
  // 10 ms), with margin.
  std::this_thread::sleep_for(std::chrono::milliseconds(kNatTimeWait / kMillisecond + 200));
  in.mbox->wait_idle();
  LeakReport r;
  const u64 live = in.live_entries();
  const u64 expected = drv.open_sessions() * 3;  // 2 NAT + 1 monitor entries
  r.leaked_entries = live - std::min(live, expected);
  const u64 claimed = in.nat.port_pool().claimed();
  r.ports_leaked = claimed - std::min<u64>(claimed, drv.open_sessions());
  return r;
}

void write_spans(const Options& opt, const char* who, const SpanLog& log) {
  if (opt.out.empty()) return;
  const std::string path = opt.out + "/spans-" + opt.workload_name + "-" + who + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "span,start_ns,dur_ns,packets\n");
  for (const Span& s : log.spans()) {
    std::fprintf(f, "%s,%llu,%u,%u\n", kSpanNames[s.kind],
                 static_cast<unsigned long long>(s.start), s.dur, s.n);
  }
  std::fclose(f);
}

/// Window length that splits a measured interval into at most
/// kLatWindows - 1 latency windows of at least 0.25 s.
u64 latency_window_ns(double seconds) {
  return static_cast<u64>(std::max(0.25, seconds / (kLatWindows - 1)) * 1e9);
}

struct LatencySummary {
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  u64 samples = 0;
};

/// Per-window percentiles of measured intervals, for latency_estimate().
struct LatencyWindows {
  std::vector<double> p50s;
  std::vector<double> p90s;

  /// Add one quiescent sink's windows; returns that interval's summary
  /// (p99 over every sample).
  LatencySummary add(Sink& sink) {
    LatHist all;
    std::vector<double> own50;
    std::vector<double> own90;
    for (u32 win = 0; win < kLatWindows; ++win) {
      LatHist h;
      for (u32 w = 0; w < kCores; ++w) h.merge(sink.tally(w).lat[win]);
      all.merge(h);
      if (h.count() >= 1000) {
        own50.push_back(h.quantile(0.50));
        own90.push_back(h.quantile(0.90));
      }
    }
    if (own50.empty() && all.count() > 0) {
      own50.push_back(all.quantile(0.50));
      own90.push_back(all.quantile(0.90));
    }
    p50s.insert(p50s.end(), own50.begin(), own50.end());
    p90s.insert(p90s.end(), own90.begin(), own90.end());
    LatencySummary s;
    s.samples = all.count();
    s.p50_us = latency_estimate(own50) * 1e-3;
    s.p90_us = latency_estimate(own90) * 1e-3;
    s.p99_us = all.quantile(0.99) * 1e-3;
    return s;
  }
};

// --- the two kinds of run --------------------------------------------------------------
struct Result {
  std::vector<Metric> metrics;
  u64 attempted = 0;
  u64 failed = 0;
};

/// Closed-loop saturation throughput of a kBlock instance: a discarded
/// warm-up, then the rate estimate over fixed windows. `lost` counts the
/// measured interval's packets the chain dropped or the rx rings shed.
double measure_throughput(Instance& in, Driver& drv, double warm_s, double measure_s,
                          bool traced, PhaseStats* out = nullptr, u64* lost = nullptr) {
  (void)drv.run(warm_s, 0, false, false);
  auto dropped = [&] {
    return in.mbox->total_stats().nf_drops.load() + in.mbox->rx_ring_drops();
  };
  const u64 d0 = dropped();
  PhaseStats ps = drv.run(measure_s, 0, false, traced, 0.25);
  in.mbox->wait_idle();
  if (lost != nullptr) *lost = dropped() - d0;
  const double mpps = rate_estimate(ps.window_mpps);
  if (out != nullptr) *out = std::move(ps);
  return mpps;
}

Result run_end_to_end(const Options& opt, const Placement& place, Driver& drv) {
  Result r;
  const double S = opt.seconds;
  // Set-up is timed on every instance; set-up-only instances make its
  // median steady.
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    std::unique_ptr<Instance> in;
    setups.push_back(drv.setup(in, place, false));
  }
  // Rounds of a fresh throughput instance and a fresh latency instance:
  // figures pool the windows of all rounds, so one instance's memory
  // layout or a slow spell of the host weighs on a quarter of them.
  constexpr int kRounds = 4;
  std::vector<double> thr_windows;
  LatencyWindows lat;
  std::string rounds;
  for (int round = 0; round < kRounds; ++round) {
    double thr = 0;
    {
      // Throughput: lossless admission, closed loop.
      std::unique_ptr<Instance> in;
      const u64 before = drv.offered_total();
      setups.push_back(drv.setup(in, place, false));
      PhaseStats ps;
      u64 lost = 0;
      thr = measure_throughput(*in, drv, 0.02 * S, 0.09 * S, false, &ps, &lost);
      thr_windows.insert(thr_windows.end(), ps.window_mpps.begin(), ps.window_mpps.end());
      r.attempted += ps.offered;
      r.failed += lost;
      check_instance(*in, drv, before, "throughput instance");
    }
    {
      // Latency: lossless admission, open loop at the frozen rate.
      std::unique_ptr<Instance> in;
      const u64 before = drv.offered_total();
      setups.push_back(drv.setup(in, place, false));
      low_rate_pass(*in, drv, 0.01 * S, opt.rate_pps / 20);
      (void)drv.run(0.01 * S, opt.rate_pps, false, false);
      in->mbox->wait_idle();
      const double measure_s = 0.09 * S;
      in->sink.reset_measurement(latency_window_ns(measure_s));
      const PhaseStats ps = drv.run(measure_s, opt.rate_pps, true, false);
      if (!drv.drain(3.0)) drv.fail("latency instance: connections did not finish");
      in->mbox->wait_idle();
      const LatencySummary ls = lat.add(in->sink);
      r.attempted += ps.measured_offered;
      r.failed += ps.measured_offered - std::min(ps.measured_offered, ls.samples);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"throughput_mpps\":%.4f,\"p50_us\":%.3f,\"p90_us\":%.3f,"
                    "\"p99_us\":%.3f,\"samples\":%llu,\"lag_p99_us\":%.3f,\"shed\":%llu}",
                    rounds.empty() ? "" : ",", thr, ls.p50_us, ls.p90_us, ls.p99_us,
                    static_cast<unsigned long long>(ls.samples), ps.lag.quantile(0.99) * 1e-3,
                    static_cast<unsigned long long>(ps.offered - ps.accepted));
      rounds += buf;
      check_instance(*in, drv, before, "latency instance");
    }
  }
  std::printf("{\"rounds\":[%s],\"rate_pps\":%.0f}\n", rounds.c_str(), opt.rate_pps);
  r.metrics = {
      {"throughput_mpps", rate_estimate(thr_windows), "Mpps"},
      {"latency_p50_us", latency_estimate(lat.p50s) * 1e-3, "us"},
      {"latency_p90_us", latency_estimate(lat.p90s) * 1e-3, "us"},
      {"setup_s", quantile(setups, 0.5), "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB"},
  };
  return r;
}

/// Per-layer ledger: an untraced and a traced closed-loop interval (the
/// traced one with driver/TX spans and the framework's sampled path
/// tracer), then a traced open-loop interval at the frozen rate.
Result run_traced(const Options& opt, net::PacketPool& pool, const Placement& place,
                  Driver& drv) {
  Result r;
  std::map<std::string, std::pair<double, std::string>> m;
  auto put = [&](const std::string& name, double v, const char* unit) {
    m[name] = {v, unit};
  };
  const double S = opt.seconds;
  double untraced = 0;
  {
    std::unique_ptr<Instance> in;
    const u64 before = drv.offered_total();
    (void)drv.setup(in, place, false);
    untraced = measure_throughput(*in, drv, 0.05 * S, 0.2 * S, false);
    check_instance(*in, drv, before, "untraced throughput instance");
  }
  {
    std::unique_ptr<Instance> in;
    const u64 before = drv.offered_total();
    (void)drv.setup(in, place, true);
    u64 occupancy = in->live_entries();
    (void)drv.run(0.05 * S, 0, false, false);
    in->mbox->wait_idle();
    in->sink.reset_measurement();
    drv.reserve_spans();
    drv.reset_spans();
    const Sample a = sample(*in, pool);
    PhaseStats ps;
    const double traced = measure_throughput(*in, drv, 0.0, 0.2 * S, true, &ps);
    const Sample b = sample(*in, pool);
    occupancy = std::max(occupancy, in->live_entries());
    put("telemetry.trace_overhead_ratio", 1.0 - ratio(traced, untraced), "ratio");

    // Driver ledger: timed calls + untimed share = elapsed.
    const SpanLog& sp = drv.spans();
    const double elapsed = static_cast<double>(b.t - a.t);
    const double pkts = static_cast<double>(ps.offered);
    put("gen.ns_per_pkt", ratio(static_cast<double>(sp.total(kGen)), pkts), "ns");
    put("net.pool.alloc_ns_per_pkt", ratio(static_cast<double>(sp.total(kAlloc)), pkts), "ns");
    put("core.inject.ns_per_pkt", ratio(static_cast<double>(sp.total(kInject)), pkts), "ns");
    const double timed = static_cast<double>(sp.total(kGen) + sp.total(kAlloc) +
                                             sp.total(kInject) + sp.total(kPoll));
    put("core.driver.untimed_share", 1.0 - ratio(timed, elapsed), "ratio");
    // Block share: inject time above the unblocked per-packet cost (the
    // 10th percentile over calls), over all inject time.
    {
      std::vector<double> per;
      for (const auto& [ns, n] : ps.inject_calls) per.push_back(static_cast<double>(ns) / n);
      std::sort(per.begin(), per.end());
      const double c0 = per.empty() ? 0 : per[per.size() / 10];
      double blocked = 0;
      double total = 0;
      for (const auto& [ns, n] : ps.inject_calls) {
        total += static_cast<double>(ns);
        blocked += std::max(0.0, static_cast<double>(ns) - c0 * n);
      }
      const bool spun = delta(a.snap, b.snap, "driver.block_spins") > 0;
      put("core.inject.block_share", spun ? ratio(blocked, total) : 0.0, "ratio");
    }
    put("net.pool.empty_allocs", static_cast<double>(ps.empty_allocs), "count");
    {
      const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
      const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
      const double locked = static_cast<double>(b.cache.locked - a.cache.locked);
      put("net.pool.magazine_miss_ratio", ratio(misses, hits + misses + locked), "ratio");
    }
    // Worker side: TX handler spans.
    double free_ns = 0;
    double freed = 0;
    double tx_ns = 0;
    double tx_batches = 0;
    for (u32 w = 0; w < kCores; ++w) {
      const SpanLog& ws = in->sink.tally(w).spans;
      free_ns += static_cast<double>(ws.total(kFree));
      freed += static_cast<double>(ws.count(kFree));
      tx_ns += static_cast<double>(ws.total(kTx));
      tx_batches += static_cast<double>(ws.count(kTx));
      write_spans(opt, w == 0 ? "worker0" : "worker1", ws);
    }
    write_spans(opt, "driver", sp);
    put("net.pool.free_ns_per_pkt", ratio(free_ns, freed), "ns");
    put("core.worker.tx_ns_per_batch", ratio(tx_ns, tx_batches), "ns");
    const auto* steer = b.snap.find_histogram("trace.steer_ns");
    put("core.inject.steer_ns_p50", steer ? static_cast<double>(steer->merged.p50()) : 0, "ns");
    const auto* nf_ns = b.snap.find_histogram("trace.nf_ns");
    put("core.worker.nf_ns_p50", nf_ns ? static_cast<double>(nf_ns->merged.p50()) : 0, "ns");
    put("core.worker.nf_ns_p99", nf_ns ? static_cast<double>(nf_ns->merged.p99()) : 0, "ns");
    const double batches = static_cast<double>(delta(a.snap, b.snap, "worker.batches"));
    put("core.worker.batch_mean",
        ratio(static_cast<double>(delta(a.snap, b.snap, "worker.packets")), batches), "count");
    double rx_max = 0;
    double rx_min = 0;
    double rx = 0;
    double transferred = 0;
    double retries = 0;
    for (u32 c = 0; c < kCores; ++c) {
      const double v = static_cast<double>(b.per_core[c].rx_packets.load() -
                                           a.per_core[c].rx_packets.load());
      rx_max = c == 0 ? v : std::max(rx_max, v);
      rx_min = c == 0 ? v : std::min(rx_min, v);
      rx += v;
      transferred += static_cast<double>(b.per_core[c].conn_transferred_out.load() -
                                         a.per_core[c].conn_transferred_out.load());
      retries += static_cast<double>(b.per_core[c].transfer_retries.load() -
                                     a.per_core[c].transfer_retries.load());
    }
    put("core.worker.rx_imbalance", ratio(rx_max, rx_min), "ratio");
    put("core.mesh.redirect_share", ratio(transferred, rx), "ratio");
    put("core.mesh.retry_share", ratio(retries, transferred), "ratio");
    put("core.mesh.pending_hwm",
        static_cast<double>(b.snap.value("engine.transfer_pending_hwm")), "count");
    put("state.remote_read_share",
        ratio(static_cast<double>(b.remote_reads - a.remote_reads),
              static_cast<double>(b.reads - a.reads)),
        "ratio");
    for (u32 h = 0; h < in->mbox->num_hops(); ++h) {
      const std::string prefix =
          "chain.h" + std::to_string(h) + "." + in->mbox->chain().hop(h).name();
      const double hp = static_cast<double>(delta(a.snap, b.snap, prefix + ".packets"));
      const std::string out = "chain.h" + std::to_string(h);
      put(out + ".ns_per_pkt",
          ratio(static_cast<double>(delta(a.snap, b.snap, prefix + ".ns")), hp), "ns");
      put(out + ".drop_ratio",
          ratio(static_cast<double>(delta(a.snap, b.snap, prefix + ".drops")), hp), "ratio");
    }
    put("flow_table.occupancy", static_cast<double>(occupancy), "count");
    check_instance(*in, drv, before, "traced throughput instance");
  }
  {
    std::unique_ptr<Instance> in;
    const u64 before = drv.offered_total();
    (void)drv.setup(in, place, true);
    low_rate_pass(*in, drv, 0.05 * S, opt.rate_pps / 20);
    (void)drv.run(0.05 * S, opt.rate_pps, false, false);
    in->mbox->wait_idle();
    in->sink.reset_measurement(latency_window_ns(0.2 * S));
    const Sample a = sample(*in, pool);
    const PhaseStats ps = drv.run(0.2 * S, opt.rate_pps, true, false);
    in->mbox->wait_idle();
    const Sample b = sample(*in, pool);
    u64 measured = 0;
    for (u32 w = 0; w < kCores; ++w) measured += in->sink.tally(w).measured;
    const u64 lost = ps.measured_offered - std::min(ps.measured_offered, measured);
    r.attempted = ps.measured_offered;
    r.failed = lost;
    put("loss_ratio", ratio(static_cast<double>(lost), static_cast<double>(ps.measured_offered)),
        "ratio");
    put("latency.samples", static_cast<double>(measured), "count");
    put("latency.p99_us", LatencyWindows{}.add(in->sink).p99_us, "us");
    put("gen.lag_p99_us", ps.lag.quantile(0.99) * 1e-3, "us");
    put("core.inject.shed_ratio",
        ratio(static_cast<double>(b.shed - a.shed), static_cast<double>(ps.offered)), "ratio");
    const auto* queue = b.snap.find_histogram("trace.queue_ns");
    put("runtime.rx_ring.wait_ns_p50", queue ? static_cast<double>(queue->merged.p50()) : 0, "ns");
    put("runtime.rx_ring.wait_ns_p99", queue ? static_cast<double>(queue->merged.p99()) : 0, "ns");
    put("runtime.rx_ring.hwm", static_cast<double>(b.snap.value("rx_ring.occupancy_hwm")), "count");
    put("runtime.mesh_ring.hwm", static_cast<double>(b.snap.value("mesh_ring.occupancy_hwm")),
        "count");
    const LeakReport leak = settle_and_count(*in, drv);
    const auto snap = in->mbox->telemetry_snapshot();
    u64 sweep_p99 = 0;
    u64 expired = 0;
    for (u32 h = 0; h < in->mbox->num_hops(); ++h) {
      const std::string prefix =
          "chain.h" + std::to_string(h) + "." + in->mbox->chain().hop(h).name();
      if (const auto* hs = snap.find_histogram(prefix + ".sweep_ns")) {
        sweep_p99 = std::max(sweep_p99, hs->merged.p99());
      }
      expired += snap.value(prefix + ".expired");
    }
    put("flow_table.sweep_ns_p99", static_cast<double>(sweep_p99), "ns");
    put("flow_table.expired", static_cast<double>(expired), "count");
    put("flow_table.leaked_after_close", static_cast<double>(leak.leaked_entries), "count");
    const auto nat = in->nat.counters();
    const auto mon = in->monitor.aggregate();
    put("nf.nat.unmatched_dropped", static_cast<double>(nat.unmatched_dropped), "count");
    put("nf.nat.ports_claimed_peak", static_cast<double>(drv.ports_claimed_peak()), "count");
    put("nf.nat.ports_leaked", static_cast<double>(leak.ports_leaked), "count");
    put("nf.table_full", static_cast<double>(nat.table_full + mon.table_full), "count");
    check_instance(*in, drv, before, "traced latency instance");
  }
  for (auto& [name, v] : m) r.metrics.push_back({name, v.first, v.second});
  return r;
}

Workload parse_workload(const std::string& s) {
  if (s == "elephant") return Workload::kElephant;
  if (s == "many_flows") return Workload::kManyFlows;
  if (s == "conn_churn") return Workload::kConnChurn;
  std::fprintf(stderr, "unknown workload '%s'\n", s.c_str());
  std::exit(2);
}

/// `rates` is "name=kpps,name=kpps,..."; returns the workload's rate in pps.
double parse_rate(const std::string& rates, const std::string& workload) {
  std::size_t pos = 0;
  while (pos < rates.size()) {
    const std::size_t comma = rates.find(',', pos);
    const std::string item = rates.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq != std::string::npos && item.substr(0, eq) == workload) {
      return std::stod(item.substr(eq + 1)) * 1e3;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  std::fprintf(stderr, "no latency rate for workload '%s'\n", workload.c_str());
  std::exit(2);
}

int run(int argc, char** argv) {
  const CliConfig cli(argc, argv);
  Options opt;
  opt.workload_name = cli.get("workload", "");
  opt.workload = parse_workload(opt.workload_name);
  opt.seed = cli.get_u64("seed", 1);
  opt.seconds = cli.get_double("seconds", 10);
  opt.trace = cli.get_u64("trace", 0) != 0;
  opt.out = cli.get("out", "");
  const u64 epoch = now_ns();

  if (cli.has("dump")) {
    net::PacketPool pool(2, 256);
    Driver drv(opt, pool, epoch);
    std::FILE* f = std::fopen(cli.get("dump_path", "").c_str(), "wb");
    if (f == nullptr) return 2;
    drv.dump(cli.get_u64("dump", 1000), f);
    std::fclose(f);
    return 0;
  }
  opt.rate_pps = parse_rate(cli.get("rates", ""), opt.workload_name);

  const Placement place = Placement::detect();
  net::PacketPool pool(kPoolPackets, net::PacketPool::kDefaultBufferSize);
  {
    // Fault the pool's pages in before anything is timed, and lay the
    // payload pattern into every buffer once: frames then write headers and
    // stamp only, and no stage of the chain writes a payload byte. (A
    // per-frame payload copy would make the driver's memory bandwidth, which
    // co-tenants of the host share, the elephant workload's bottleneck.)
    std::vector<net::Packet*> all(kPoolPackets);
    const u32 got = pool.alloc_bulk(all);
    const FrameWriter writer(opt.seed);
    for (u32 i = 0; i < got; ++i) writer.prefill(all[i]->data());
    net::free_packets({all.data(), got});
  }
  if (place.driver >= 0) Placement::pin_self({place.driver});
  std::printf("{\"info\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.3f,\"trace\":%d,"
              "\"cores\":%u,\"placement\":%s}}\n",
              opt.workload_name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, kCores, place.describe().c_str());
  std::fflush(stdout);

  Driver drv(opt, pool, epoch);
  const Result r = opt.trace ? run_traced(opt, pool, place, drv)
                             : run_end_to_end(opt, place, drv);
  if (pool.available() != pool.size()) {
    drv.fail("packet pool leak: " + std::to_string(pool.size() - pool.available()) +
             " packets not returned");
  }
  for (const auto& e : drv.errors()) std::fprintf(stderr, "self-check failed: %s\n", e.c_str());
  const bool correct = drv.errors().empty();
  std::string metrics;
  for (const auto& mt : r.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", mt.name.c_str(), mt.value, mt.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
