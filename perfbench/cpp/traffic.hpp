// Seeded traffic for the repo benchmark: flow addressing, frame writing,
// and the per-workload packet generators.
//
// Every frame is a valid Ethernet/IPv4/TCP segment whose payload starts
// with a 6-byte stamp (40-bit send time in ns since the run epoch, then a
// tag byte). No NF reads the payload; the TX sink reads the stamp back.
// Frames are written from a header template plus a seeded payload pattern,
// with the IPv4 and TCP checksums computed per frame, so the sequence
// number and the stamp give every segment its own checksum and therefore
// its own Flow Director spray queue.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/types.hpp"
#include "net/byte_order.hpp"
#include "net/checksum.hpp"
#include "net/headers.hpp"

namespace perfbench {

using sprayer::u16;
using sprayer::u32;
using sprayer::u64;
using sprayer::u8;

// --- addressing -------------------------------------------------------------
// Flow f (0-based) owns client 10.0.0.0 | (f + 1) and server
// 172.16.0.0 | (f + 1), so a delivered packet names its flow by its
// destination address alone: the server address on the way out (after the
// NAT rewrote the source) and the client address on the way back.
constexpr u32 kFlowMask = 0xFFFFF;
constexpr u32 kClientNet = 10u << 24;
constexpr u32 kServerNet = (172u << 24) | (16u << 16);
constexpr u32 kExternalIp = (192u << 24) | (2u << 8) | 1u;  // NatConfig default
constexpr u16 kServerPort = 443;
constexpr u32 kMss = 1460;
constexpr u32 kStampLen = 6;
constexpr u32 kHeadersLen = 54;  // Ethernet + IPv4 + TCP, no options
constexpr u32 kMaxPayload = kMss;

[[nodiscard]] constexpr u32 client_ip(u32 flow) { return kClientNet | (flow + 1); }
[[nodiscard]] constexpr u32 server_ip(u32 flow) { return kServerNet | (flow + 1); }
/// Flow index an address names (out of range when it names none).
[[nodiscard]] constexpr u32 flow_of(u32 addr) { return (addr & kFlowMask) - 1; }

// Stamp tag bits.
constexpr u8 kTagEngine = 0x01;    // counts toward its connection's round
constexpr u8 kTagSyn = 0x02;       // client SYN: the sink records the mapping
constexpr u8 kTagMeasured = 0x04;  // sent inside a measured latency interval

// --- seeded randomness ------------------------------------------------------
// Each generator draws from its own stream: the run's seed xor a salt.
constexpr u64 kSaltPayload = 0x5041594C4F4144ull;
constexpr u64 kSaltStream = 0x53545245414Dull;
constexpr u64 kSaltFlows = 0x464C4F5753ull;
constexpr u64 kSaltChurn = 0x434855524Eull;

/// splitmix64: tiny, fast, identical on every platform.
class Rng {
 public:
  explicit Rng(u64 seed) : s_(seed) {}
  u64 next() {
    u64 z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  u32 below(u32 n) {
    return static_cast<u32>((static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  /// Uniform in (0, 1].
  double unit() { return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53; }

 private:
  u64 s_;
};

// --- frames -----------------------------------------------------------------
enum class Dir : u8 { kC2S, kS2C };

struct Frame {
  u32 flow = 0;
  Dir dir = Dir::kC2S;
  u8 flags = 0;
  u8 tag = 0;
  u16 payload = kStampLen;  // bytes after the TCP header, stamp included
  u32 seq = 0;
  u32 ack = 0;
  u64 ts = 0;  // scheduled send time, ns since the run epoch
};

/// Writes frames into packet buffers: template copy, header fields,
/// payload pattern, stamp, and both checksums.
class FrameWriter {
 public:
  explicit FrameWriter(u64 seed) {
    Rng rng(seed ^ kSaltPayload);
    for (u8& b : pattern_) b = static_cast<u8>(rng.next());
    // Stamp bytes are per frame; the pattern's sum skips them.
    for (u32 len = 0; len <= kMaxPayload; len += 2) {
      // Only even lengths past the stamp are used (6 and kMss).
      if (len >= kStampLen) {
        tail_sum_even_[len / 2] =
            sprayer::net::checksum_partial(pattern_ + kStampLen, len - kStampLen);
      }
    }
    u8* eth = header_;
    const u8 dst_mac[6] = {0x02, 0, 0, 0, 0, 0x02};
    const u8 src_mac[6] = {0x02, 0, 0, 0, 0, 0x01};
    std::memcpy(eth, dst_mac, 6);
    std::memcpy(eth + 6, src_mac, 6);
    sprayer::net::store_be16(eth + 12, 0x0800);
    u8* ip = header_ + 14;
    ip[0] = 0x45;
    sprayer::net::store_be16(ip + 6, 0x4000);  // DF
    ip[8] = 64;
    ip[9] = 6;
    u8* tcp = header_ + 34;
    tcp[12] = 5 << 4;
    sprayer::net::store_be16(tcp + 14, 0xffff);
    ip_const_sum_ = sprayer::net::checksum_partial(ip, 20);
  }

  /// Frame length for a payload size (pads to the 60-byte minimum).
  [[nodiscard]] static u32 frame_len(u32 payload) {
    return std::max<u32>(60, kHeadersLen + payload);
  }

  /// Fill a buffer's payload area past the stamp with the pattern, once:
  /// write(..., resident=true) then leaves those bytes alone.
  void prefill(u8* out) const {
    std::memcpy(out + kHeadersLen + kStampLen, pattern_ + kStampLen,
                kMaxPayload - kStampLen);
  }

  /// Write `f` at `out` (room for frame_len bytes); returns the length.
  /// `ext_port` is the flow's NAT mapping (server-side destination).
  /// `resident`: the buffer was prefill()ed and nothing writes its payload,
  /// so only headers and stamp are written (the payload sum is the same).
  u32 write(u8* out, const Frame& f, u32 cport, u16 ext_port,
            bool resident = false) const {
    using sprayer::net::store_be16;
    using sprayer::net::store_be32;
    const u32 len = frame_len(f.payload);
    std::memcpy(out, header_, kHeadersLen);
    if (!resident) std::memcpy(out + kHeadersLen, pattern_, f.payload);
    u32 src;
    u32 dst;
    u16 sport;
    u16 dport;
    if (f.dir == Dir::kC2S) {
      src = client_ip(f.flow);
      dst = server_ip(f.flow);
      sport = static_cast<u16>(cport);
      dport = kServerPort;
    } else {
      src = server_ip(f.flow);
      dst = kExternalIp;
      sport = kServerPort;
      dport = ext_port;
    }
    // Both checksums are summed from the field values (16-bit big-endian
    // words) rather than read back from the buffer.
    const u64 addr_sum = (src >> 16) + (src & 0xffff) + (dst >> 16) + (dst & 0xffff);
    u8* ip = out + 14;
    const u32 l4_len = 20 + f.payload;
    const u32 ip_len = 20 + l4_len;
    store_be16(ip + 2, static_cast<u16>(ip_len));
    store_be32(ip + 12, src);
    store_be32(ip + 16, dst);
    store_be16(ip + 10, sprayer::net::checksum_fold(ip_const_sum_ + ip_len + addr_sum));
    u8* tcp = out + 34;
    store_be16(tcp, sport);
    store_be16(tcp + 2, dport);
    store_be32(tcp + 4, f.seq);
    store_be32(tcp + 8, f.ack);
    tcp[13] = f.flags;
    u8* stamp = tcp + 20;
    for (int i = 0; i < 5; ++i) {
      stamp[i] = static_cast<u8>(f.ts >> (8 * (4 - i)));
    }
    stamp[5] = f.tag;
    const u64 ts_words = ((f.ts >> 24) & 0xffff) + ((f.ts >> 8) & 0xffff) +
                         (((f.ts & 0xff) << 8) | f.tag);
    const u64 sum = addr_sum + 6 + l4_len + sport + dport + (f.seq >> 16) +
                    (f.seq & 0xffff) + (f.ack >> 16) + (f.ack & 0xffff) +
                    ((5u << 12) | f.flags) + 0xffff /* window */ + ts_words +
                    tail_sum_even_[f.payload / 2];
    store_be16(tcp + 16, sprayer::net::checksum_fold(sum));
    return len;
  }

  /// Read a delivered frame's stamp (TCP header without options).
  static void read_stamp(const u8* tcp, u64& ts, u8& tag) {
    const u8* stamp = tcp + 20;
    ts = 0;
    for (int i = 0; i < 5; ++i) ts = (ts << 8) | stamp[i];
    tag = stamp[5];
  }

 private:
  u8 header_[kHeadersLen] = {};
  u64 ip_const_sum_ = 0;  // IPv4 header words that never change
  u8 pattern_[kMaxPayload] = {};
  u64 tail_sum_even_[kMaxPayload / 2 + 1] = {};
};

// --- workloads ----------------------------------------------------------------
enum class Workload { kElephant, kManyFlows, kConnChurn };

struct WorkloadShape {
  u32 flows;   // long-lived sessions established in set-up (0 for churn)
  u32 slots;   // connection slots the engine drives concurrently
};

[[nodiscard]] inline WorkloadShape shape_of(Workload w) {
  switch (w) {
    case Workload::kElephant: return {1, 1};
    // Half the NAT's 50k ports: every designated core keeps spare matching
    // ports, and 2 NAT + 1 monitor entries per session put each core's hop
    // tables well past a 2 MiB L2.
    case Workload::kManyFlows: return {32768, 4096};
    case Workload::kConnChurn: return {0, 4096};
  }
  return {0, 0};
}

/// Per-flow sequence state of the long-lived flows.
struct FlowSeq {
  u32 cseq = 0;  // next client sequence number
  u32 sseq = 0;  // next server sequence number
  u16 cport = 0;
};

/// The long-lived flows with their seeded client ports; returns the flow
/// stream's generator for what it draws next.
inline Rng seed_flows(std::vector<FlowSeq>& flows, u32 n, u64 seed) {
  flows.assign(n, FlowSeq{});
  Rng rng(seed ^ kSaltFlows);
  for (FlowSeq& f : flows) f.cport = static_cast<u16>(1024 + rng.below(60000));
  return rng;
}

/// Regular traffic over established flows (elephant, many_flows): one
/// call produces the next frame. Sequence numbers advance per segment in
/// each direction.
class StreamGen {
 public:
  StreamGen(Workload w, u64 seed, std::vector<FlowSeq>& flows)
      : w_(w), rng_(seed ^ kSaltStream), flows_(flows) {}

  void next(Frame& f) {
    if (w_ == Workload::kElephant) {
      // MSS segments from the client; a pure ACK from the server every
      // second segment (delayed ACK).
      FlowSeq& s = flows_[0];
      f.flow = 0;
      if (phase_++ % 3 < 2) {
        f.dir = Dir::kC2S;
        f.flags = sprayer::net::TcpFlags::kAck;
        f.payload = kMss;
        f.seq = s.cseq;
        f.ack = s.sseq;
        s.cseq += kMss;
      } else {
        f.dir = Dir::kS2C;
        f.flags = sprayer::net::TcpFlags::kAck;
        f.payload = kStampLen;
        f.seq = s.sseq;
        f.ack = s.cseq;
        s.sseq += kStampLen;
      }
    } else {
      // Minimum-size frames, both directions, flows picked uniformly.
      const u32 flow = rng_.below(static_cast<u32>(flows_.size()));
      FlowSeq& s = flows_[flow];
      f.flow = flow;
      f.dir = (rng_.next() & 1) != 0 ? Dir::kC2S : Dir::kS2C;
      f.flags = sprayer::net::TcpFlags::kAck | sprayer::net::TcpFlags::kPsh;
      f.payload = kStampLen;
      if (f.dir == Dir::kC2S) {
        f.seq = s.cseq;
        f.ack = s.sseq;
        s.cseq += kStampLen;
      } else {
        f.seq = s.sseq;
        f.ack = s.cseq;
        s.sseq += kStampLen;
      }
    }
    f.tag = 0;
  }

 private:
  Workload w_;
  Rng rng_;
  std::vector<FlowSeq>& flows_;
  u64 phase_ = 0;
};

// --- connection scripts ---------------------------------------------------------
// A connection is a list of rounds; a round's segments go out together, and
// the next round is released when the sink has delivered all of them (the
// other endpoint answers what it received). Server rounds are addressed to
// the NAT mapping the sink observed for the client's SYN.
enum class Script : u8 { kOpen, kChurn };

/// Rounds of each script (kChurn's data round has `data` segments).
///   kOpen : SYN | SYN-ACK | ACK
///   kChurn: SYN | SYN-ACK | data x k | ACK | server FIN | client FIN | ACK
/// The server closes first (as HTTP/1.0 servers do), so the client holds no
/// TIME_WAIT and may reuse its port at once.
[[nodiscard]] constexpr u32 script_rounds(Script s) {
  return s == Script::kOpen ? 3 : 7;
}

/// Most frames one round sends (the data round's cap).
constexpr u32 kMaxRound = 32;

/// Heavy-tailed data-segment count: Pareto(alpha 1.3) floored, capped at
/// kMaxRound; P(1) ~ 0.59, P(<=4) ~ 0.88.
[[nodiscard]] inline u32 draw_segments(Rng& rng) {
  const double k = std::floor(std::pow(rng.unit(), -1.0 / 1.3));
  return static_cast<u32>(std::clamp(k, 1.0, double{kMaxRound}));
}

/// Consecutive connections of a churn slot that share one client port.
/// The NAT revives a reused tuple's session from TIME_WAIT; every
/// kTupleReuse-th connection moves to a fresh port, which claims a new NAT
/// port while the old session ages out through the TIME_WAIT sweep. Fresh
/// ports for every connection would need new NAT ports faster than the
/// sweep returns them (it expires at most 256 sessions per core per
/// housekeeping tick), exhausting the pool under closed-loop load.
constexpr u32 kTupleReuse = 16;

[[nodiscard]] inline u16 churn_port(u32 slot_base, u32 conn_index) {
  return static_cast<u16>(1024 + (slot_base + conn_index / kTupleReuse) % 64000);
}

struct ConnState {
  u32 cseq = 0;
  u32 sseq = 0;
  u16 cport = 0;
  u8 round = 0;
  u8 data = 0;  // data segments of this connection
};

/// Append the frames of `round` of connection `c` on flow/slot `flow` to
/// `out`; returns how many.
template <class Out>
u32 script_round(Script s, u32 flow, ConnState& c, Out&& out) {
  using sprayer::net::TcpFlags;
  auto emit = [&](Dir dir, u8 flags, u8 tag) {
    Frame f;
    f.flow = flow;
    f.dir = dir;
    f.flags = flags;
    f.tag = static_cast<u8>(tag | kTagEngine);
    f.payload = kStampLen;
    const bool client = dir == Dir::kC2S;
    f.seq = client ? c.cseq : c.sseq;
    f.ack = client ? c.sseq : c.cseq;
    // SYN and FIN occupy one sequence number; the stamp occupies the rest.
    (client ? c.cseq : c.sseq) +=
        kStampLen + ((flags & (TcpFlags::kSyn | TcpFlags::kFin)) ? 1 : 0);
    out(f);
  };
  const u8 ack = TcpFlags::kAck;
  switch (c.round) {
    case 0: emit(Dir::kC2S, TcpFlags::kSyn, kTagSyn); return 1;
    case 1: emit(Dir::kS2C, TcpFlags::kSyn | ack, 0); return 1;
    case 2:
      if (s == Script::kOpen) {
        emit(Dir::kC2S, ack, 0);
        return 1;
      }
      for (u32 i = 0; i < c.data; ++i) emit(Dir::kC2S, ack | TcpFlags::kPsh, 0);
      return c.data;
    case 3: emit(Dir::kS2C, ack, 0); return 1;
    case 4: emit(Dir::kS2C, TcpFlags::kFin | ack, 0); return 1;
    case 5: emit(Dir::kC2S, TcpFlags::kFin | ack, 0); return 1;
    case 6: emit(Dir::kS2C, ack, 0); return 1;
    default: return 0;
  }
}

/// Mean packets per churn connection (6 control/ack segments plus the
/// data count), estimated from the draw itself for rate conversion.
[[nodiscard]] inline double churn_packets_per_conn() {
  Rng rng(12345);
  double total = 0;
  constexpr int kDraws = 1 << 16;
  for (int i = 0; i < kDraws; ++i) total += 6 + draw_segments(rng);
  return total / kDraws;
}

}  // namespace perfbench
