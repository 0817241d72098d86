// Micro-benchmarks (google-benchmark) of the data-plane primitives: these
// are the host-machine costs of the real code paths, complementing the
// simulator's modeled cycle costs.
#include <benchmark/benchmark.h>

#include <array>

#include "common/rng.hpp"
#include "core/flow_table.hpp"
#include "hash/crc32c.hpp"
#include "hash/toeplitz.hpp"
#include "net/checksum.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_pool.hpp"
#include "nf/aho_corasick.hpp"
#include "runtime/spsc_ring.hpp"
#include "sim/event_queue.hpp"

namespace sprayer {
namespace {

std::vector<u8> random_bytes(std::size_t n, u64 seed = 1) {
  Rng rng(seed);
  std::vector<u8> v(n);
  for (auto& b : v) b = static_cast<u8>(rng.next());
  return v;
}

net::FiveTuple bench_tuple() {
  return {net::Ipv4Addr{10, 1, 2, 3}, net::Ipv4Addr{172, 16, 4, 5}, 40000,
          443, net::kProtoTcp};
}

void BM_InternetChecksum(benchmark::State& state) {
  const auto buf = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(60)->Arg(1514);

void BM_ChecksumIncrementalUpdate(benchmark::State& state) {
  u16 cks = 0x1234;
  u16 field = 1;
  for (auto _ : state) {
    cks = net::checksum_update16(cks, field, static_cast<u16>(field + 1));
    ++field;
    benchmark::DoNotOptimize(cks);
  }
}
BENCHMARK(BM_ChecksumIncrementalUpdate);

void BM_ToeplitzV4L4(benchmark::State& state) {
  const auto t = bench_tuple();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::toeplitz_v4_l4(t, hash::kSymmetricKey));
  }
}
BENCHMARK(BM_ToeplitzV4L4);

void BM_Crc32c(benchmark::State& state) {
  const auto buf = random_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hash::crc32c(std::span<const u8>{buf.data(), buf.size()}));
  }
}
BENCHMARK(BM_Crc32c)->Arg(12)->Arg(64);

void BM_FiveTuplePack(benchmark::State& state) {
  auto t = bench_tuple();
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.canonical().pack());
    t.src_port++;
  }
}
BENCHMARK(BM_FiveTuplePack);

void BM_FlowTableLookupHit(benchmark::State& state) {
  core::FlowTable table(1u << 16, 16, 0);
  Rng rng(3);
  std::vector<net::FiveTuple> keys;
  for (int i = 0; i < 10000; ++i) {
    net::FiveTuple t = bench_tuple();
    t.src_ip = net::Ipv4Addr{static_cast<u32>(rng.next())};
    t.src_port = static_cast<u16>(rng.next());
    keys.push_back(t);
    benchmark::DoNotOptimize(table.insert(t));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find_local(keys[i % keys.size()]));
    ++i;
  }
}
BENCHMARK(BM_FlowTableLookupHit);

// Scalar vs batched lookup sweep over table sizes, from cache-resident to
// well beyond the LLC. Each iteration resolves kLookupBlock random present
// keys; the bulk variant goes through find_batch in NF-batch-sized chunks
// (the two-stage prefetch pipeline), the scalar variant through find_remote
// one key at a time. The interesting regime is the largest sizes, where
// every probe is a DRAM miss unless prefetched.
constexpr u32 kLookupBlock = 4096;
constexpr u32 kBulkChunkSize = 32;

struct LookupSweep {
  core::FlowTable table;
  std::vector<net::FiveTuple> keys;
  std::vector<core::FlowTable::FlowHash> hashes;

  explicit LookupSweep(u32 capacity) : table(capacity, 16, 0) {
    Rng rng(9);
    // Operate at 50 % occupancy — the normal regime for a table sized with
    // headroom over peak flow count — not at the 87.5 % refusal cap.
    const u32 target = capacity / 2;
    while (keys.size() < target) {
      net::FiveTuple t = bench_tuple();
      t.src_ip = net::Ipv4Addr{static_cast<u32>(rng.next())};
      t.src_port = static_cast<u16>(rng.next());
      if (table.insert(t) == nullptr) continue;
      keys.push_back(t);
    }
    // Random lookup order, so large tables defeat the hardware prefetcher.
    for (std::size_t i = keys.size() - 1; i > 0; --i) {
      std::swap(keys[i], keys[rng.uniform(i + 1)]);
    }
    hashes.reserve(keys.size());
    for (const auto& k : keys) hashes.push_back(core::FlowTable::hash_of(k));
  }
};

void BM_FlowTableScalarLookupSweep(benchmark::State& state) {
  LookupSweep s(1u << state.range(0));
  std::size_t off = 0;
  u64 sum = 0;  // consume each entry's first word, like a real NF would
  for (auto _ : state) {
    for (u32 i = 0; i < kLookupBlock; ++i) {
      const void* e = s.table.find_remote(s.keys[off + i], s.hashes[off + i]);
      if (e != nullptr) sum += *static_cast<const u64*>(e);
    }
    off = (off + kLookupBlock) % (s.keys.size() - kLookupBlock);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          kLookupBlock);
}
BENCHMARK(BM_FlowTableScalarLookupSweep)
    ->DenseRange(14, 23, 3)
    ->ArgName("log2_capacity");

void BM_FlowTableBulkLookupSweep(benchmark::State& state) {
  LookupSweep s(1u << state.range(0));
  std::array<const void*, kBulkChunkSize> out;
  std::size_t off = 0;
  u64 sum = 0;
  for (auto _ : state) {
    for (u32 i = 0; i < kLookupBlock; i += kBulkChunkSize) {
      s.table.find_batch({s.keys.data() + off + i, kBulkChunkSize},
                         {s.hashes.data() + off + i, kBulkChunkSize},
                         {out.data(), kBulkChunkSize});
      for (const void* e : out) {
        if (e != nullptr) sum += *static_cast<const u64*>(e);
      }
    }
    off = (off + kLookupBlock) % (s.keys.size() - kLookupBlock);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          kLookupBlock);
}
BENCHMARK(BM_FlowTableBulkLookupSweep)
    ->DenseRange(14, 23, 3)
    ->ArgName("log2_capacity");

void BM_FlowTableInsertRemove(benchmark::State& state) {
  core::FlowTable table(1u << 16, 16, 0);
  Rng rng(4);
  net::FiveTuple t = bench_tuple();
  for (auto _ : state) {
    t.src_ip = net::Ipv4Addr{static_cast<u32>(rng.next())};
    benchmark::DoNotOptimize(table.insert(t));
    benchmark::DoNotOptimize(table.remove(t));
  }
}
BENCHMARK(BM_FlowTableInsertRemove);

void BM_SpscRingPushPop(benchmark::State& state) {
  runtime::SpscRing<void*> ring(1024);
  void* item = &ring;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.push(item));
    void* out;
    benchmark::DoNotOptimize(ring.pop(out));
  }
}
BENCHMARK(BM_SpscRingPushPop);

void BM_PacketPoolAllocFree(benchmark::State& state) {
  net::PacketPool pool(256);
  for (auto _ : state) {
    net::Packet* p = pool.alloc_raw();
    benchmark::DoNotOptimize(p);
    pool.free(p);
  }
}
BENCHMARK(BM_PacketPoolAllocFree);

void BM_BuildAndParseTcpFrame(benchmark::State& state) {
  net::PacketPool pool(16);
  net::TcpSegmentSpec spec;
  spec.tuple = bench_tuple();
  spec.payload_len = static_cast<u32>(state.range(0));
  for (auto _ : state) {
    net::Packet* pkt = net::build_tcp_raw(pool, spec);
    benchmark::DoNotOptimize(pkt->five_tuple());
    pool.free(pkt);
  }
}
BENCHMARK(BM_BuildAndParseTcpFrame)->Arg(6)->Arg(1460);

void BM_AhoCorasickScan(benchmark::State& state) {
  nf::AhoCorasick ac({"attack", "exploit", "malware", "GET /",
                      "\xde\xad\xbe\xef"});
  const auto buf = random_bytes(1460);
  u64 hits = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ac.scan(0, std::span<const u8>{buf.data(), buf.size()}, &hits));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 1460);
}
BENCHMARK(BM_AhoCorasickScan);

void BM_EventQueueScheduleDispatch(benchmark::State& state) {
  class Nop final : public sim::IEventTarget {
   public:
    void handle_event(u64) override {}
  } nop;
  sim::EventQueue q;
  Rng rng(5);
  // Keep a standing population of 1024 events.
  for (int i = 0; i < 1024; ++i) q.schedule(rng.next() % 100000, &nop);
  Time t = 100000;
  for (auto _ : state) {
    const auto e = q.pop();
    benchmark::DoNotOptimize(e);
    q.schedule(t, &nop);
    ++t;
  }
}
BENCHMARK(BM_EventQueueScheduleDispatch);

}  // namespace
}  // namespace sprayer

BENCHMARK_MAIN();
