#include "core/flow_state.hpp"

#include <array>

namespace sprayer::core {

namespace {
/// Lookups are pipelined in chunks: large enough to amortize the per-table
/// grouping, small enough that the gathered prefetches still fit in the
/// load/fill-buffer window.
constexpr std::size_t kBulkChunk = 64;

/// Stamp refresh for a batch of hits: same coarse granularity as the scalar
/// read paths (FlowStateApi::kTouchGranularity).
void touch_hits(std::span<const void* const> out, Time now) noexcept {
  for (const void* e : out) {
    if (e != nullptr) {
      core::FlowTable::touch_if_stale(e, now,
                                      FlowStateApi::kTouchGranularity);
    }
  }
}
}  // namespace

void FlowStateApi::get_flows(std::span<const net::FiveTuple> flow_ids,
                             std::span<const FlowHash> hashes,
                             std::span<const void*> out) {
  SPRAYER_CHECK(hashes.size() == flow_ids.size());
  SPRAYER_CHECK(out.size() >= flow_ids.size());

  cycles_ += costs_.flow_lookup_batched * flow_ids.size();
  for (std::size_t i = 0; i < flow_ids.size(); ++i) count_read();

  if (replicating()) {
    // The replication payoff on the regular path: every lookup is served by
    // the local replica in one pipelined find_batch, no matter which core
    // is designated.
    for (std::size_t i = 0; i < flow_ids.size(); ++i) {
      if (designated_core(hashes[i]) != core_) ++counters_.remote_reads_avoided;
    }
    local().find_batch(flow_ids, hashes, out);
    touch_hits(out.first(flow_ids.size()), now());
    return;
  }

  const u32 cores = num_cores();
  if (cores == 1) {
    tables_[0]->find_batch(flow_ids, hashes, out);
    touch_hits(out.first(flow_ids.size()), now());
    return;
  }

  std::array<CoreId, kBulkChunk> dest;
  std::array<u16, kBulkChunk> idx;
  std::array<net::FiveTuple, kBulkChunk> keys;
  std::array<FlowHash, kBulkChunk> hs;
  std::array<const void*, kBulkChunk> res;
  for (std::size_t base = 0; base < flow_ids.size(); base += kBulkChunk) {
    const std::size_t n = std::min(kBulkChunk, flow_ids.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      dest[i] = designated_core(hashes[base + i]);
      if (dest[i] != core_) ++counters_.remote_reads;
    }
    // Group the chunk by destination table so each table sees one contiguous
    // find_batch (its prefetch pipeline needs consecutive independent
    // lookups into the same arrays), then scatter results back in order.
    for (CoreId c = 0; c < cores; ++c) {
      std::size_t cnt = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (dest[i] != c) continue;
        idx[cnt] = static_cast<u16>(i);
        keys[cnt] = flow_ids[base + i];
        hs[cnt] = hashes[base + i];
        ++cnt;
      }
      if (cnt == 0) continue;
      tables_[c]->find_batch({keys.data(), cnt}, {hs.data(), cnt},
                             {res.data(), cnt});
      for (std::size_t j = 0; j < cnt; ++j) {
        out[base + idx[j]] = res[j];
      }
    }
  }
  touch_hits(out.first(flow_ids.size()), now());
}

void FlowStateApi::get_flows(std::span<const net::FiveTuple> flow_ids,
                             std::span<const void*> out) {
  std::array<FlowHash, kBulkChunk> hs;
  SPRAYER_CHECK(out.size() >= flow_ids.size());
  for (std::size_t base = 0; base < flow_ids.size(); base += kBulkChunk) {
    const std::size_t n = std::min(kBulkChunk, flow_ids.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      hs[i] = FlowTable::hash_of(flow_ids[base + i]);
    }
    get_flows(flow_ids.subspan(base, n), {hs.data(), n},
              out.subspan(base, n));
  }
}

}  // namespace sprayer::core
