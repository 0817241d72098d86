// Runtime metrics registry: per-core sharded counters, gauges and
// log-histograms with a plain-store hot path.
//
// Every metric owns one cache-line-separated cell (or bucket array) per
// *shard* — one shard per worker core, plus optionally one for the driver
// thread — so the update path is a relaxed load + add + store to a
// core-private line: no atomic RMW, no lock, no cross-core traffic. Cells
// are std::atomic<u64> written with plain relaxed stores (single writer per
// shard) so concurrent snapshot readers are race-free and every individual
// read is untorn.
//
// Consistency across cells is the epoch/seqlock contract (see
// telemetry/snapshot.hpp): writers bracket a burst of related updates in a
// begin_update()/end_update() window (two relaxed stores + free fences on
// x86, once per *batch*, not per packet); the snapshot collector retries a
// shard whose sequence moved mid-copy. Registration is two-phase: declare
// metrics, then finalize() once to lay out the shard slabs; handles taken
// before finalize() (or from a registry that is never finalized) and
// default-constructed handles (metrics that were never registered) degrade
// to no-ops.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/histogram.hpp"
#include "common/types.hpp"

#include <atomic>

namespace sprayer::telemetry {

class MetricsRegistry;

enum class MetricKind : u8 {
  kCounter,   // monotonic; shards merge by sum
  kGauge,     // last value; shards merge by sum (e.g. per-core occupancy)
  kGaugeMax,  // high-water mark; shards merge by max
  kGaugeFn,   // collector-evaluated callback; no shard storage
};

[[nodiscard]] constexpr const char* to_string(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kGaugeMax: return "max";
    case MetricKind::kGaugeFn: return "fn";
  }
  return "?";
}

/// Handle to a sharded scalar metric. Default-constructed (or taken from a
/// never-finalized registry) handles are no-ops, so instrumented code needs
/// no "is telemetry on?" branches beyond the one inside the call.
class Counter {
 public:
  Counter() = default;
  inline void add(u32 shard, u64 n = 1) noexcept;
  inline void set(u32 shard, u64 v) noexcept;
  inline void record_max(u32 shard, u64 v) noexcept;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, u32 slot) noexcept : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  u32 slot_ = 0;
};

/// Handle to a sharded log-histogram (LogHistogram bucket geometry, one
/// atomic bucket array per shard).
class Histogram {
 public:
  Histogram() = default;
  inline void record(u32 shard, u64 value, u64 count = 1) noexcept;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, u32 index) noexcept
      : reg_(reg), index_(index) {}
  MetricsRegistry* reg_ = nullptr;
  u32 index_ = 0;
};

class MetricsRegistry {
 public:
  /// `num_shards`: worker cores, plus one extra if a non-worker thread
  /// (e.g. the injection driver) also updates metrics.
  explicit MetricsRegistry(u32 num_shards)
      : num_shards_(num_shards), seqs_(num_shards) {
    SPRAYER_CHECK(num_shards >= 1);
  }

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (single-threaded, before finalize) -------------------

  [[nodiscard]] Counter counter(std::string name) {
    return Counter{this, register_scalar(std::move(name),
                                         MetricKind::kCounter)};
  }
  [[nodiscard]] Counter gauge(std::string name,
                              MetricKind kind = MetricKind::kGauge) {
    SPRAYER_CHECK(kind == MetricKind::kGauge || kind == MetricKind::kGaugeMax);
    return Counter{this, register_scalar(std::move(name), kind)};
  }
  [[nodiscard]] Histogram histogram(std::string name,
                                    unsigned significant_bits = 5);

  /// Collector-evaluated gauge (no shard storage; the callback runs on the
  /// snapshotting thread). May be registered after finalize(), but not
  /// concurrently with a running collector.
  void gauge_fn(std::string name, std::function<u64()> fn) {
    fn_gauges_.push_back(FnGauge{std::move(name), std::move(fn)});
  }

  /// Lay out the shard slabs. Exactly once; registration of sharded
  /// metrics is rejected afterwards. A registry that is never finalized
  /// leaves all its handles as no-ops (telemetry disabled).
  void finalize();
  [[nodiscard]] u32 num_shards() const noexcept { return num_shards_; }

  // --- writer-side epoch window ------------------------------------------
  // Bracket a burst of related updates from one shard's owning thread. The
  // snapshot collector retries while the (odd) sequence indicates a window
  // is open or the sequence moved during its copy.

  void begin_update(u32 shard) noexcept {
    SPRAYER_DCHECK(shard < num_shards_);
    auto& s = seqs_[shard].seq;
    s.store(s.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  void end_update(u32 shard) noexcept {
    SPRAYER_DCHECK(shard < num_shards_);
    auto& s = seqs_[shard].seq;
    std::atomic_thread_fence(std::memory_order_release);
    s.store(s.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  }

  // --- hot-path update primitives (called through the handles) -----------

  void scalar_add(u32 shard, u32 slot, u64 n) noexcept {
    auto* cell = scalar_cell_ptr(shard, slot);
    if (cell == nullptr) return;
    cell->store(cell->load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
  }
  void scalar_set(u32 shard, u32 slot, u64 v) noexcept {
    auto* cell = scalar_cell_ptr(shard, slot);
    if (cell == nullptr) return;
    cell->store(v, std::memory_order_relaxed);
  }
  void scalar_max(u32 shard, u32 slot, u64 v) noexcept {
    auto* cell = scalar_cell_ptr(shard, slot);
    if (cell == nullptr) return;
    if (v > cell->load(std::memory_order_relaxed)) {
      cell->store(v, std::memory_order_relaxed);
    }
  }
  void hist_record(u32 shard, u32 index, u64 value, u64 count) noexcept {
    if (!finalized_ || hist_lines_ == nullptr) return;
    SPRAYER_DCHECK(shard < num_shards_ && index < hists_.size());
    const HistInfo& h = hists_[index];
    const u32 slot = h.offset + static_cast<u32>(h.proto.index_of(value));
    auto& cell = hist_lines_[static_cast<std::size_t>(shard) *
                                 hist_lines_per_shard_ + (slot >> 3)]
                     .v[slot & 7];
    cell.store(cell.load(std::memory_order_relaxed) + count,
               std::memory_order_relaxed);
  }

  // --- collector-side introspection (telemetry/snapshot.hpp) -------------

  struct ScalarInfo {
    std::string name;
    MetricKind kind;
  };
  struct HistInfo {
    std::string name;
    LogHistogram proto;  // geometry donor (never add()ed to)
    u32 offset = 0;      // first bucket slot within a shard's hist region
  };
  struct FnGauge {
    std::string name;
    std::function<u64()> fn;
  };

  [[nodiscard]] const std::vector<ScalarInfo>& scalar_info() const noexcept {
    return scalars_;
  }
  [[nodiscard]] const std::vector<HistInfo>& hist_info() const noexcept {
    return hists_;
  }
  [[nodiscard]] const std::vector<FnGauge>& fn_gauges() const noexcept {
    return fn_gauges_;
  }
  /// Total histogram bucket slots per shard.
  [[nodiscard]] u32 hist_slots() const noexcept { return hist_slots_; }

  [[nodiscard]] u64 scalar_cell(u32 shard, u32 slot) const noexcept {
    const auto* cell =
        const_cast<MetricsRegistry*>(this)->scalar_cell_ptr(shard, slot);
    return cell == nullptr ? 0 : cell->load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 hist_cell(u32 shard, u32 slot) const noexcept {
    if (hist_lines_ == nullptr) return 0;
    return hist_lines_[static_cast<std::size_t>(shard) *
                           hist_lines_per_shard_ + (slot >> 3)]
        .v[slot & 7]
        .load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::atomic<u64>& shard_seq(u32 shard) const noexcept {
    return seqs_[shard].seq;
  }

  /// One shard's cell of a scalar handle (racy-but-atomic: untorn, and
  /// monotonic for counters).
  [[nodiscard]] u64 read(const Counter& c, u32 shard) const noexcept {
    return c.reg_ == this ? scalar_cell(shard, c.slot_) : 0;
  }
  /// Cross-shard sum of one scalar handle (same read contract).
  [[nodiscard]] u64 read_total(const Counter& c) const noexcept {
    u64 total = 0;
    for (u32 s = 0; s < num_shards_; ++s) total += read(c, s);
    return total;
  }

  /// Zero every cell by laying out fresh slabs (handles address cells by
  /// slot). Only valid while no other thread touches the registry.
  void reset() {
    SPRAYER_CHECK_MSG(finalized_, "reset() before finalize()");
    finalized_ = false;
    finalize();
  }

 private:
  /// Eight cells per cache line; shard regions are whole-line multiples so
  /// no two shards ever share a line.
  struct alignas(kCacheLineSize) CellLine {
    std::atomic<u64> v[8] = {};
  };
  struct alignas(kCacheLineSize) ShardSeq {
    std::atomic<u64> seq{0};
  };

  u32 register_scalar(std::string name, MetricKind kind);
  void check_name_free(const std::string& name) const;

  [[nodiscard]] std::atomic<u64>* scalar_cell_ptr(u32 shard,
                                                  u32 slot) noexcept {
    if (!finalized_ || scalar_lines_ == nullptr) return nullptr;
    SPRAYER_DCHECK(shard < num_shards_ && slot < scalars_.size());
    return &scalar_lines_[static_cast<std::size_t>(shard) *
                              scalar_lines_per_shard_ + (slot >> 3)]
                .v[slot & 7];
  }

  u32 num_shards_;
  bool finalized_ = false;

  std::vector<ScalarInfo> scalars_;
  std::vector<HistInfo> hists_;
  std::vector<FnGauge> fn_gauges_;
  u32 hist_slots_ = 0;

  // Slabs are unique_ptr arrays (not vectors): atomics are neither movable
  // nor copyable, and C++17 array-new honors the over-aligned CellLine.
  std::unique_ptr<CellLine[]> scalar_lines_;
  std::size_t scalar_lines_per_shard_ = 0;
  std::unique_ptr<CellLine[]> hist_lines_;
  std::size_t hist_lines_per_shard_ = 0;
  std::vector<ShardSeq> seqs_;
};

inline void Counter::add(u32 shard, u64 n) noexcept {
  if (reg_ != nullptr) reg_->scalar_add(shard, slot_, n);
}
inline void Counter::set(u32 shard, u64 v) noexcept {
  if (reg_ != nullptr) reg_->scalar_set(shard, slot_, v);
}
inline void Counter::record_max(u32 shard, u64 v) noexcept {
  if (reg_ != nullptr) reg_->scalar_max(shard, slot_, v);
}
inline void Histogram::record(u32 shard, u64 value, u64 count) noexcept {
  if (reg_ != nullptr) reg_->hist_record(shard, index_, value, count);
}

/// Registry-or-fallback holder for NFs (and other embeddable components):
/// binds to a framework-provided registry when one exists, otherwise owns a
/// private one so the component's counters keep working under any executor.
/// attach() before registering handles; seal() after (finalizes only the
/// private registry — a shared one is finalized by its owner).
class RegistrySlot {
 public:
  MetricsRegistry& attach(MetricsRegistry* shared, u32 num_shards) {
    own_.reset();
    if (shared != nullptr) {
      reg_ = shared;
    } else {
      own_ = std::make_unique<MetricsRegistry>(num_shards);
      reg_ = own_.get();
    }
    return *reg_;
  }
  void seal() {
    if (own_ != nullptr) own_->finalize();
  }
  [[nodiscard]] const MetricsRegistry* get() const noexcept { return reg_; }
  /// Cross-shard sum of `c`; 0 before attach() (component never init()ed).
  [[nodiscard]] u64 total(const Counter& c) const noexcept {
    return reg_ == nullptr ? 0 : reg_->read_total(c);
  }

 private:
  MetricsRegistry* reg_ = nullptr;
  std::unique_ptr<MetricsRegistry> own_;
};

}  // namespace sprayer::telemetry
