// Single-writer relaxed counter cell.
//
// A u64 that exactly one thread mutates while any thread may read it:
// loads and stores are relaxed atomics, so concurrent readers see untorn
// (if slightly stale) values and TSan can verify the discipline — the same
// contract as the telemetry registry's cells, packaged as a drop-in
// replacement for plain-u64 statistics fields. All the arithmetic an
// accumulator field needs is forwarded, and the implicit u64 conversion
// keeps existing call sites (printf casts, EXPECT_EQ, merges) compiling
// unchanged.
#pragma once

#include <atomic>

#include "common/types.hpp"

namespace sprayer {

class RelaxedU64 {
 public:
  constexpr RelaxedU64() noexcept = default;
  constexpr RelaxedU64(u64 v) noexcept : v_(v) {}  // NOLINT(runtime/explicit)

  // Copies move a snapshot of the value (used when stats structs are
  // returned by value or merged into a local accumulator).
  RelaxedU64(const RelaxedU64& o) noexcept : v_(o.load()) {}
  RelaxedU64& operator=(const RelaxedU64& o) noexcept {
    store(o.load());
    return *this;
  }
  RelaxedU64& operator=(u64 v) noexcept {
    store(v);
    return *this;
  }

  RelaxedU64& operator+=(u64 n) noexcept {
    store(load() + n);
    return *this;
  }
  RelaxedU64& operator++() noexcept { return *this += 1; }

  // NOLINTNEXTLINE(runtime/explicit) — implicit read keeps call sites plain.
  operator u64() const noexcept { return load(); }

  [[nodiscard]] u64 load() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void store(u64 v) noexcept { v_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

}  // namespace sprayer
