// State-strategy selection (DESIGN.md §14).
//
// The paper's writing partition (§3.3) is one point in the design space of
// "how do sprayed cores share flow state". This config picks the point:
//
//   * kWritingPartition — redirect flow events to the designated core; any
//     core reads the owner's table lock-free (the paper's design, default).
//   * kReplication     — State-Compute Replication (arXiv 2309.14647):
//     every core holds a full replica; the designated core sequences flow
//     events and broadcasts the resulting state deltas over the existing
//     mesh rings, so the regular path reads purely local state.
//
// Both send every flow event to the flow's designated core, so each flow
// has exactly one writer.
//
// Kept free of heavyweight includes so core/config.hpp can embed it.
#pragma once

#include "common/types.hpp"

namespace sprayer::state {

enum class StateStrategyKind : u8 {
  kWritingPartition,
  kReplication,
};

[[nodiscard]] constexpr const char* to_string(StateStrategyKind k) noexcept {
  switch (k) {
    case StateStrategyKind::kWritingPartition:
      return "writing_partition";
    case StateStrategyKind::kReplication:
      return "replication";
  }
  return "unknown";
}

struct StateStrategyConfig {
  StateStrategyKind kind = StateStrategyKind::kWritingPartition;
  /// Replication: max payload bytes per state-sync frame (clamped to the
  /// packet pool's buffer size at broadcast time).
  u32 sync_frame_bytes = 192;
};

}  // namespace sprayer::state
