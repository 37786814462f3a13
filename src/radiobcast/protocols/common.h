#pragma once
// Shared protocol parameters and keys. The commit rule both Byzantine
// protocols share lives with the pools (protocols/pool.h,
// NeighborhoodCommitRule).

#include <cstdint>

#include "radiobcast/grid/coord.h"

namespace rbcast {

/// Parameters shared by all protocol behaviors.
struct ProtocolParams {
  std::int64_t t = 0;   // local fault bound the protocol is configured for
  Coord source{0, 0};   // the designated dealer (known to every node)
  /// Keep accumulating evidence and determinations after committing. The
  /// paper's protocol never stops; operationally the post-commit bookkeeping
  /// is dead state (a node's only outward signal is its COMMITTED broadcast,
  /// already sent), so the default skips it for speed. The Fig 1 fidelity
  /// tests turn it on to observe the full determination set.
  bool track_after_commit = false;
};

/// Packs an (origin, value) pair into a hashable key (coordinates are
/// canonical torus coords, so 21 bits per component is ample).
constexpr std::uint64_t origin_value_key(Coord origin, std::uint8_t value) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin.x))
          << 33) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin.y))
          << 1) ^
         (value & 1);
}

}  // namespace rbcast
