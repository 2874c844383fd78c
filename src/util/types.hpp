// Core identifier and unit types shared across the waflfree library.
//
// WAFL addresses storage in fixed 4 KiB blocks.  Two distinct block-number
// spaces exist (see §2.1 of the paper):
//   - physical VBNs address blocks of an aggregate and map (via RAID
//     geometry) to a (device, device-block) pair, and
//   - virtual VBNs address blocks within one FlexVol volume.
// Both spaces are plain 64-bit indices; the aliases below exist to keep
// signatures self-describing.  Identifiers that index small dense tables
// (devices, RAID groups, allocation areas) are 32-bit, and so are the
// entries of the per-block tables (PackedVbn).
#pragma once

#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace wafl {

/// Volume block number: index of a 4 KiB block in either the aggregate's
/// physical space or a FlexVol's virtual space (context decides which).
using Vbn = std::uint64_t;

/// Block number local to a single storage device (disk block number).
using Dbn = std::uint64_t;

/// Index of an allocation area within one AA layout (one RAID group's VBN
/// range, or one flat VBN range).
using AaId = std::uint32_t;

/// Free-block count of an allocation area ("AA score", §3.3).  The score of
/// an empty AA equals the AA size in blocks; a full AA scores 0.
using AaScore = std::uint32_t;

/// Index of a device within a RAID group.
using DeviceId = std::uint32_t;

/// Index of a RAID group within an aggregate.
using RaidGroupId = std::uint32_t;

/// Index of a FlexVol within an aggregate.
using VolumeId = std::uint32_t;

/// Stripe index within one RAID group (all devices share stripe numbering).
using StripeId = std::uint64_t;

/// Simulated time in nanoseconds (discrete-event clock).
using SimTime = std::uint64_t;

/// Sentinel for "no VBN".
inline constexpr Vbn kInvalidVbn = std::numeric_limits<Vbn>::max();

/// One entry of a per-block table (a FlexVol's block and container maps,
/// a snapshot's block map, the aggregate's owner table): a Vbn, or an
/// index derived from one, stored in 32 bits.  The tables convert at
/// their accessors, so every API stays 64-bit.  The spaces they index are
/// bounded so that every stored value fits below the sentinel: an
/// aggregate holds fewer than 2^32-1 blocks, a volume fewer than 2^32-1
/// vvbns, and all volumes of an aggregate at most 2^32-1 vvbns together.
using PackedVbn = std::uint32_t;

/// The entry that reads back as kInvalidVbn.
inline constexpr PackedVbn kInvalidPackedVbn =
    std::numeric_limits<PackedVbn>::max();

/// A table entry as a Vbn; kInvalidPackedVbn reads kInvalidVbn.
constexpr Vbn widen(PackedVbn p) noexcept {
  return p == kInvalidPackedVbn ? kInvalidVbn : Vbn{p};
}

/// A Vbn as a table entry.  Asserts that it fits below the sentinel; an
/// unmapped entry is written as kInvalidPackedVbn directly.
inline PackedVbn narrow(Vbn v) {
  WAFL_ASSERT_MSG(v < kInvalidPackedVbn, "VBN does not fit a 32-bit entry");
  return static_cast<PackedVbn>(v);
}

/// Sentinel for "no AA".
inline constexpr AaId kInvalidAaId = std::numeric_limits<AaId>::max();

}  // namespace wafl
