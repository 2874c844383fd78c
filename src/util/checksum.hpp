// CRC-32C checksums for on-media metadata blocks.
//
// WAFL persists a 64-byte identifier with each block to protect against
// media errors and lost or misdirected writes (§3.2.4).  We use CRC-32C
// (Castagnoli) over block payloads for the TopAA metafile and AZCS checksum
// blocks; a corrupt TopAA block must be detected so mount can fall back to
// the bitmap scan instead of seeding a wrong cache (§3.4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace wafl {

/// CRC-32C of `data`, starting from `seed` (pass 0 for a fresh checksum).
/// Portable software slicing-by-8: eight 256-entry tables built at compile
/// time fold eight bytes per step (any alignment), and a byte-table loop
/// takes the tail.  The result is the plain bytewise CRC-32C, so the
/// checksums already on media do not change.
std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t seed = 0) noexcept;

/// Convenience overload for raw buffers.
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0) noexcept;

}  // namespace wafl
