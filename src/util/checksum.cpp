#include "util/checksum.hpp"

#include <array>

namespace wafl {
namespace {

// CRC-32C (Castagnoli) polynomial, reflected form.
constexpr std::uint32_t kPoly = 0x82F63B78u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables: t[0] is the classic byte table; t[k][i] is the CRC
// of byte i followed by k zero bytes, so one 8-byte word folds in with
// eight independent lookups instead of eight dependent ones.
constexpr Tables build_tables() noexcept {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = build_tables();

std::uint32_t byte_at(const std::byte* p, int i) noexcept {
  return static_cast<std::uint32_t>(p[i]);
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t seed) noexcept {
  const auto& t = kTables;
  std::uint32_t crc = ~seed;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  // Bytes are assembled explicitly (not loaded as a word), so the loop is
  // alignment- and endian-independent.
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ (byte_at(p, 0) | byte_at(p, 1) << 8 |
                                    byte_at(p, 2) << 16 | byte_at(p, 3) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][byte_at(p, 4)] ^
          t[2][byte_at(p, 5)] ^ t[1][byte_at(p, 6)] ^ t[0][byte_at(p, 7)];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ byte_at(p, 0)) & 0xFFu];
  }
  return ~crc;
}

std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed) noexcept {
  return crc32c(
      std::span<const std::byte>(static_cast<const std::byte*>(data), size),
      seed);
}

}  // namespace wafl
