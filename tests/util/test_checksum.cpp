#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

namespace wafl {
namespace {

std::uint32_t crc_of(std::string_view s) {
  return crc32c(s.data(), s.size());
}

/// Bit-at-a-time CRC-32C straight from the definition (reflected
/// polynomial 0x82F63B78, inverted in and out): no tables to share a bug
/// with the implementation under test.
std::uint32_t reference_crc32c(const std::byte* data, std::size_t size) {
  std::uint32_t crc = ~0u;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= static_cast<std::uint32_t>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<std::byte> patterned(std::size_t size) {
  std::vector<std::byte> buf(size);
  std::uint32_t x = 0x9E3779B9u;
  for (std::byte& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  return buf;
}

TEST(Crc32c, KnownVectors) {
  // Standard CRC-32C test vectors (RFC 3720 appendix / common suites).
  EXPECT_EQ(crc_of(""), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xC1D04330u);
  EXPECT_EQ(crc_of("123456789"), 0xE3069283u);
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..72 cover an empty input, tails of every length around the
  // 8-byte word loop, and several whole words; offsets 0..7 cover every
  // start alignment.
  const std::vector<std::byte> buf = patterned(8 + 72);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 72; ++len) {
      const std::byte* p = buf.data() + offset;
      ASSERT_EQ(crc32c(p, len), reference_crc32c(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32c, MatchesBitwiseReferenceOnA4KiBBlock) {
  const std::vector<std::byte> block = patterned(4096);
  EXPECT_EQ(crc32c(block), reference_crc32c(block.data(), block.size()));
}

TEST(Crc32c, AllZeros32Bytes) {
  const std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32c, SensitiveToSingleBitFlip) {
  std::vector<std::byte> buf(4096, std::byte{0x5A});
  const std::uint32_t before = crc32c(buf);
  buf[1000] ^= std::byte{0x01};
  EXPECT_NE(crc32c(buf), before);
}

TEST(Crc32c, SensitiveToPosition) {
  std::vector<std::byte> a(64, std::byte{0});
  std::vector<std::byte> b(64, std::byte{0});
  a[0] = std::byte{1};
  b[1] = std::byte{1};
  EXPECT_NE(crc32c(a), crc32c(b));
}

TEST(Crc32c, SeedChaining) {
  // CRC of the concatenation equals CRC of part2 seeded with CRC(part1).
  const std::string_view part1 = "12345";
  const std::string_view part2 = "6789";
  const std::uint32_t c1 = crc32c(part1.data(), part1.size());
  const std::uint32_t chained = crc32c(part2.data(), part2.size(), c1);
  EXPECT_EQ(chained, crc_of("123456789"));
}

TEST(Crc32c, SpanAndPointerOverloadsAgree) {
  std::vector<std::byte> buf(128);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 7);
  }
  EXPECT_EQ(crc32c(buf), crc32c(buf.data(), buf.size()));
}

}  // namespace
}  // namespace wafl
