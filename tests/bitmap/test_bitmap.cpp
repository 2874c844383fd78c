#include "bitmap/bitmap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace wafl {
namespace {

TEST(Bitmap, StartsAllClear) {
  Bitmap bm(100);
  EXPECT_EQ(bm.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(bm.test(i));
  }
  EXPECT_EQ(bm.count_set(0, 100), 0u);
  EXPECT_EQ(bm.count_clear(0, 100), 100u);
}

TEST(Bitmap, InitiallySetConstructorRespectsTail) {
  Bitmap bm(70, /*initially_set=*/true);
  EXPECT_EQ(bm.count_set(0, 70), 70u);
  // Whole-word popcount must not see ghost bits past size().
  EXPECT_EQ(bm.count_clear(0, 70), 0u);
}

TEST(Bitmap, SetClearTest) {
  Bitmap bm(128);
  bm.set(0);
  bm.set(63);
  bm.set(64);
  bm.set(127);
  EXPECT_TRUE(bm.test(0));
  EXPECT_TRUE(bm.test(63));
  EXPECT_TRUE(bm.test(64));
  EXPECT_TRUE(bm.test(127));
  EXPECT_FALSE(bm.test(1));
  bm.clear(63);
  EXPECT_FALSE(bm.test(63));
  EXPECT_EQ(bm.count_set(0, 128), 3u);
}

TEST(Bitmap, CountSetSubRanges) {
  Bitmap bm(256);
  for (std::uint64_t i = 0; i < 256; i += 3) {
    bm.set(i);
  }
  // Brute-force cross-check on many (begin, end) pairs.
  for (std::uint64_t begin = 0; begin <= 256; begin += 17) {
    for (std::uint64_t end = begin; end <= 256; end += 13) {
      std::uint64_t expect = 0;
      for (std::uint64_t i = begin; i < end; ++i) {
        if (i % 3 == 0) ++expect;
      }
      EXPECT_EQ(bm.count_set(begin, end), expect)
          << "begin=" << begin << " end=" << end;
    }
  }
}

TEST(Bitmap, CountWithinSingleWord) {
  Bitmap bm(64);
  bm.set(5);
  bm.set(6);
  bm.set(7);
  EXPECT_EQ(bm.count_set(5, 8), 3u);
  EXPECT_EQ(bm.count_set(6, 7), 1u);
  EXPECT_EQ(bm.count_set(0, 5), 0u);
  EXPECT_EQ(bm.count_set(8, 64), 0u);
  EXPECT_EQ(bm.count_set(3, 3), 0u);
}

TEST(Bitmap, FindFirstClear) {
  Bitmap bm(200, true);
  bm.clear(130);
  EXPECT_EQ(bm.find_first_clear(0, 200), 130u);
  EXPECT_EQ(bm.find_first_clear(131, 200), 200u);
  EXPECT_EQ(bm.find_first_clear(130, 200), 130u);
  EXPECT_EQ(bm.find_first_clear(0, 130), 130u);  // none in range => end
}

TEST(Bitmap, FindFirstSet) {
  Bitmap bm(200);
  bm.set(64);
  bm.set(65);
  EXPECT_EQ(bm.find_first_set(0, 200), 64u);
  EXPECT_EQ(bm.find_first_set(65, 200), 65u);
  EXPECT_EQ(bm.find_first_set(66, 200), 200u);
  EXPECT_EQ(bm.find_first_set(64, 64), 64u);  // empty range => end
}

TEST(Bitmap, FindRespectsRangeEnd) {
  Bitmap bm(128);
  bm.set(100);
  // The set bit is inside the word but beyond `end`.
  EXPECT_EQ(bm.find_first_set(0, 100), 100u);
  EXPECT_EQ(bm.find_first_set(0, 99), 99u);
}

TEST(Bitmap, ClearRunLength) {
  Bitmap bm(100);
  bm.set(10);
  EXPECT_EQ(bm.clear_run_length(0, 100), 10u);
  EXPECT_EQ(bm.clear_run_length(11, 100), 89u);
  EXPECT_EQ(bm.clear_run_length(10, 100), 0u);
}

TEST(Bitmap, RandomizedAgainstReference) {
  const std::uint64_t n = 1000;
  Bitmap bm(n);
  std::vector<bool> ref(n, false);
  Rng rng(99);
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t i = rng.below(n);
    if (rng.chance(0.5)) {
      if (!ref[i]) {
        bm.set(i);
        ref[i] = true;
      }
    } else if (ref[i]) {
      bm.clear(i);
      ref[i] = false;
    }
  }
  std::uint64_t expect_set = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(bm.test(i), ref[i]);
    if (ref[i]) ++expect_set;
  }
  EXPECT_EQ(bm.count_set(0, n), expect_set);

  // find_first_clear agrees with the reference from arbitrary starts.
  for (std::uint64_t start = 0; start < n; start += 37) {
    std::uint64_t expect = n;
    for (std::uint64_t i = start; i < n; ++i) {
      if (!ref[i]) {
        expect = i;
        break;
      }
    }
    EXPECT_EQ(bm.find_first_clear(start, n), expect);
  }
}

TEST(Bitmap, SizeNotMultipleOf64) {
  Bitmap bm(65);
  bm.set(64);
  EXPECT_EQ(bm.count_set(0, 65), 1u);
  EXPECT_EQ(bm.find_first_set(0, 65), 64u);
  bm.clear(64);
  EXPECT_EQ(bm.find_first_clear(64, 65), 64u);
}

// count_set() (and count_clear()) against a per-bit prefix count, on
// bitmaps up to about three metafile blocks long.  The ranges start on and
// beside word edges and span middle runs just under, at and over the block
// kernel's 30-word run; empty ranges and ranges ending in a partial last
// word are included, and every bitmap holds an all-ones span of at least
// 64 words, where a byte lane summed over too many words would carry.
TEST(Bitmap, CountSetMatchesPerBitReference) {
  Rng rng(24);
  const std::uint64_t sizes[] = {64,
                                 30 * 64 + 1,
                                 100 * 64 + 7,
                                 3 * kBitsPerBitmapBlock - 37,
                                 3 * kBitsPerBitmapBlock,
                                 2 * kBitsPerBitmapBlock +
                                     rng.below(kBitsPerBitmapBlock)};
  for (const std::uint64_t n : sizes) {
    Bitmap bm(n);
    std::vector<bool> ref(n, false);
    auto set = [&](std::uint64_t i) {
      if (!ref[i]) {
        bm.set(i);
        ref[i] = true;
      }
    };
    // Segments of all-ones, all-clear and random bits, of random length.
    for (std::uint64_t i = 0; i < n;) {
      const std::uint64_t len = std::min<std::uint64_t>(
          n - i, 64 * rng.below(100) + rng.below(64) + 1);
      const std::uint64_t kind = rng.below(3);
      for (std::uint64_t j = i; j < i + len; ++j) {
        if (kind == 0 || (kind == 2 && rng.chance(0.5))) set(j);
      }
      i += len;
    }
    // An all-ones span of at least 64 whole words (all of a short map).
    const std::uint64_t ones_words = std::min<std::uint64_t>(n / 64, 64 + 40);
    const std::uint64_t ones_lo = 64 * rng.below(n / 64 - ones_words + 1);
    const std::uint64_t ones_hi = ones_lo + 64 * ones_words;
    for (std::uint64_t j = ones_lo; j < ones_hi; ++j) set(j);

    std::vector<std::uint64_t> prefix(n + 1, 0);
    for (std::uint64_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + ref[i];
    auto check = [&](std::uint64_t b, std::uint64_t e) {
      ASSERT_LE(b, e);
      ASSERT_LE(e, n);
      const std::uint64_t want = prefix[e] - prefix[b];
      ASSERT_EQ(bm.count_set(b, e), want) << "n=" << n << " [" << b << ", "
                                          << e << ")";
      ASSERT_EQ(bm.count_clear(b, e), (e - b) - want);
    };

    check(0, n);
    check(ones_lo, ones_hi);
    check(ones_lo + 1, ones_hi - 1);
    for (const std::uint64_t b : {std::uint64_t{0}, n / 2, n}) check(b, b);
    // Begin on and beside a word edge; m whole middle words (m + 2 words
    // touched, on and beside multiples of 30); end on and beside the last
    // word's edges.
    for (const std::uint64_t w0 : {std::uint64_t{0}, std::uint64_t{1},
                                   ones_lo / 64, n / 128}) {
      for (const std::uint64_t off : {0u, 1u, 63u}) {
        const std::uint64_t b = 64 * w0 + off;
        for (const std::uint64_t m : {0u, 1u, 2u, 27u, 28u, 29u, 30u, 31u,
                                      57u, 58u, 59u, 60u, 61u, 88u, 89u,
                                      90u, 256u, 512u}) {
          const std::uint64_t last = w0 + m + 1;
          for (const std::uint64_t t : {1u, 2u, 63u, 64u}) {
            const std::uint64_t e = 64 * last + t;
            if (e <= n) check(b, e);
          }
        }
        if (b <= n) check(b, n);  // a partial last word when n % 64 != 0
      }
    }
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t b = rng.below(n + 1);
      std::uint64_t e = rng.below(n + 1);
      if (b > e) std::swap(b, e);
      check(b, e);
    }
  }
}

}  // namespace
}  // namespace wafl
