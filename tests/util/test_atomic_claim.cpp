// Randomized oracle fuzz for AtomicClaimBitmap's CAS word-claim path
// (DESIGN.md §14).
//
// Property under test: across any set of racing claimers, each bit is won
// EXACTLY once per set/clear cycle, losers always observe the set bit, and
// claims of distinct bits in one word never destroy each other (the
// compare_exchange retry).  Each case derives threads, bit-space size, and
// attempt pattern from one seed — same-word contention, adjacent-word
// straddles, and full-word saturation all fall out of the pattern draw —
// and verifies against a per-bit oracle: winners across all threads must
// partition the distinct attempted bits.
//
// Reproduce one case exactly like the crash sweep:
//
//   WAFL_CLAIM_SEED=<seed> ./waflfree_tests
//       --gtest_filter='AtomicClaimFuzz.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "util/atomic_bitmap.hpp"
#include "util/rng.hpp"

namespace wafl {
namespace {

constexpr int kCases = 48;

std::uint64_t case_seed(int index) {
  return 0xC1A10000u + 0x9E3779B97F4A7C15ULL *
                           (static_cast<std::uint64_t>(index) + 1);
}

void run_case(int index, std::uint64_t seed) {
  SCOPED_TRACE("claim case " + std::to_string(index) + " seed " +
               std::to_string(seed) + "; reproduce with WAFL_CLAIM_SEED=" +
               std::to_string(seed));
  Rng rng(seed);
  const unsigned threads = static_cast<unsigned>(rng.between(2, 8));
  // Pattern: 0 = uniform over many words, 1 = one word (max intra-word
  // CAS contention), 2 = two adjacent words straddling the boundary,
  // 3 = full saturation (every thread attempts every bit).
  const std::uint64_t pattern = rng.below(4);
  const std::uint64_t nbits = pattern == 1   ? 64
                              : pattern == 2 ? 128
                                             : 64 + rng.below(960);

  // Pre-generate each thread's attempts (deterministic, duplicates
  // intended — a duplicate is a claim the thread itself must lose).
  std::vector<std::vector<std::uint64_t>> attempts(threads);
  for (unsigned t = 0; t < threads; ++t) {
    if (pattern == 3) {
      for (std::uint64_t b = 0; b < nbits; ++b) attempts[t].push_back(b);
    } else {
      const std::uint64_t n = rng.between(32, 512);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t bit = rng.below(nbits);
        if (pattern == 2) bit = 32 + bit % 64;  // straddle words 0 and 1
        attempts[t].push_back(bit);
      }
    }
  }

  AtomicClaimBitmap bm(nbits);
  std::vector<std::vector<std::uint64_t>> won(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&bm, &attempts, &won, t] {
      for (const std::uint64_t bit : attempts[t]) {
        if (bm.try_claim(bit)) {
          won[t].push_back(bit);
        } else {
          // Loser guarantee: the bit is visibly held the moment the
          // claim fails (acquire on the failed CAS / early load).
          if (!bm.test(bit)) won[t].push_back(~0ull);  // flagged below
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Oracle: distinct attempted bits, and per-bit win counts.
  std::vector<std::uint64_t> wins(nbits, 0);
  std::vector<std::uint8_t> attempted(nbits, 0);
  std::uint64_t distinct = 0;
  for (unsigned t = 0; t < threads; ++t) {
    for (const std::uint64_t bit : attempts[t]) {
      if (attempted[bit] == 0) {
        attempted[bit] = 1;
        ++distinct;
      }
    }
    for (const std::uint64_t bit : won[t]) {
      ASSERT_NE(bit, ~0ull) << "loser observed an unclaimed bit";
      ++wins[bit];
    }
  }
  std::uint64_t total_wins = 0;
  for (std::uint64_t b = 0; b < nbits; ++b) {
    ASSERT_LE(wins[b], 1u) << "bit " << b << " won twice";
    EXPECT_EQ(wins[b], attempted[b]) << "bit " << b;
    EXPECT_EQ(bm.test(b), attempted[b] != 0) << "bit " << b;
    total_wins += wins[b];
  }
  EXPECT_EQ(total_wins, distinct);
  EXPECT_EQ(bm.popcount(), distinct);

  // The set/clear cycle re-arms: clearing every winner makes each bit
  // claimable exactly once again (serially here — clear() requires the
  // freeze's exclusion, which the join above provides).
  for (unsigned t = 0; t < threads; ++t) {
    for (const std::uint64_t bit : won[t]) bm.clear(bit);
  }
  EXPECT_EQ(bm.popcount(), 0u);
  for (std::uint64_t b = 0; b < nbits; ++b) {
    if (attempted[b] != 0) {
      EXPECT_TRUE(bm.try_claim(b));
      EXPECT_FALSE(bm.try_claim(b));
    }
  }
}

TEST(AtomicClaimFuzz, SeededSweep) {
  if (const char* seed_env = std::getenv("WAFL_CLAIM_SEED")) {
    run_case(-1, std::strtoull(seed_env, nullptr, 0));
    return;
  }
  for (int i = 0; i < kCases; ++i) {
    run_case(i, case_seed(i));
  }
}

}  // namespace
}  // namespace wafl
