// AtomicClaimBitmap: word-level CAS claims over a dense bit space.
//
// The concurrent intake front end (DESIGN.md §14) needs one primitive:
// "claim this bit; tell me whether I won".  N writer threads race claims
// for the same (volume, logical) coalescing slot, and exactly one must win
// per generation.  The shape follows MadFS's pmem bitmap (SNIPPETS.md §3):
// the bits live in std::atomic_uint64_t words, a claim is a
// compare_exchange loop on the owning word, and losers observe the set bit
// without retrying.
//
// Memory ordering: a successful claim is acq_rel — it publishes the
// claimer's prior writes to whoever later folds the claim (the CP freeze,
// which reads the per-shard dirty lists under the shard locks) and orders
// the claim against the claimer's subsequent list append.  A failed claim
// is acquire, so the loser reads anything the winner published before
// claiming.  clear() is relaxed: generation swaps run under exclusion
// (every shard lock held), never concurrently with claims.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>

#include "util/assert.hpp"

namespace wafl {

class AtomicClaimBitmap {
 public:
  explicit AtomicClaimBitmap(std::uint64_t nbits)
      : nbits_(nbits),
        nwords_((nbits + 63) / 64),
        words_(std::make_unique<std::atomic<std::uint64_t>[]>(nwords_)) {}

  AtomicClaimBitmap(const AtomicClaimBitmap&) = delete;
  AtomicClaimBitmap& operator=(const AtomicClaimBitmap&) = delete;
  AtomicClaimBitmap(AtomicClaimBitmap&&) = default;
  AtomicClaimBitmap& operator=(AtomicClaimBitmap&&) = default;

  std::uint64_t size_bits() const noexcept { return nbits_; }

  /// Claims `bit`.  True exactly once per set/clear cycle: the winning
  /// CAS.  Concurrent claimers of distinct bits in one word retry past
  /// each other (lock-free, no waiting).
  bool try_claim(std::uint64_t bit) noexcept {
    WAFL_ASSERT(bit < nbits_);
    std::atomic<std::uint64_t>& w = words_[bit >> 6];
    const std::uint64_t mask = 1ull << (bit & 63);
    std::uint64_t cur = w.load(std::memory_order_acquire);
    for (;;) {
      if ((cur & mask) != 0) return false;  // lost: someone holds it
      if (w.compare_exchange_weak(cur, cur | mask,
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
        return true;
      }
    }
  }

  bool test(std::uint64_t bit) const noexcept {
    WAFL_ASSERT(bit < nbits_);
    return (words_[bit >> 6].load(std::memory_order_acquire) &
            (1ull << (bit & 63))) != 0;
  }

  /// Releases one claimed bit.  Generation-swap use only: the caller must
  /// exclude concurrent claimers of this bit (the freeze holds every
  /// shard lock), hence relaxed.  Asserts the bit was claimed.
  void clear(std::uint64_t bit) noexcept {
    WAFL_ASSERT(bit < nbits_);
    std::atomic<std::uint64_t>& w = words_[bit >> 6];
    const std::uint64_t mask = 1ull << (bit & 63);
    WAFL_ASSERT_MSG((w.load(std::memory_order_relaxed) & mask) != 0,
                    "clearing an unclaimed bit");
    w.store(w.load(std::memory_order_relaxed) & ~mask,
            std::memory_order_relaxed);
  }

  /// Claimed bits right now — test/oracle use (exclusion required for an
  /// exact answer).
  std::uint64_t popcount() const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < nwords_; ++i) {
      total += static_cast<std::uint64_t>(
          std::popcount(words_[i].load(std::memory_order_relaxed)));
    }
    return total;
  }

 private:
  std::uint64_t nbits_;
  std::uint64_t nwords_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

}  // namespace wafl
