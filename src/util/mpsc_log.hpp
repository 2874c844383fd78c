// MpscLog: a lock-free multi-producer append log with a quiesced,
// index-ordered single-consumer fold.
//
// The overlapped-CP generation split (DESIGN.md §13/§14) staging ledgers
// — DelayedFreeLog's active generation and BitmapMetafile's intake dirty
// list — were plain vectors, which made them single-producer.  This log
// keeps the same contract the freeze path depends on (fold in append
// order, O(entries), reusable across generations) while letting any
// number of threads append concurrently:
//
//   - push() reserves a global slot index with one fetch_add, writes the
//     value into chunked storage, and publishes it with a release store
//     on the slot's ready flag.  No locks, no waiting on other producers.
//   - storage is a linked list of fixed-size chunks extended by CAS; the
//     chunk chain is never freed until destruction, so a generation swap
//     reuses the high-water allocation instead of churning the heap.
//   - consume_ordered() folds slots [0, n) in index order.  It requires
//     the producers quiesced (the CP freeze runs it under every intake
//     shard lock / from the single control thread), but defensively
//     acquire-spins on a slot whose producer reserved an index and has
//     not yet published — the only in-flight state quiescence can leave.
//
// With one producer, index order IS append order, so the serial fold
// order (and therefore CP determinism) is byte-identical to the vector
// it replaces.  With racing producers the index order is the fetch_add
// winner order — fixed at push time, identical however the consumer runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "util/assert.hpp"

namespace wafl {

template <typename T>
class MpscLog {
 public:
  static constexpr std::uint64_t kChunkSlots = 1024;

  MpscLog() : head_(new Chunk(0)), hint_(head_) {}

  MpscLog(const MpscLog&) = delete;
  MpscLog& operator=(const MpscLog&) = delete;

  /// Moves require BOTH logs quiesced (no producer mid-push) — the same
  /// exclusion contract as consume_ordered().  Owners (BitmapMetafile,
  /// DelayedFreeLog) move only during construction/growth, never with
  /// intake live.
  MpscLog(MpscLog&& other) noexcept
      : next_(other.next_.load(std::memory_order_relaxed)),
        head_(other.head_),
        hint_(other.hint_.load(std::memory_order_relaxed)) {
    other.head_ = new Chunk(0);
    other.hint_.store(other.head_, std::memory_order_relaxed);
    other.next_.store(0, std::memory_order_relaxed);
  }

  MpscLog& operator=(MpscLog&& other) noexcept {
    if (this != &other) {
      free_chain();
      next_.store(other.next_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      head_ = other.head_;
      hint_.store(other.hint_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      other.head_ = new Chunk(0);
      other.hint_.store(other.head_, std::memory_order_relaxed);
      other.next_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }

  ~MpscLog() { free_chain(); }

  /// Appends `v`.  Safe from any number of threads concurrently.
  void push(const T& v) {
    const std::uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slot(i);
    s.value = v;
    s.ready.store(true, std::memory_order_release);
  }

  /// Entries appended and not yet consumed.  Exact under quiescence;
  /// monotone-approximate while producers race.
  std::uint64_t size() const noexcept {
    return next_.load(std::memory_order_acquire);
  }

  bool empty() const noexcept { return size() == 0; }

  /// Folds every entry in index order through `f`, then resets the log
  /// (chunks are kept for reuse).  Producers must be quiesced; a producer
  /// caught mid-publish at the boundary is awaited via its ready flag.
  /// Returns the number consumed.
  template <typename F>
  std::uint64_t consume_ordered(F&& f) {
    const std::uint64_t n = next_.load(std::memory_order_acquire);
    Chunk* c = head_;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i != 0 && (i % kChunkSlots) == 0) {
        c = c->next.load(std::memory_order_acquire);
        WAFL_ASSERT(c != nullptr);
      }
      Slot& s = c->slots[i % kChunkSlots];
      while (!s.ready.load(std::memory_order_acquire)) {
        // Reserved but unpublished: the producer is between fetch_add and
        // its release store.  Quiescence makes this window empty in
        // practice; spin covers the boundary defensively.
      }
      f(s.value);
      s.ready.store(false, std::memory_order_relaxed);
    }
    hint_.store(head_, std::memory_order_release);
    next_.store(0, std::memory_order_release);
    return n;
  }

  /// Read-only walk in index order, no reset — validation/debug.  Same
  /// quiescence contract as consume_ordered().
  template <typename F>
  void for_each(F&& f) const {
    const std::uint64_t n = next_.load(std::memory_order_acquire);
    const Chunk* c = head_;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i != 0 && (i % kChunkSlots) == 0) {
        c = c->next.load(std::memory_order_acquire);
        WAFL_ASSERT(c != nullptr);
      }
      const Slot& s = c->slots[i % kChunkSlots];
      while (!s.ready.load(std::memory_order_acquire)) {
      }
      f(s.value);
    }
  }

 private:
  void free_chain() {
    for (Chunk* c = head_; c != nullptr;) {
      Chunk* next = c->next.load(std::memory_order_relaxed);
      delete c;
      c = next;
    }
    head_ = nullptr;
  }

  struct Slot {
    T value{};
    std::atomic<bool> ready{false};
  };

  struct Chunk {
    explicit Chunk(std::uint64_t i) : index(i) {}
    const std::uint64_t index;  // position in the chain (0, 1, 2, ...)
    Slot slots[kChunkSlots];
    std::atomic<Chunk*> next{nullptr};
  };

  /// The slot for global index `i`, extending the chunk chain as needed.
  /// Starts from the racy hint (some recently-used chunk) when it is not
  /// past the target, so steady-state pushes hop O(1) chunks.
  Slot& slot(std::uint64_t i) {
    const std::uint64_t target = i / kChunkSlots;
    Chunk* c = hint_.load(std::memory_order_acquire);
    if (c->index > target) c = head_;
    while (c->index < target) {
      Chunk* next = c->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        Chunk* fresh = new Chunk(c->index + 1);
        if (c->next.compare_exchange_strong(next, fresh,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
          next = fresh;
        } else {
          delete fresh;  // another producer extended first
        }
      }
      c = next;
    }
    hint_.store(c, std::memory_order_release);
    return c->slots[i % kChunkSlots];
  }

  std::atomic<std::uint64_t> next_{0};
  Chunk* head_;
  std::atomic<Chunk*> hint_;
};

}  // namespace wafl
