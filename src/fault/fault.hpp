// wafl::fault — seeded media-fault injection over BlockStore.
//
// A FaultPlan describes, deterministically from a seed, what the media
// does to I/O:
//
//   - torn writes: the first K bytes of the 4 KiB payload persist, the
//     tail keeps the old contents (a power loss mid-sector-run);
//   - dropped writes: the write is acknowledged but never reaches the
//     media (lost on a volatile cache);
//   - read bit-rot: a read returns the stored bytes with one bit flipped
//     (transient — the media itself is not altered), which is what drives
//     the checksum/fallback paths;
//   - a crash trigger: after the Nth write the engine throws CrashPoint,
//     with a configurable disposition (torn/dropped/persisted) for that
//     final write — the classic "crash mid-flush" shape.
//
// FaultEngine implements storage's FaultInjector interface, so it can be
// attached directly to the embedded stores an Aggregate/FlexVol owns by
// value; FaultyBlockStore is the standalone decorator form for tests that
// own their store.  Every injected fault is journaled, so a harness can
// bound exactly which persisted blocks are allowed to diverge from the
// committed state, and counted through wafl::obs
// (wafl.fault.torn_writes / dropped_writes / read_bitrot /
// crashes_injected).
//
// Concurrency.  Since the CP tail went parallel (metafile flush and
// TopAA commits fan out across pool workers; see write_allocator.hpp),
// an engine can see concurrent I/O.  The engine's own state is mutex-
// protected, each store holds its fault mutex across the whole two-phase
// write triple, and the pending crash is keyed by (store, block) so only
// the write whose on_write tripped the trigger throws — another store's
// interleaved after_write cannot consume it.  With serial I/O (every
// named-hook scenario at workers=0) the seeded Rng replays exactly; with
// parallel workers the injected-fault *sequence* tracks the thread
// interleaving, while the harness invariants (DESIGN.md §9) stay
// interleaving-agnostic.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "obs/obs.hpp"
#include "storage/block_store.hpp"
#include "util/rng.hpp"

namespace wafl::fault {

/// Disposition of the write that fires a write-count crash trigger.
enum class CrashWriteFault {
  kPersisted,  // the write lands in full, then the crash hits
  kTorn,       // first K bytes land
  kDropped,    // the write is lost entirely
};

struct FaultPlan {
  std::uint64_t seed = 0;

  /// Independent per-write / per-read probabilities.
  double torn_write_prob = 0.0;
  double dropped_write_prob = 0.0;
  double read_bitrot_prob = 0.0;

  /// Crash (throw CrashPoint) after the Nth write seen by the engine,
  /// across every store it is attached to.  0 disables.
  std::uint64_t crash_after_writes = 0;
  CrashWriteFault crash_write_fault = CrashWriteFault::kTorn;

  /// Fixed torn length in bytes; 0 picks a seeded-random K in
  /// [1, kBlockSize).
  std::size_t torn_bytes = 0;

  /// Restrict write/read faults to this block number (targeted tests);
  /// the write-count crash trigger still counts every write.
  std::optional<std::uint64_t> only_block{};
};

/// One injected fault, for harness-side accounting.
struct FaultRecord {
  enum class Kind { kTorn, kDropped, kBitRot, kCrash };
  Kind kind;
  const BlockStore* store;
  std::uint64_t block;
  /// Engine-wide write ordinal at injection time (read faults record the
  /// ordinal of the last write).
  std::uint64_t ordinal;
  /// kTorn: persisted byte count; kBitRot: flipped bit index; else 0.
  std::size_t detail;
};

class FaultEngine final : public FaultInjector {
 public:
  /// `reg`/`flight` scope the engine's fault counters and crash note to a
  /// specific runtime (a fleet member's RuntimeBundle).
  explicit FaultEngine(const FaultPlan& plan,
                       obs::Registry& reg = obs::registry(),
                       obs::FlightRecorder& flight = obs::flight_recorder());

  WriteOutcome on_write(const BlockStore& store, std::uint64_t block_no,
                        std::span<const std::byte> data) override;
  void after_write(const BlockStore& store, std::uint64_t block_no) override;
  void on_read(const BlockStore& store, std::uint64_t block_no,
               std::span<std::byte> data) override;

  /// Stops all further injection (post-crash: recovery runs on honest
  /// media).  The journal and counters survive.
  void disarm();
  bool armed() const;

  /// Writes observed while armed, across all attached stores.
  std::uint64_t writes_seen() const;
  /// True once the write-count trigger has fired.
  bool crashed() const;

  /// Everything injected so far, in injection order.
  std::vector<FaultRecord> journal() const;

 private:
  std::size_t torn_len();  // requires mu_

  mutable std::mutex mu_;
  FaultPlan plan_;
  Rng rng_;
  bool armed_ = true;
  bool crash_pending_ = false;
  /// The write whose on_write set crash_pending_; after_write fires only
  /// on the matching (store, block) so a concurrent write on another
  /// store cannot consume the crash decision.
  const BlockStore* crash_store_ = nullptr;
  std::uint64_t crash_block_ = 0;
  bool crashed_ = false;
  std::uint64_t writes_ = 0;
  std::vector<FaultRecord> journal_;

  struct Metrics {
    obs::Counter* torn = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* bitrot = nullptr;
    obs::Counter* crashes = nullptr;
  };
  Metrics metrics_{};
  obs::FlightRecorder* flight_;
};

/// Decorator form: wraps a caller-owned BlockStore by attaching a private
/// FaultEngine for its lifetime.  Forwards the full BlockStore surface —
/// including grow/is_materialized/materialized_blocks, so growth paths
/// can be exercised under faults.
class FaultyBlockStore {
 public:
  FaultyBlockStore(BlockStore& inner, const FaultPlan& plan)
      : inner_(inner), engine_(plan) {
    WAFL_ASSERT_MSG(inner.fault_injector() == nullptr,
                    "store already has an injector");
    inner_.set_fault_injector(&engine_);
  }
  ~FaultyBlockStore() { inner_.set_fault_injector(nullptr); }

  FaultyBlockStore(const FaultyBlockStore&) = delete;
  FaultyBlockStore& operator=(const FaultyBlockStore&) = delete;

  void write(std::uint64_t block_no, std::span<const std::byte> data) {
    inner_.write(block_no, data);
  }
  void read(std::uint64_t block_no, std::span<std::byte> out) {
    inner_.read(block_no, out);
  }
  void grow(std::uint64_t new_capacity_blocks) {
    inner_.grow(new_capacity_blocks);
  }
  std::uint64_t capacity_blocks() const noexcept {
    return inner_.capacity_blocks();
  }
  bool is_materialized(std::uint64_t block_no) const noexcept {
    return inner_.is_materialized(block_no);
  }
  std::size_t materialized_blocks() const noexcept {
    return inner_.materialized_blocks();
  }
  IoStats stats() const noexcept { return inner_.stats(); }

  FaultEngine& engine() noexcept { return engine_; }
  BlockStore& inner() noexcept { return inner_; }

 private:
  BlockStore& inner_;
  FaultEngine engine_;
};

}  // namespace wafl::fault
