#include "fault/fault.hpp"

#include "fault/crash_point.hpp"

namespace wafl::fault {

FaultEngine::FaultEngine(const FaultPlan& plan, obs::Registry& reg,
                         obs::FlightRecorder& flight)
    : plan_(plan), rng_(plan.seed), flight_(&flight) {
  WAFL_ASSERT(plan_.torn_bytes < kBlockSize);
  WAFL_OBS({
    metrics_.torn = &reg.counter("wafl.fault.torn_writes");
    metrics_.dropped = &reg.counter("wafl.fault.dropped_writes");
    metrics_.bitrot = &reg.counter("wafl.fault.read_bitrot");
    metrics_.crashes = &reg.counter("wafl.fault.crashes_injected");
  });
}

std::size_t FaultEngine::torn_len() {
  if (plan_.torn_bytes != 0) return plan_.torn_bytes;
  return static_cast<std::size_t>(rng_.between(1, kBlockSize - 1));
}

FaultInjector::WriteOutcome FaultEngine::on_write(
    const BlockStore& store, std::uint64_t block_no,
    std::span<const std::byte> data) {
  (void)data;
  std::lock_guard lock(mu_);
  if (!armed_) return {};
  ++writes_;

  WriteOutcome out;
  // !crash_pending_: with parallel writers another write can be issued
  // between the triggering write's on_write and its after_write throw —
  // it proceeds uninjected, like a write racing a real power loss.
  if (plan_.crash_after_writes != 0 && writes_ >= plan_.crash_after_writes &&
      !crashed_ && !crash_pending_) {
    crash_pending_ = true;
    crash_store_ = &store;
    crash_block_ = block_no;
    switch (plan_.crash_write_fault) {
      case CrashWriteFault::kPersisted:
        break;
      case CrashWriteFault::kTorn:
        out.persist_bytes = torn_len();
        journal_.push_back({FaultRecord::Kind::kTorn, &store, block_no,
                            writes_, out.persist_bytes});
        WAFL_OBS(metrics_.torn->inc());
        break;
      case CrashWriteFault::kDropped:
        out.drop = true;
        journal_.push_back(
            {FaultRecord::Kind::kDropped, &store, block_no, writes_, 0});
        WAFL_OBS(metrics_.dropped->inc());
        break;
    }
    journal_.push_back(
        {FaultRecord::Kind::kCrash, &store, block_no, writes_, 0});
    return out;
  }

  const bool targeted =
      !plan_.only_block.has_value() || *plan_.only_block == block_no;
  if (targeted && plan_.torn_write_prob > 0.0 &&
      rng_.chance(plan_.torn_write_prob)) {
    out.persist_bytes = torn_len();
    journal_.push_back({FaultRecord::Kind::kTorn, &store, block_no, writes_,
                        out.persist_bytes});
    WAFL_OBS(metrics_.torn->inc());
    return out;
  }
  if (targeted && plan_.dropped_write_prob > 0.0 &&
      rng_.chance(plan_.dropped_write_prob)) {
    out.drop = true;
    journal_.push_back(
        {FaultRecord::Kind::kDropped, &store, block_no, writes_, 0});
    WAFL_OBS(metrics_.dropped->inc());
    return out;
  }
  return out;
}

void FaultEngine::after_write(const BlockStore& store,
                              std::uint64_t block_no) {
  std::uint64_t ordinal = 0;
  {
    std::lock_guard lock(mu_);
    // Fire only for the write whose on_write tripped the trigger; an
    // interleaved write on another store passes through.
    if (!crash_pending_ || crash_store_ != &store || crash_block_ != block_no) {
      return;
    }
    crash_pending_ = false;
    crashed_ = true;
    armed_ = false;  // whatever follows the crash reads honest media
    ordinal = writes_;
  }
  WAFL_OBS({
    metrics_.crashes->inc();
    flight_->note("crash", "store.write", ordinal);
  });
  throw CrashPoint("store.write", ordinal);
}

void FaultEngine::on_read(const BlockStore& store, std::uint64_t block_no,
                          std::span<std::byte> data) {
  std::lock_guard lock(mu_);
  if (!armed_ || plan_.read_bitrot_prob <= 0.0) return;
  if (plan_.only_block.has_value() && *plan_.only_block != block_no) return;
  if (!rng_.chance(plan_.read_bitrot_prob)) return;
  const std::size_t bit =
      static_cast<std::size_t>(rng_.below(kBlockSize * 8));
  data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  journal_.push_back(
      {FaultRecord::Kind::kBitRot, &store, block_no, writes_, bit});
  WAFL_OBS(metrics_.bitrot->inc());
}

void FaultEngine::disarm() {
  std::lock_guard lock(mu_);
  armed_ = false;
  crash_pending_ = false;
}

bool FaultEngine::armed() const {
  std::lock_guard lock(mu_);
  return armed_;
}

std::uint64_t FaultEngine::writes_seen() const {
  std::lock_guard lock(mu_);
  return writes_;
}

bool FaultEngine::crashed() const {
  std::lock_guard lock(mu_);
  return crashed_;
}

std::vector<FaultRecord> FaultEngine::journal() const {
  std::lock_guard lock(mu_);
  return journal_;
}

}  // namespace wafl::fault
