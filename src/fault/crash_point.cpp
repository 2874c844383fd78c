#include "fault/crash_point.hpp"

#include "obs/obs.hpp"

namespace wafl::fault {

CrashPoint::CrashPoint(const std::string& point, std::uint64_t hit_count)
    : std::runtime_error("crash injected at " + point + " (hit " +
                         std::to_string(hit_count) + ")"),
      point_(point),
      hit_count_(hit_count) {}

void CrashHooks::arm(const std::string& name, std::uint64_t nth) {
  std::lock_guard lock(mu_);
  auto [it, inserted] = armed_.insert_or_assign(name, Armed{nth, 0});
  (void)it;
  if (inserted) {
    armed_count_.store(armed_.size(), std::memory_order_relaxed);
  }
}

void CrashHooks::disarm_all() {
  std::lock_guard lock(mu_);
  armed_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

std::uint64_t CrashHooks::hits(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = armed_.find(name);
  return it == armed_.end() ? 0 : it->second.count;
}

void CrashHooks::hit_slow(const char* name) {
  std::uint64_t fired_count = 0;
  {
    std::lock_guard lock(mu_);
    const auto it = armed_.find(name);
    if (it == armed_.end()) return;
    Armed& a = it->second;
    ++a.count;
    if (a.count < a.nth) return;
    fired_count = a.count;
    armed_.erase(it);  // one crash per arm
    armed_count_.store(armed_.size(), std::memory_order_relaxed);
  }
  WAFL_OBS({
    reg_->counter("wafl.fault.crashes_injected").inc();
    // Black-box note: the dump ties the failure/repro back to the exact
    // hook (and firing ordinal) that cut the CP short.
    flight_->note("crash", name, fired_count);
  });
  throw CrashPoint(name, fired_count);
}

CrashHooks& crash_hooks() {
  static CrashHooks hooks(obs::registry(), obs::flight_recorder());
  return hooks;
}

}  // namespace wafl::fault
