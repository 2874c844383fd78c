// wafl::obs — umbrella header: compile-time gate, the global registry
// singleton, and the WAFL_OBS() instrumentation macro.
//
// Gating strategy: the obs *library* is always compiled (its unit tests
// run in both configurations), but instrumentation call sites wrap
// themselves in WAFL_OBS(...), which expands to `if constexpr (kEnabled)`.
// Both branches always typecheck — so the OFF configuration cannot rot —
// yet with WAFL_OBS_ENABLED=0 the instrumentation is dead code the
// compiler deletes outright.
#pragma once

#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/span.hpp"

#ifndef WAFL_OBS_ENABLED
#define WAFL_OBS_ENABLED 1
#endif

namespace wafl::obs {

inline constexpr bool kEnabled = WAFL_OBS_ENABLED != 0;

/// Process-global metrics registry.  Handles from it are stable; hot
/// paths resolve their metrics once and cache the references.
Registry& registry();

/// Zeroes the global registry and clears the span buffers and the flight
/// recorder — test/bench isolation.  (The span collector and
/// flight recorder singletons live in span.hpp / flight_recorder.hpp:
/// obs::spans(), obs::flight_recorder().)
void reset_all();

}  // namespace wafl::obs

/// Instrumentation gate: statements inside compile in every configuration
/// but only execute (and survive dead-code elimination) when obs is on.
///   WAFL_OBS(obs::registry().counter("wafl.cp.ops").add(n));
#define WAFL_OBS(...)                        \
  do {                                       \
    if constexpr (::wafl::obs::kEnabled) {   \
      __VA_ARGS__;                           \
    }                                        \
  } while (0)
