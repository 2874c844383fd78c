#!/usr/bin/env bash
# Repo health check: builds and tests the configurations that must stay
# green.
#
#   tools/check.sh               default (obs ON) + obs-OFF builds, ctest both,
#                                and a Release build (no run) of the repo
#                                benchmark in perfbench/, so a library change
#                                that breaks its compile fails here
#   tools/check.sh --sanitize    also build+test an ASan+UBSan config
#   tools/check.sh --tsan        also build a ThreadSanitizer config and run
#                                the concurrency-sensitive suites (parallel
#                                CP, CP determinism, overlapped-CP driver
#                                intake-while-drain, write-allocator engine,
#                                thread pool, parallel mount/scoreboard,
#                                multi-aggregate fleet)
#   tools/check.sh --overhead    also measure the obs ON-vs-OFF throughput
#                                delta on the fig6-style hot loop
#                                (acceptance: < 2%)
#   tools/check.sh --crash       also run the full crash-consistency sweep
#                                (ctest label "crash": named scenarios + the
#                                256-case sharded property sweep) in the
#                                release tree AND under ASan+UBSan.  A
#                                failing sweep case prints its repro line:
#                                WAFL_CRASH_SEED=<seed> ./waflfree_crash_tests
#   tools/check.sh --perf        also run the parallel-CP, TopAA-mount,
#                                overlapped-CP and fleet-driver
#                                benches (fast mode), refresh the repo-root
#                                BENCH_*.json trajectory files, and fail if
#                                the run regresses the committed baseline
#                                (parallel fraction, Amdahl-implied speedup,
#                                mount scan/TopAA ratio, recovery scan/Iron
#                                Amdahl speedups + determinism; measured
#                                wall-clock speedups and multi-writer intake
#                                scaling are gated only on >= 4-core hosts).
#                                Each run also appends one JSONL record
#                                (git sha, core count, per-phase times) to
#                                the append-only BENCH_trajectory.json and
#                                gates the fresh run against the previous
#                                record, so gradual drift trips even while
#                                the absolute floors still pass.
#   tools/check.sh --trace       also export a per-CP span timeline from
#                                micro_parallel_cp (Chrome trace_event
#                                JSON, load in chrome://tracing or
#                                ui.perfetto.dev), validate its schema,
#                                and run the `trace`-labelled ctest suite
#                                (whole-CP span timeline checks, excluded
#                                from the default -LE slow pass)
#
# Build trees: build/ (default), build-obs-off/, build-perfbench/,
# build-asan/, build-tsan/.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=0
TSAN=0
OVERHEAD=0
CRASH=0
PERF=0
TRACE=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN=1 ;;
    --overhead) OVERHEAD=1 ;;
    --crash) CRASH=1 ;;
    --perf) PERF=1 ;;
    --trace) TRACE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

JOBS=$(nproc 2>/dev/null || echo 2)

build_and_test() {
  local dir=$1; shift
  echo "=== configure $dir ($*) ==="
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "=== build $dir ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== ctest $dir ==="
  # -LE slow: the full sharded crash sweep (label "slow") is excluded from
  # the default tier-1 pass; --crash runs it via -L crash.
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -LE slow | tail -3
}

build_and_test build
build_and_test build-obs-off -DWAFL_OBS_ENABLED=OFF

# The repo benchmark compiles the library sources itself (perfbench/run.py
# builds the same project); build it so its compile breaks here, not at
# benchmark time.
echo "=== configure build-perfbench (Release) ==="
cmake -B build-perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
echo "=== build build-perfbench ==="
cmake --build build-perfbench -j "$JOBS"

if [[ $SANITIZE -eq 1 ]]; then
  build_and_test build-asan -DENABLE_SANITIZERS=ON
fi

if [[ $TSAN -eq 1 ]]; then
  echo "=== configure build-tsan (ThreadSanitizer) ==="
  cmake -B build-tsan -S . -DENABLE_TSAN=ON >/dev/null
  echo "=== build build-tsan ==="
  cmake --build build-tsan -j "$JOBS"
  echo "=== ctest build-tsan (concurrency suites) ==="
  # Everything that drives a ThreadPool or races writer threads: the
  # parallel CP paths and the determinism contract, the engine itself and
  # the aggregate's pooled cases (the per-group boundary), the pool
  # primitives, the scan mount's one-level fan-outs (metafile block
  # load, per-group scoring, per-volume scans), the parallel Iron verify
  # fan-out, the 4-worker emit-while-scan stress
  # (MountParallel.EmitWhileScanStress), the span layer's concurrent
  # emit-while-snapshot stress, and the sharded-intake battery (writer
  # matrix, emit-while-freeze race, CAS claim fuzz).
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'ParallelCp|CpDeterminism|OverlappedCp|ConcurrentIntake|AtomicClaimFuzz|DelayedFreeLog|WriteAllocatorEngine|ThreadPool|Mount|Scoreboard|BitmapMetafile|BlockStoreConcurrent|SpanTrace|Iron|Fleet|Aggregate' |
    tail -3
fi

if [[ $CRASH -eq 1 ]]; then
  # The tier-1 runs above already executed the named crash scenarios and a
  # smoke subset of the sweep; this runs the full 256-case sweep (8 shards)
  # in release, then repeats it under ASan+UBSan for memory-safety of the
  # crash/unwind paths themselves.
  echo "=== crash sweep (build, release) ==="
  ctest --test-dir build --output-on-failure -j "$JOBS" -L crash | tail -3
  echo "=== configure build-asan ==="
  cmake -B build-asan -S . -DENABLE_SANITIZERS=ON >/dev/null
  echo "=== build build-asan ==="
  cmake --build build-asan -j "$JOBS"
  echo "=== crash sweep (build-asan, ASan+UBSan) ==="
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L crash | tail -3
fi

if [[ $OVERHEAD -eq 1 ]]; then
  echo "=== obs overhead (fig6-style hot loop, fast mode) ==="
  # Interleave ON/OFF runs and compare the best of each: on a shared
  # machine the run-to-run scheduler noise exceeds the 2% effect we gate
  # on, and best-of-pairs cancels slow intervals that hit one side only.
  best_on=0 best_off=0
  for _ in 1 2 3; do
    on=$(WAFL_BENCH_FAST=1 ./build/bench/micro_obs_overhead |
         sed -n 's/^alloc_loop_blocks_per_sec=//p')
    off=$(WAFL_BENCH_FAST=1 ./build-obs-off/bench/micro_obs_overhead |
          sed -n 's/^alloc_loop_blocks_per_sec=//p')
    echo "  pair: ON $on  OFF $off  blocks/s"
    best_on=$(awk -v a="$best_on" -v b="$on" 'BEGIN{print (b>a)?b:a}')
    best_off=$(awk -v a="$best_off" -v b="$off" 'BEGIN{print (b>a)?b:a}')
  done
  delta=$(awk -v on="$best_on" -v off="$best_off" \
          'BEGIN { printf "%.2f", (off - on) / off * 100 }')
  echo "best ON : $best_on blocks/s"
  echo "best OFF: $best_off blocks/s"
  echo "delta   : ${delta}% (positive = ON slower; acceptance < 2%)"
  awk -v d="$delta" 'BEGIN { exit (d < 2.0) ? 0 : 1 }' ||
    { echo "FAIL: obs overhead >= 2%"; exit 1; }
fi

if [[ $PERF -eq 1 ]]; then
  echo "=== perf trajectory (fast-mode benches) ==="
  # Both benches rewrite the repo-root BENCH_*.json files; the gates below
  # compare the fresh run against the committed baseline.  The scaling
  # gates are core-count-independent (phase split and Amdahl-implied
  # speedup, not wall clock) so they hold on 1-core CI; the measured
  # wall-clock speedup is additionally gated on hosts with >= 4 cores.
  WAFL_BENCH_FAST=1 WAFL_BENCH_JSON_DIR="$PWD" \
    ./build/bench/micro_parallel_cp >/dev/null
  WAFL_BENCH_FAST=1 WAFL_BENCH_JSON_DIR="$PWD" \
    ./build/bench/fig10_topaa_mount >/dev/null
  WAFL_BENCH_FAST=1 WAFL_BENCH_JSON_DIR="$PWD" \
    ./build/bench/micro_overlap_cp >/dev/null
  # The fleet smoke runs its own determinism oracle (every member's media
  # vs its solo run) and exits nonzero on divergence.
  WAFL_BENCH_FAST=1 WAFL_BENCH_JSON_DIR="$PWD" \
    ./build/bench/fleet_driver >/dev/null ||
    { echo "FAIL: fleet driver (determinism oracle or run)"; exit 1; }

  gate() {  # gate <label> <value> <floor>
    echo "  $1 = $2 (floor $3)"
    awk -v v="$2" -v f="$3" 'BEGIN { exit (v >= f) ? 0 : 1 }' ||
      { echo "FAIL: $1 below baseline floor $3"; exit 1; }
  }

  pf=$(jq -r '.parallel_fraction' BENCH_parallel_cp.json)
  apf=$(jq -r '.alloc_parallel_fraction' BENCH_parallel_cp.json)
  a4=$(jq -r '.amdahl_speedup_w4' BENCH_parallel_cp.json)
  hw=$(jq -r '.hw_threads' BENCH_parallel_cp.json)
  ident=$(jq -r '.identical_all_worker_counts' BENCH_parallel_cp.json)
  # 0.85 reflects the plan/execute allocation split: with the tetris fills
  # fanned out, only the plan, the window flush and the delta/stats merges
  # remain serial.
  gate "parallel_fraction" "$pf" 0.85
  gate "alloc_parallel_fraction" "$apf" 0.85
  gate "amdahl_speedup_w4" "$a4" 1.50
  [[ "$ident" == "true" ]] ||
    { echo "FAIL: parallel CP diverged from serial"; exit 1; }
  if [[ "$hw" -ge 4 ]]; then
    m4=$(jq -r '.measured_speedup_w4' BENCH_parallel_cp.json)
    gate "measured_speedup_w4" "$m4" 1.50
  else
    echo "  measured_speedup_w4 gate skipped ($hw hw threads < 4)"
  fi

  r_size=$(jq -r '.largest_vol_size.scan_over_topaa' BENCH_mount.json)
  r_count=$(jq -r '.largest_vol_count.scan_over_topaa' BENCH_mount.json)
  gate "mount scan/topaa (largest vol size)" "$r_size" 1.50
  gate "mount scan/topaa (largest vol count)" "$r_count" 1.50

  # Recovery-path parallelism (pFSCK-style scan + Iron).  The Amdahl
  # projections come from the serial run's phase split, so they gate on
  # any host; the measured wall-clock speedups need real cores.  Both
  # parallel paths must also have produced bit-identical caches/media.
  s_amdahl=$(jq -r '.scan.scan_amdahl_speedup_w4' BENCH_mount.json)
  i_amdahl=$(jq -r '.iron.iron_amdahl_speedup_w4' BENCH_mount.json)
  s_meas=$(jq -r '.scan.scan_parallel_speedup' BENCH_mount.json)
  i_meas=$(jq -r '.iron.iron_repair_speedup' BENCH_mount.json)
  s_det=$(jq -r '.scan.determinism_ok' BENCH_mount.json)
  i_det=$(jq -r '.iron.determinism_ok' BENCH_mount.json)
  gate "scan_amdahl_speedup_w4" "$s_amdahl" 1.50
  gate "iron_amdahl_speedup_w4" "$i_amdahl" 1.50
  [[ "$s_det" == "true" ]] ||
    { echo "FAIL: parallel recovery scan diverged from serial"; exit 1; }
  [[ "$i_det" == "true" ]] ||
    { echo "FAIL: parallel Iron repair diverged from serial"; exit 1; }
  if [[ "$hw" -ge 4 ]]; then
    gate "scan_parallel_speedup" "$s_meas" 1.20
    gate "iron_repair_speedup" "$i_meas" 1.20
  else
    echo "  scan/iron measured-speedup gates skipped ($hw hw threads < 4)"
  fi

  # Overlapped CP: intake must stay admissible for at least half of the
  # total drain wall (stop-the-world scores 0), and the overlapped driver
  # must remain bit-identical to the stop-the-world path (checked inside
  # the bench itself — it exits nonzero on divergence).
  ov=$(jq -r '.overlap_fraction' BENCH_overlap.json)
  ov_det=$(jq -r '.determinism_ok' BENCH_overlap.json)
  gate "overlap_fraction" "$ov" 0.50
  [[ "$ov_det" == "true" ]] ||
    { echo "FAIL: overlapped CP diverged from stop-the-world"; exit 1; }

  # Sharded intake (DESIGN.md §14): N writer threads streaming into the
  # driver must at least match the single-writer rate.  Scaling above 1.0
  # needs real cores, so — like measured_speedup_w4 — the gate only runs
  # on >= 4-core hosts; elsewhere the fields are still recorded.
  in_t=$(jq -r '.intake_threads' BENCH_overlap.json)
  in_scale=$(jq -r '.intake_scaling' BENCH_overlap.json)
  if [[ "$hw" -ge 4 ]]; then
    gate "intake_scaling (${in_t} writers)" "$in_scale" 1.00
  else
    echo "  intake_scaling gate skipped ($hw hw threads < 4)"
  fi

  # Fleet (DESIGN.md §16): the bench already enforced per-member media
  # determinism; here we gate shape and contention.  drain_stall_fraction
  # is lower-is-better: intake across the fleet must stay admissible for
  # at least half of the shared executor's drain wall.
  fleet_n=$(jq -r '.n_aggregates' BENCH_fleet.json)
  fleet_mblk=$(jq -r '.agg_mblk_s' BENCH_fleet.json)
  fleet_stall=$(jq -r '.drain_stall_fraction' BENCH_fleet.json)
  fleet_det=$(jq -r '.determinism_ok' BENCH_fleet.json)
  gate "fleet n_aggregates" "$fleet_n" 4
  [[ "$fleet_det" == "true" ]] ||
    { echo "FAIL: fleet member diverged from its solo run"; exit 1; }
  echo "  fleet drain_stall_fraction = $fleet_stall (ceiling 0.50)"
  awk -v v="$fleet_stall" 'BEGIN { exit (v <= 0.50) ? 0 : 1 }' ||
    { echo "FAIL: fleet drain stall fraction above 0.50"; exit 1; }

  # Perf trajectory: one JSONL record per --perf run, append-only so the
  # history of (sha, machine, phase times) accretes in git.  The relative
  # gates compare this run against the previous record — they catch slow
  # drift (e.g. a few points of parallel fraction per PR) that the
  # absolute floors above would only trip after several regressions
  # stack up.  Wall-clock fields are recorded but not gated: they are
  # machine-dependent.
  traj=BENCH_trajectory.json
  prev_pf="" prev_apf="" prev_a4="" prev_ov="" prev_sa="" prev_ia=""
  prev_fleet_mblk="" prev_fleet_stall=""
  if [[ -s $traj ]]; then
    prev_pf=$(tail -1 "$traj" | jq -r '.parallel_fraction')
    prev_apf=$(tail -1 "$traj" | jq -r '.alloc_parallel_fraction')
    prev_a4=$(tail -1 "$traj" | jq -r '.amdahl_speedup_w4')
    prev_ov=$(tail -1 "$traj" | jq -r '.overlap_fraction')
    prev_sa=$(tail -1 "$traj" | jq -r '.scan_amdahl_speedup_w4')
    prev_ia=$(tail -1 "$traj" | jq -r '.iron_amdahl_speedup_w4')
    prev_fleet_mblk=$(tail -1 "$traj" | jq -r '.agg_mblk_s // empty')
    prev_fleet_stall=$(tail -1 "$traj" | jq -r '.drain_stall_fraction // empty')
  fi
  jq -c \
    --arg ts "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg sha "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    --argjson cores "$(nproc 2>/dev/null || echo 0)" \
    --argjson ov "$ov" \
    --argjson ov_freeze "$(jq '.freeze_fraction' BENCH_overlap.json)" \
    --argjson ov_stall "$(jq '.intake_stall_ms' BENCH_overlap.json)" \
    --argjson ov_gap "$(jq '.cp_gap_ms_per_cp' BENCH_overlap.json)" \
    --argjson in_t "$in_t" \
    --argjson in_scale "$in_scale" \
    --argjson in_mblk "$(jq '.intake_mblk_s' BENCH_overlap.json)" \
    --argjson s_amdahl "$s_amdahl" \
    --argjson s_meas "$s_meas" \
    --argjson i_amdahl "$i_amdahl" \
    --argjson i_meas "$i_meas" \
    --argjson fleet_n "$fleet_n" \
    --argjson fleet_mblk "$fleet_mblk" \
    --argjson fleet_stall "$fleet_stall" \
    '{ts: $ts, git: $sha, cores: $cores, hw_threads,
      parallel_fraction, alloc_parallel_fraction,
      amdahl_speedup_w4, measured_speedup_w4,
      serial_phase_ms, parallel_phase_ms,
      alloc_plan_ms, alloc_execute_ms, alloc_merge_ms,
      wall_ms, alloc_wall_ms,
      overlap_fraction: $ov, overlap_freeze_fraction: $ov_freeze,
      overlap_stall_ms: $ov_stall, overlap_gap_ms_per_cp: $ov_gap,
      intake_threads: $in_t, intake_scaling: $in_scale,
      intake_mblk_s: $in_mblk,
      scan_amdahl_speedup_w4: $s_amdahl, scan_parallel_speedup: $s_meas,
      iron_amdahl_speedup_w4: $i_amdahl, iron_repair_speedup: $i_meas,
      n_aggregates: $fleet_n, agg_mblk_s: $fleet_mblk,
      drain_stall_fraction: $fleet_stall,
      identical: .identical_all_worker_counts}' \
    BENCH_parallel_cp.json >> "$traj"
  echo "  trajectory: appended $(wc -l < "$traj")th record to $traj"

  rel_gate() {  # rel_gate <label> <fresh> <previous> <tolerance>
    [[ -n "$3" && "$3" != "null" ]] || return 0
    echo "  $1 = $2 (previous $3, tolerance -$4)"
    awk -v v="$2" -v p="$3" -v t="$4" 'BEGIN { exit (v >= p - t) ? 0 : 1 }' ||
      { echo "FAIL: $1 regressed more than $4 vs previous trajectory record"; exit 1; }
  }
  rel_gate "parallel_fraction (vs trajectory)" "$pf" "$prev_pf" 0.05
  rel_gate "alloc_parallel_fraction (vs trajectory)" "$apf" "$prev_apf" 0.05
  rel_gate "amdahl_speedup_w4 (vs trajectory)" "$a4" "$prev_a4" 0.30
  rel_gate "scan_amdahl_speedup_w4 (vs trajectory)" "$s_amdahl" "$prev_sa" 0.30
  rel_gate "iron_amdahl_speedup_w4 (vs trajectory)" "$i_amdahl" "$prev_ia" 0.30
  # overlap_fraction is wall-clock-derived (stall ns over drain ns), so
  # like measured_speedup_w4 its drift gate only runs where the clock is
  # trustworthy; the absolute 0.50 floor above still holds everywhere.
  if [[ "$hw" -ge 4 ]]; then
    rel_gate "overlap_fraction (vs trajectory)" "$ov" "$prev_ov" 0.10
  else
    echo "  overlap_fraction trajectory gate skipped ($hw hw threads < 4)"
  fi
  # Fleet drift: throughput is wall-clock-derived, so its relative gate —
  # like measured_speedup_w4 — only runs where the clock is trustworthy.
  # The stall fraction is lower-is-better, so the drift check inverts:
  # fresh must not exceed previous by more than the tolerance.
  if [[ "$hw" -ge 4 ]]; then
    rel_gate "agg_mblk_s (vs trajectory)" "$fleet_mblk" "$prev_fleet_mblk" \
      "$(awk -v p="${prev_fleet_mblk:-0}" 'BEGIN { printf "%.4f", p * 0.5 }')"
    if [[ -n "$prev_fleet_stall" && "$prev_fleet_stall" != "null" ]]; then
      echo "  drain_stall_fraction = $fleet_stall (previous $prev_fleet_stall, tolerance +0.10)"
      awk -v v="$fleet_stall" -v p="$prev_fleet_stall" \
        'BEGIN { exit (v <= p + 0.10) ? 0 : 1 }' ||
        { echo "FAIL: drain_stall_fraction rose more than 0.10 vs previous record"; exit 1; }
    fi
  else
    echo "  fleet trajectory gates skipped ($hw hw threads < 4)"
  fi
fi

if [[ $TRACE -eq 1 ]]; then
  echo "=== CP trace export (micro_parallel_cp, fast mode) ==="
  # The bench captures spans for the 4-worker run and writes a Chrome
  # trace_event file next to the BENCH_*.json outputs; validate that the
  # file parses and every event carries the complete-event shape the
  # viewers require.
  WAFL_BENCH_FAST=1 WAFL_BENCH_JSON_DIR="$PWD" \
    ./build/bench/micro_parallel_cp >/dev/null
  trace=micro_parallel_cp.trace.json
  [[ -s $trace ]] || { echo "FAIL: $trace not written"; exit 1; }
  n=$(jq '.traceEvents | length' "$trace") ||
    { echo "FAIL: $trace is not valid JSON"; exit 1; }
  [[ "$n" -gt 0 ]] || { echo "FAIL: $trace has no traceEvents"; exit 1; }
  jq -e '[.traceEvents[] |
          select((.ph == "X") and (.dur >= 0) and (.ts >= 0) and
                 has("name") and has("pid") and has("tid"))] | length == ('"$n"')' \
    "$trace" >/dev/null ||
    { echo "FAIL: $trace has events missing the complete-event shape"; exit 1; }
  echo "  $trace: $n complete events, schema OK"
  echo "=== ctest build (trace label) ==="
  ctest --test-dir build --output-on-failure -j "$JOBS" -L trace | tail -3
fi

echo "=== all checks passed ==="
