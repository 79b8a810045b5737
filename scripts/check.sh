#!/usr/bin/env bash
#
# CI driver: the three standard configurations, in order of cost.
#
#   1. plain           — full suite (unit, integration, concurrency,
#                        chaos, trace, adaptive, examples, bench
#                        smokes), then the disabled-trace wallclock
#                        envelope, the net label on 4-loop servers,
#                        and the net label on the portable poll(2)
#                        backend
#   2. address+undefined — full suite under ASan+UBSan
#   3. thread          — concurrency-, chaos-, trace-, net-,
#                        adaptive-, stm-, and jit-labeled tests only
#                        under TSan (the rest is single-threaded and
#                        just slows down 10x for nothing; trace rides
#                        along because its service-span tests cross
#                        threads, net because the server's event loop
#                        and shard workers race by construction,
#                        adaptive because the controller consumes
#                        telemetry the chaos storms also stress, stm
#                        because shared-heap sessions run K caller
#                        threads against one Heap, jit because the
#                        chain executor shares the adaptive/abort
#                        telemetry paths the storms exercise)
#
# Usage: scripts/check.sh [jobs]
#
# Build trees live in build-check*/ so they never collide with a
# developer's ./build. Any failure aborts the run (sanitizers are
# compiled with -fno-sanitize-recover=all, so findings are fatal).

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"

run() {
    echo
    echo "==> $*"
    "$@"
}

step() {
    echo
    echo "============================================================"
    echo "== $*"
    echo "============================================================"
}

step "1/3 plain build + full test suite"
run cmake -B build-check -S . -DNOMAP_SANITIZE=
run cmake --build build-check -j "$JOBS"
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ctest --test-dir build-check -j "$JOBS"

step "1b/3 disabled-trace wallclock envelope"
# Tracing off must stay free: the host ns-per-guest-instruction gauge
# (median, any suite/arch) has to stay under NOMAP_WALLCLOCK_MAX_NS.
# The envelope is deliberately loose — seed baselines sit at 2.8-4.1
# ns/instr on the reference runner — so it only catches a tracing
# guard leaking onto the hot path, not machine-to-machine noise.
run bash -c "cd build-check && ./bench/wallclock --quick"
MAX_NS="${NOMAP_WALLCLOCK_MAX_NS:-8.0}"
run python3 - "$MAX_NS" <<'PY'
import json, sys
max_ns = float(sys.argv[1])
with open("build-check/BENCH_wallclock.json") as f:
    doc = json.load(f)
# The envelope guards the compiled tiers only: interpreter rows spend
# host time per *bytecode* dispatch, so their ns per (much denser)
# guest-instruction stream sits on a different scale by design.
worst = max(s.get("ns_per_instr_median", s["ns_per_instr_p50"])
            for s in doc["suites"] if s.get("tier") != "interp")
print(f"worst ns/instr median = {worst:.3f} (limit {max_ns})")
if worst > max_ns:
    sys.exit(f"wallclock envelope exceeded: {worst:.3f} > {max_ns}")
PY

step "1c/3 net label in 4-loop mode"
# The full run drives every loopback test against a single-loop
# server; NOMAP_NET_LOOPS=4 makes each one drive a 4-event-loop server
# instead (SO_REUSEPORT where the kernel has it, acceptor round-robin
# fallback elsewhere).
run env CTEST_OUTPUT_ON_FAILURE=1 NOMAP_NET_LOOPS=4 \
    ctest --test-dir build-check -j "$JOBS" -L net

step "1d/3 net label on the portable poll(2) backend"
# Hosts without epoll run the server on poll(2); -DNOMAP_PORTABLE_POLL=ON
# forces that backend here so it is compiled and tested on every run.
run cmake -B build-check-poll -S . -DNOMAP_SANITIZE= -DNOMAP_PORTABLE_POLL=ON
run cmake --build build-check-poll -j "$JOBS" --target test_net
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ctest --test-dir build-check-poll -j "$JOBS" -L net

step "2/3 AddressSanitizer + UndefinedBehaviorSanitizer, full suite"
run cmake -B build-check-asan -S . "-DNOMAP_SANITIZE=address;undefined"
run cmake --build build-check-asan -j "$JOBS"
run env CTEST_OUTPUT_ON_FAILURE=1 \
    ASAN_OPTIONS=abort_on_error=1 \
    UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-check-asan -j "$JOBS"

step "3/3 ThreadSanitizer, concurrency + chaos + trace + net + adaptive + stm + jit labels"
# stm rides along because shared-heap sessions are the one place K
# caller threads execute guest programs against a single Heap — the
# domain-mutex serialization has to be TSan-clean by construction.
# jit rides along so the fused-vs-unfused chain differential runs
# under the same instrumented scheduler the other executor
# differentials run under.
run cmake -B build-check-tsan -S . -DNOMAP_SANITIZE=thread
run cmake --build build-check-tsan -j "$JOBS"
run env CTEST_OUTPUT_ON_FAILURE=1 \
    TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-check-tsan -j "$JOBS" \
    -L 'concurrency|chaos|trace|net|adaptive|stm|jit'

step "3b/3 TSan net label in 4-loop mode"
# The multi-loop server's cross-thread seams (completion inboxes,
# adopted-fd handoff, shared fault injector, server-level counters)
# only exist with loops > 1, so the net label runs again under TSan
# with every loopback test on a 4-loop server.
run env CTEST_OUTPUT_ON_FAILURE=1 NOMAP_NET_LOOPS=4 \
    TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-check-tsan -j "$JOBS" -L net

step "3c/3 perf-smoke under TSan (report-only baseline diff)"
run env CTEST_OUTPUT_ON_FAILURE=1 \
    TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-check-tsan -L perf-smoke

step "all three configurations passed"
