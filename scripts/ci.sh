#!/usr/bin/env bash
# Tier-1 gate: configure a fresh build tree with warnings-as-errors,
# build everything (library, tests, benches), and run the test suite.
# A second job rebuilds the tests with AddressSanitizer+UBSan and reruns
# them (skippable with TENSORIR_CI_SKIP_SANITIZERS=1 for quick local
# iterations).
#
#   scripts/ci.sh [build-dir]     (default: build-ci)
#
# The project's baseline warning set (-Wall -Wextra -Wno-unused-parameter)
# comes from the top-level CMakeLists; this script upgrades it to -Werror.
# -Wno-restrict works around a GCC 12 false positive (PR 105651): at -O2
# the inlined libstdc++ `const char* + std::string&&` operator trips
# -Wrestrict inside <bits/char_traits.h> with impossible (near-SIZE_MAX)
# bounds. Nothing in this repo aliases those buffers.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ci}"
rm -rf "$BUILD_DIR"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-Werror -Wno-restrict"
cmake --build "$BUILD_DIR" -j "$(nproc)"
# The plain pass runs the native tier's tests and measure_backend="jit"
# tunes wherever the toolchain works (docs/EXECUTION.md). It points
# gtest's TEST_TMPDIR at a fresh directory: tests write files only under
# ::testing::TempDir() (ScopedTempDir in tests/test_util.h) and must
# leave nothing there. Native code compiles into a private cache there
# too (tests/test_environment.cpp), so the user's default JIT cache
# (runtime::jitCacheDir()) must gain nothing.
JIT_DEFAULT_CACHE="/tmp/tensorir-jit-cache-$(id -u)"
jit_cache_entries() { { ls -A "$JIT_DEFAULT_CACHE" 2>/dev/null || true; } | sort; }
JIT_BEFORE="$(jit_cache_entries)"
TEST_TMP="$(mktemp -d)"
env -u TENSORIR_JIT_CACHE TEST_TMPDIR="$TEST_TMP" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure
if [[ -n "$(ls -A "$TEST_TMP")" ]]; then
    echo "ci: tests left files in their temp directory:" >&2
    ls -lA "$TEST_TMP" >&2
    rm -rf "$TEST_TMP"
    exit 1
fi
rmdir "$TEST_TMP"
JIT_GAINED="$(comm -13 <(echo "$JIT_BEFORE") <(jit_cache_entries) | sed '/^$/d')"
if [[ -n "$JIT_GAINED" ]]; then
    echo "ci: tests wrote into the default JIT cache $JIT_DEFAULT_CACHE:" >&2
    echo "$JIT_GAINED" >&2
    exit 1
fi

echo "ci: build (-Wall -Wextra -Werror) and tests passed (temp directory and default JIT cache left clean)"

# The C kernel example writes its generated program and binary under
# $TMPDIR; run it under a fresh one and require it left nothing there.
EXAMPLE_TMP="$(mktemp -d)"
TMPDIR="$EXAMPLE_TMP" "$BUILD_DIR/examples/example_generate_c_kernel"
if [[ -n "$(ls -A "$EXAMPLE_TMP")" ]]; then
    echo "ci: example_generate_c_kernel left files in TMPDIR:" >&2
    ls -lA "$EXAMPLE_TMP" >&2
    rm -rf "$EXAMPLE_TMP"
    exit 1
fi
rmdir "$EXAMPLE_TMP"
echo "ci: C kernel example passed (TMPDIR left clean)"

# Lint gate: run the tensorir-lint CLI (tools/tensorir_lint.cpp) over
# the small-shape seed suite. The binary exits nonzero iff any
# error-severity diagnostic (TIR-R/B/V/L codes) is reported, so a
# schedule or lowering regression that introduces a provable hazard
# fails CI here even if no unit test covers the exact pattern.
"$BUILD_DIR/tools/tensorir-lint" --suite small
echo "ci: lint gate (tensorir-lint, small suite) passed"

# clang-tidy job: the repo ships a .clang-tidy profile (bugprone-*,
# performance-*, naming conventions) and the build tree exports
# compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS in the top
# CMakeLists). Scoped to the static-analysis and lowering layers —
# the subsystems this profile was written against — to keep CI time
# bounded; widen the glob when touching other layers. Skipped when
# the toolchain image has no clang-tidy.
if command -v clang-tidy >/dev/null 2>&1; then
    clang-tidy -p "$BUILD_DIR" --quiet \
        src/tir/analysis/*.cpp src/lower/*.cpp tools/*.cpp
    echo "ci: clang-tidy (analysis + lowering layers) passed"
else
    echo "ci: clang-tidy not found; static-analysis job skipped"
fi

# No-toolchain job: the whole suite again with a compiler that does
# not exist. The toolchain probe fails, so only the tree-walking oracle
# runs: measure_backend="jit" tunes serve the analytical estimate
# (measure_fallbacks) and the native-only tests skip themselves. Every
# other test must pass unchanged, which proves the degradation
# contract rather than assuming it.
TENSORIR_CC=/nonexistent/tensorir-cc \
    ctest --test-dir "$BUILD_DIR" --output-on-failure
echo "ci: no-toolchain run (native tier unavailable) passed"

# Measure-jit smoke job: a tiny fixed-seed tune with the wall-clock
# measurement backend (measure_backend="jit"), journaled, then resumed
# — the resume must reproduce the wall-clock run byte for byte from
# the journal alone (real latencies are not re-measurable; the journal
# is the replay contract). The binary exits nonzero on any mismatch.
TENSORIR_JIT_CACHE="$BUILD_DIR/jit-cache" \
    "$BUILD_DIR/examples/example_measure_jit_smoke" \
    "$BUILD_DIR/measure-jit-smoke-journal.txt"
echo "ci: measure-jit smoke (journaled wall-clock resume) passed"

# Traced tuning session: run the demo under a process-wide
# TENSORIR_TRACE session, then validate the emitted Chrome-trace JSON
# (parses, spans nest per thread, counter series are monotone, and the
# span taxonomy covers search/analysis/cost-model/lowering/interpreter).
# Once on one thread and once on four, where counter samples from
# several threads must still come out in time order.
if command -v python3 >/dev/null 2>&1; then
    for threads in 1 4; do
        TENSORIR_PARALLELISM=$threads TENSORIR_TRACE="$BUILD_DIR/trace.json" \
            "$BUILD_DIR/examples/example_tune_trace_demo" >/dev/null
        python3 scripts/check_trace.py "$BUILD_DIR/trace.json"
    done
    echo "ci: traced tuning session validated (parallelism 1 and 4)"
else
    echo "ci: python3 not found; trace validation skipped"
fi

# Chaos job: the whole suite again with a failpoint schedule injecting
# faults into ~10% of search candidates (TENSORIR_FAILPOINTS is read at
# process start; see src/support/failpoint.h for the grammar). Only
# search-contained sites go in this schedule — sites like gbdt.fit or
# interp.run would also fire inside unit tests that exercise those
# layers directly and expect no interference. The containment contract
# under test: every injected failure becomes an accounted per-candidate
# reject, never a failed test or a dead process.
TENSORIR_FAILPOINTS='seed=7; search.instantiate=throw(0.05); search.evaluate=error(0.05)' \
    ctest --test-dir "$BUILD_DIR" --output-on-failure
echo "ci: chaos run (failpoints in the search pipeline) passed"

# Serve-smoke job: the schedule-serving layer under a bounded
# Zipf-distributed load (bench/serve_load.cpp --check). The binary
# exits nonzero unless the run shows nonzero cache hits (including the
# mutex-free hot cache), exactly-once background tuning per unique
# workload (single-flight), every started tune completed, and a clean
# shutdown with no leaked pool tasks or in-flight registrations.
"$BUILD_DIR/bench/serve_load" \
    --requests 300 --clients 4 --workloads 10 --check
echo "ci: serve smoke (Zipf load, single-flight, clean shutdown) passed"

# Runner chaos job: the journaled tune again, now with failpoints that
# kill measurement workers outright — runner.crash aborts the child
# mid-request, runner.hang wedges it until the hard wall-clock timeout
# SIGKILLs it (set short here so the job stays fast). The binary
# asserts nonzero crash_filtered AND hang_filtered, that the tune
# completed anyway, and that a journal resume replays the
# classifications byte-identically. Skips itself without a toolchain.
TENSORIR_JIT_CACHE="$BUILD_DIR/jit-cache" \
TENSORIR_MEASURE_TIMEOUT_MS=300 \
    "$BUILD_DIR/examples/example_runner_chaos_smoke" \
    "$BUILD_DIR/runner-chaos-journal.txt"
echo "ci: runner chaos (crashed/hung workers classified and journaled) passed"

# Multi-core concurrency job: the suites with real concurrency
# contracts (thread pool, parallel search, serving layer, measurement
# runner, the JIT's single-flight probe and compile), repeated while
# pinned to 2 and then 4 CPUs — once plain and once with a
# `thread_pool.claim` delay that holds pool workers between wake-up and
# claim. On one CPU those interleavings almost never happen; the pool's
# claim race hid there. The serving tests hold their own sync points
# open the same way: the hot cache's finalize window and target
# creation (`serve.finalize`, `serve.target_create`).
CONCURRENCY_SUITES='ThreadPool*:ParallelSearch*:ServeDatabase*:HotCache*:PendingTune*:ScheduleServer*:RunnerSearch*:JitConcurrency*'
if command -v taskset >/dev/null 2>&1; then
    for cpus in 2 4; do
        if (( $(nproc) < cpus )); then
            echo "ci: fewer than $cpus CPUs; $cpus-CPU concurrency run skipped"
            continue
        fi
        for schedule in "" "seed=3; thread_pool.claim=delay(0.2,1)"; do
            TENSORIR_FAILPOINTS="$schedule" taskset -c "0-$((cpus - 1))" \
                "$BUILD_DIR/tests/tensorir_tests" \
                --gtest_filter="$CONCURRENCY_SUITES" --gtest_repeat=3 \
                --gtest_brief=1
        done
    done
    echo "ci: concurrency suites on 2 and 4 CPUs passed"
else
    echo "ci: taskset not found; multi-core concurrency job skipped"
fi

# Benchmark smoke job: every perfbench workload in smoke mode, traced
# and untraced, plus a killed worker (perfbench/smoke_test.py). The
# benchmark's worker compiles against the search's public types, so a
# change to TuneResult or TuneOptions shows here.
python3 perfbench/smoke_test.py
echo "ci: benchmark smoke test passed"

if [[ "${TENSORIR_CI_SKIP_SANITIZERS:-0}" == "1" ]]; then
    echo "ci: sanitizer job skipped (TENSORIR_CI_SKIP_SANITIZERS=1)"
    exit 0
fi

# ASan+UBSan job: library + tests only (the bench binaries triple the
# build for no extra coverage), RelWithDebInfo so reports carry line
# numbers without the Debug-build slowdown. Leak checking stays off:
# the intrinsic/test registries are immortal by design.
SAN_DIR="${BUILD_DIR}-asan"
rm -rf "$SAN_DIR"
cmake -B "$SAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTENSORIR_SANITIZE=address,undefined \
    -DCMAKE_CXX_FLAGS="-Wno-restrict -fno-sanitize-recover=all"
cmake --build "$SAN_DIR" -j "$(nproc)" --target tensorir_tests
ASAN_OPTIONS=detect_leaks=0 ctest --test-dir "$SAN_DIR" --output-on-failure

# The env-parsing regressions (TENSORIR_PARALLELISM, TENSORIR_JIT_CACHE_MB)
# and the configuration fuzz (failpoint grammar, envUint, envFlag) once
# more, explicitly, under UBSan: the pre-fix bugs were exactly the kind
# (atoi on garbage, unsigned wrap of a negative, overflowing multiply)
# that sanitizers catch even when assertions would not.
ASAN_OPTIONS=detect_leaks=0 \
    "$SAN_DIR/tests/tensorir_tests" --gtest_filter='EnvParsing*:ConfigFuzz*'

echo "ci: ASan+UBSan build and tests passed"

# TSan job (mutually exclusive with ASan, hence its own tree): the
# concurrency-heavy suites — thread pool, trace buffers, failpoint
# registry, the intrinsic-registry snapshot path the tree-walker reads
# while intrinsics register, the JIT's single-flight probe and
# compile, the parallel search pipeline and its journal paths, the
# structural-hash memo's first-call race, and the serving layer
# (sharded database, hot cache, pending tune handle, schedule server).
# The full suite under TSan's ~10x slowdown buys no extra coverage:
# everything else is single-threaded.
TSAN_DIR="${BUILD_DIR}-tsan"
rm -rf "$TSAN_DIR"
cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTENSORIR_SANITIZE=thread \
    -DCMAKE_CXX_FLAGS="-Wno-restrict -fno-sanitize-recover=all"
cmake --build "$TSAN_DIR" -j "$(nproc)" --target tensorir_tests
"$TSAN_DIR/tests/tensorir_tests" \
    --gtest_filter='ThreadPool*:ParallelSearch*:Trace*:Failpoint*:IntrinRegistry*:JitConcurrency*:StructuralHash*:ServeDatabase*:HotCache*:PendingTune*:ScheduleServer*'

echo "ci: TSan build and concurrency tests passed"
