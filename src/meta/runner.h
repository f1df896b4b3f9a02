/**
 * @file
 * Process-isolated measurement runner: a fork-server worker that
 * executes JIT-compiled candidate kernels in a child process, so the
 * one thing an evolutionary search will eventually generate — a
 * candidate that segfaults, abort()s, or loops forever in native code —
 * kills a disposable worker instead of the tuning session (the same
 * reason AutoTVM and TVM's RPC runner measure in isolated, timeout-
 * killed processes).
 *
 * Division of labour with JitMeasurer (meta/measure.h):
 *
 *  - The **parent** keeps everything trustworthy: candidate compile
 *    (the compiler runs as a `cc` subprocess already), validity
 *    oracle, memoisation, journaling.
 *  - The **worker child** does the only dangerous step: dlopen the
 *    compiled `.so` and run the timing loop over the seeded argument
 *    tensors. The worker is pre-forked and reused across candidates
 *    (fork-server style); it inherits the workload and the
 *    measurement seed at fork time, so a request only carries the
 *    object path, entry symbol, and the candidate's intermediate-
 *    buffer sizes.
 *
 * Requests and responses travel over pipes as line-oriented records in
 * CRC frames (support/frame.h) — the framing of the checkpoint journal
 * and the tuning database too — so a torn or corrupted frame is
 * detected, never misparsed.
 *
 * Failure classification (RunnerStatus) is the contract the search's
 * accounting builds on:
 *
 *  - a worker killed by SIGSEGV/SIGBUS/SIGFPE/SIGABRT — or exiting
 *    nonzero — while running a kernel is a **crash**: deterministic,
 *    never retried, counted in TuneResult::crash_filtered;
 *  - a worker that exceeds the wall-clock budget is SIGKILLed and
 *    classified a **hang** — the hard timeout is what bounds a native
 *    loop; interpreter fuel only bounds interpreted runs — counted in
 *    TuneResult::hang_filtered;
 *  - a worker that dies *before* the kernel ran (startup failure,
 *    clean exit without a reply) is **transient**: respawned and
 *    retried with bounded exponential backoff;
 *  - retries exhausted is **unavailable**: the caller serves the
 *    analytical estimate for the rest of the tune.
 *
 * Fork-safety invariants (see also the FileLock notes in
 * runtime/jit.cpp): workers are spawned from the measurer's
 * constructor — before the search's thread pool exists — and respawned
 * only from the sequential measurement fold, while pool workers are
 * parked on their condition variable; no flock is ever held across the
 * fork. The child closes every inherited descriptor except its two
 * pipe ends and stdio, and leaves via _exit so no parent-owned
 * destructor (journal stream, trace session, dlopen handles) runs
 * twice.
 *
 * Deterministic fault injection: the child evaluates the data-keyed
 * failpoint sites `runner.crash` (abort → SIGABRT), `runner.segv`
 * (raise SIGSEGV), and `runner.hang` (loop until the parent's timeout
 * kill) against the candidate's structural hash, and the parent
 * evaluates `runner.spawn` (simulated worker startup failure) per
 * spawn attempt — making every classification path testable from CI.
 */
#ifndef TENSORIR_META_RUNNER_H
#define TENSORIR_META_RUNNER_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tir/schedule.h"

namespace tir {
namespace meta {

/** Classification of one isolated measurement attempt. */
enum class RunnerStatus : uint8_t
{
    /** The worker ran the kernel and returned a latency. */
    kOk,
    /** The worker ran the kernel; the kernel itself rejected (fuel
     *  exhaustion, dlopen/dlsym failure, injected interpreter fault).
     *  The candidate is invalid, the worker stays alive. */
    kReject,
    /** The worker died (signal or nonzero exit) while the kernel was
     *  running. Deterministic — never retried. */
    kCrash,
    /** The worker exceeded the wall-clock budget and was SIGKILLed.
     *  Never retried. */
    kHang,
    /** No isolated measurement could be made: every transient retry
     *  failed. The caller serves the analytical estimate instead. */
    kUnavailable,
};

/** Stable lower-case name of a status ("ok", "reject", "crash",
 *  "hang", "unavailable") for traces and logs. */
const char* runnerStatusName(RunnerStatus status);

/** One isolated measurement request: where the compiled kernel lives
 *  and how to time it. The argument tensors are *not* part of the
 *  request — the worker inherited the workload at fork time and builds
 *  them from RunnerConfig::seed. */
struct RunnerRequest
{
    /** Cached shared object of the candidate (JitModule::objectPath). */
    std::string object_path;
    /** Exported entry symbol to dlsym (JitModule::entrySymbol). */
    std::string entry_symbol;
    /** Leading buffer-table slots bound to the workload parameters;
     *  must equal the worker's parameter count or the worker rejects. */
    size_t num_params = 0;
    /** Element counts of the intermediate buffers (buffer-table slots
     *  past the parameters), in slot order. These vary per candidate —
     *  cache stages add buffers — which is why they ride the request. */
    std::vector<int64_t> local_counts;
    /** Untimed warmup runs before the timed repeats. */
    int warmup = 2;
    /** Timed repeats; the reply carries the median. */
    int repeats = 5;
    /** Interpreter fuel budget per run (0 = unlimited), resolved by
     *  the parent so the child matches JitModule::run exactly. */
    uint64_t step_limit = 0;
    /** Candidate identity (structural hash) keying the child-side
     *  failpoints, so chaos schedules crash the *same* candidates at
     *  every parallelism setting. */
    uint64_t key = 0;
};

/** Outcome of one isolated measurement. */
struct RunnerResult
{
    RunnerStatus status = RunnerStatus::kUnavailable;
    /** Median latency in microseconds (kOk only). */
    double latency_us = std::numeric_limits<double>::infinity();
    /** Signal that terminated the worker (kCrash: the fatal signal;
     *  kHang: SIGKILL), 0 otherwise. */
    int term_signal = 0;
    /** Worker exit code when it exited rather than died by signal. */
    int exit_code = 0;
    /** Transient respawn-and-retry attempts this request consumed. */
    int retries = 0;
    /** Human-readable classification detail ("signal 11", "fuel", …). */
    std::string detail;
};

/** Runner configuration (resolved from MeasureConfig/environment by
 *  the measurement backend). */
struct RunnerConfig
{
    /** Hard wall-clock budget per measurement in milliseconds,
     *  enforced by SIGKILL; 0 = unlimited. */
    double timeout_ms = 10000;
    /** Transient-failure retries per request (crashes and hangs are
     *  never retried). */
    int retries = 2;
    /** Backoff before the first retry, in milliseconds; doubles per
     *  subsequent retry. */
    int backoff_ms = 50;
    /** Seed for the worker's argument tensors (MeasureConfig::seed). */
    uint64_t seed = 1;
};

/**
 * The fork server. Constructed with the workload whose parameter shapes
 * define the measurement inputs; its one worker forks immediately (so
 * the fork happens before the search spawns its thread pool) and is
 * reused across candidates until it crashes or hangs (then respawned),
 * or the runner is destroyed. Measurements are sequential: call run()
 * from one thread (the search's sequential measurement fold).
 */
class MeasureRunner
{
  public:
    MeasureRunner(PrimFunc workload, RunnerConfig config);
    ~MeasureRunner();
    MeasureRunner(const MeasureRunner&) = delete;
    MeasureRunner& operator=(const MeasureRunner&) = delete;

    /** Execute one isolated measurement, classifying the outcome and
     *  transparently respawning/retrying transient worker failures. */
    RunnerResult run(const RunnerRequest& request);

  private:
    struct Worker
    {
        int pid = -1;      ///< child pid, -1 = slot empty
        int req_fd = -1;   ///< parent writes requests here
        int resp_fd = -1;  ///< parent reads responses here
        std::string buffer; ///< partial response bytes
    };

    bool spawnWorker(Worker& worker);
    void destroyWorker(Worker& worker, bool force_kill);
    /** Blocking-reap the (already dead or killed) worker; returns the
     *  waitpid status, or -1 when nothing could be reaped. */
    int reapWorker(Worker& worker);

    PrimFunc workload_;
    RunnerConfig config_;
    Worker worker_;
    bool sigpipe_saved_ = false;
    /** Opaque storage for the saved SIGPIPE disposition (struct
     *  sigaction, kept out of the header). */
    std::vector<unsigned char> saved_sigpipe_;
};

} // namespace meta
} // namespace tir

#endif // TENSORIR_META_RUNNER_H
