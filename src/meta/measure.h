/**
 * @file
 * Measurement backends for the tuning loop's sequential measurement
 * fold (search.cpp). The paper's search is driven by *measured*
 * hardware latency; this substrate offers two ways to produce that
 * number behind one interface:
 *
 *  - **HwsimMeasurer** — the analytical device models (hwsim/device.h).
 *    Deterministic and instant: the estimate the evaluation stage
 *    already computed is repackaged as the measurement. The default,
 *    and the only backend whose results replay without a journal.
 *  - **JitMeasurer** — real host wall clock. The candidate is compiled
 *    through the native tier (runtime/jit.h) and timed on seeded
 *    inputs in a forked worker (meta/runner.h) with steady-state
 *    discipline: configurable untimed warmup runs, then median-of-k
 *    timed repeats on std::chrono::steady_clock. A per-candidate
 *    compile budget rejects kernels whose native compile ran too long
 *    (Measurement::compile_timeout). Candidates the native tier cannot
 *    run — GPU thread bindings, a missing toolchain, no measurement
 *    worker — fall back to the analytical estimate
 *    (Measurement::fallback) instead of failing the tune.
 *
 * In both backends the device model stays the *validity* oracle: a
 * candidate whose estimate carries a constraint violation (the paper's
 * threading validation, §3.3) is rejected before any native compile.
 * The backend only decides where a valid candidate's latency number
 * comes from.
 *
 * Wall-clock numbers are inherently non-replayable; the search keeps
 * its resume contract by journaling every committed measurement (see
 * meta/journal.h and docs/EXECUTION.md, "Measurement backends").
 */
#ifndef TENSORIR_META_MEASURE_H
#define TENSORIR_META_MEASURE_H

#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "hwsim/device.h"

namespace tir {
namespace meta {

/** One committed measurement of a candidate program. */
struct Measurement
{
    /** Latency in microseconds (the median over the timed repeats for
     *  wall-clock backends); infinity when the candidate was rejected
     *  at measurement time (device-constraint violation or a failed
     *  native execution). */
    double latency_us = std::numeric_limits<double>::infinity();
    /** The wall-clock backend served the analytical estimate instead
     *  of timing native code (unsupported construct, no toolchain, or
     *  no measurement worker). Always false for HwsimMeasurer. */
    bool fallback = false;
    /** The native compile exceeded MeasureConfig::compile_budget_ms.
     *  The candidate was rejected before any run; latency_us is
     *  infinity and the search does not charge it as a trial. */
    bool compile_timeout = false;
    /** The isolated measurement worker died (fatal signal or nonzero
     *  exit) while this candidate's kernel was running. Deterministic
     *  generated-code death, contained to the worker process; the
     *  candidate is rejected into TuneResult::crash_filtered, not
     *  charged as a trial, and never retried. */
    bool crashed = false;
    /** The isolated measurement exceeded MeasureConfig::timeout_ms and
     *  the worker was SIGKILLed — the hard timeout that covers native
     *  hangs the cooperative stage watchdog cannot interrupt. Rejected
     *  into TuneResult::hang_filtered, not charged as a trial. */
    bool hanged = false;
    /** Real wall clock this measurement consumed (compile + warmup +
     *  timed repeats), in microseconds. Non-deterministic; 0 for the
     *  analytical backend. */
    double wall_us = 0;

    /** The measurement produced a usable latency. */
    bool valid() const { return std::isfinite(latency_us); }
};

/** Timing-discipline knobs for wall-clock backends (threaded through
 *  from the TuneOptions measure_* fields by the search). */
struct MeasureConfig
{
    /** Untimed runs per candidate before the timed repeats, so the
     *  timed window sees warm caches and a trained branch predictor. */
    int warmup = 2;
    /** Timed repeats per candidate; the reported latency is the
     *  median, which shrugs off a scheduler hiccup that would skew a
     *  mean. At least one repeat always runs. */
    int repeats = 5;
    /** Per-candidate compile budget in milliseconds; 0 = unlimited.
     *  jitCompile is synchronous, so the budget is enforced after the
     *  fact — the compile cannot be cancelled mid-flight, but the
     *  candidate is rejected so one pathological kernel cannot slow
     *  every later generation (the verdict is memoised upstream). */
    double compile_budget_ms = 0;
    /** Seed for the measurement input tensors (derived onto a stream
     *  no candidate or oracle RNG uses). */
    uint64_t seed = 1;
    /** Hard wall-clock budget per isolated measurement, in
     *  milliseconds, enforced by SIGKILL on the worker; 0 = unlimited.
     *  makeMeasureBackend resolves TENSORIR_MEASURE_TIMEOUT_MS over
     *  it. */
    double timeout_ms = 10000;
    /** Transient-failure retries per isolated measurement (worker
     *  startup failure, death without a reply); crashes and hangs are
     *  never retried. makeMeasureBackend resolves
     *  TENSORIR_RUNNER_RETRIES over it. */
    int retries = 2;
    /** Backoff before the first transient retry, in milliseconds
     *  (doubled per subsequent retry). */
    int backoff_ms = 50;
};

/** TENSORIR_MEASURE_TIMEOUT_MS resolved over `fallback` (strict
 *  unsigned parse, ≤ 86,400,000 ms; 0 = unlimited; garbage raises
 *  FatalError). */
double resolveMeasureTimeoutMs(double fallback);

/** TENSORIR_RUNNER_RETRIES resolved over `fallback` (strict unsigned
 *  parse, ≤ 100; garbage raises FatalError). */
int resolveRunnerRetries(int fallback);

/** Where a valid candidate's latency number comes from. Implementations
 *  are called only from the search's sequential fold (one thread). */
class MeasureBackend
{
  public:
    virtual ~MeasureBackend() = default;
    /** Stable backend name ("hwsim", "jit"). */
    virtual const char* name() const = 0;
    /** Whether identical inputs always produce identical measurements
     *  (true for the analytical model, false for wall clock). */
    virtual bool deterministic() const = 0;
    /** Measure `func`. `estimate` is the device model's verdict from
     *  the evaluation stage: its constraint violation (if any) rejects
     *  the candidate in every backend, and wall-clock backends fall
     *  back to its latency when native execution is impossible. */
    virtual Measurement measure(const PrimFunc& func,
                                const hwsim::RunEstimate& estimate) = 0;
};

/** The analytical backend: repackages the already-computed device
 *  estimate. No extra work, fully deterministic. */
class HwsimMeasurer : public MeasureBackend
{
  public:
    const char* name() const override { return "hwsim"; }
    bool deterministic() const override { return true; }
    Measurement measure(const PrimFunc& func,
                        const hwsim::RunEstimate& estimate) override;
};

class MeasureRunner;

/** The wall-clock backend: native compile + timed host execution. The
 *  timing loop always runs in a forked worker process (meta/runner.h);
 *  the compile, validity oracle, and accounting stay in this process.
 *  When no worker can be started (every startup retry failed), this
 *  and every later measurement of the tune serve the analytical
 *  estimate, like a missing toolchain. */
class JitMeasurer : public MeasureBackend
{
  public:
    /** `workload` is the unscheduled function whose parameter shapes
     *  define the measurement input tensors (every candidate schedules
     *  the same workload, so each worker builds them once). Forks the
     *  worker here, before the search builds its thread pool. */
    JitMeasurer(PrimFunc workload, MeasureConfig config);
    ~JitMeasurer() override;

    const char* name() const override { return "jit"; }
    bool deterministic() const override { return false; }
    Measurement measure(const PrimFunc& func,
                        const hwsim::RunEstimate& estimate) override;

  private:
    MeasureConfig config_;
    /** The fork-server pool that runs every timing loop. */
    std::unique_ptr<MeasureRunner> runner_;
    /** Set after a kUnavailable outcome: every later measurement serves
     *  the estimate instead of re-paying the startup retry/backoff per
     *  candidate. */
    bool runner_unavailable_ = false;
};

/** Backend factory for TuneOptions::measure_backend: "" or "hwsim" →
 *  HwsimMeasurer, "jit" → JitMeasurer. FatalError on any other name —
 *  a typo must not silently change what "measured" means. */
std::unique_ptr<MeasureBackend>
makeMeasureBackend(const std::string& name, const PrimFunc& workload,
                   const MeasureConfig& config);

} // namespace meta
} // namespace tir

#endif // TENSORIR_META_MEASURE_H
