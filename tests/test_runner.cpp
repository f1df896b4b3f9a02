/**
 * @file
 * Fork-server measurement runner tests: strict env parsing for the
 * runner knobs (TENSORIR_MEASURE_TIMEOUT_MS, TENSORIR_RUNNER_RETRIES),
 * direct MeasureRunner classification (reject / injected SIGABRT /
 * injected SIGSEGV / timeout-killed hang / exhausted startup retries),
 * the search-level crash_filtered and hang_filtered accounting under
 * failpoint-driven worker death, the analytical fallback when no
 * worker can start, and the kill-mid-checkpoint resume contract with
 * crash classifications journaled (a resumed tune must replay crashed
 * candidates from the journal byte-identically, never re-running code
 * known to kill its worker).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>

#include <csignal>

#include "ir/printer.h"
#include "meta/journal.h"
#include "meta/measure.h"
#include "meta/runner.h"
#include "meta/search.h"
#include "meta/sketch.h"
#include "runtime/jit.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

using testutil::ScopedEnv;

// --- env parsing: the runner knobs ------------------------------------

TEST(EnvParsing, MeasureTimeoutRejectsGarbageAndOutOfRange)
{
    for (const char* bad :
         {"abc", "-1", "+10", "10s", " 10", "86400001"}) {
        ScopedEnv env("TENSORIR_MEASURE_TIMEOUT_MS", bad);
        EXPECT_THROW(meta::resolveMeasureTimeoutMs(10000), FatalError)
            << "value \"" << bad << "\" must be rejected";
    }
}

TEST(EnvParsing, MeasureTimeoutAcceptsValidAndFallsBack)
{
    {
        ScopedEnv env("TENSORIR_MEASURE_TIMEOUT_MS", "500");
        EXPECT_EQ(meta::resolveMeasureTimeoutMs(10000), 500.0);
    }
    {
        // 0 is meaningful: no hard timeout.
        ScopedEnv env("TENSORIR_MEASURE_TIMEOUT_MS", "0");
        EXPECT_EQ(meta::resolveMeasureTimeoutMs(10000), 0.0);
    }
    {
        ScopedEnv env("TENSORIR_MEASURE_TIMEOUT_MS", "");
        EXPECT_EQ(meta::resolveMeasureTimeoutMs(10000), 10000.0);
    }
    {
        ScopedEnv env("TENSORIR_MEASURE_TIMEOUT_MS", nullptr);
        EXPECT_EQ(meta::resolveMeasureTimeoutMs(2500), 2500.0);
    }
}

TEST(EnvParsing, RunnerRetriesRejectsGarbageAndOutOfRange)
{
    for (const char* bad : {"abc", "-1", "2x", "101"}) {
        ScopedEnv env("TENSORIR_RUNNER_RETRIES", bad);
        EXPECT_THROW(meta::resolveRunnerRetries(2), FatalError)
            << "value \"" << bad << "\" must be rejected";
    }
}

TEST(EnvParsing, RunnerRetriesAcceptsValidAndFallsBack)
{
    {
        ScopedEnv env("TENSORIR_RUNNER_RETRIES", "0");
        EXPECT_EQ(meta::resolveRunnerRetries(2), 0);
    }
    {
        ScopedEnv env("TENSORIR_RUNNER_RETRIES", "5");
        EXPECT_EQ(meta::resolveRunnerRetries(2), 5);
    }
    {
        ScopedEnv env("TENSORIR_RUNNER_RETRIES", "");
        EXPECT_EQ(meta::resolveRunnerRetries(2), 2);
    }
}

// --- direct MeasureRunner classification -------------------------------
// These need fork + pipes but no toolchain: the worker's failure paths
// fire before (or instead of) any dlopen of real generated code.

meta::RunnerRequest
dummyRequest(const PrimFunc& workload, uint64_t key)
{
    meta::RunnerRequest req;
    req.object_path = "/nonexistent/tensorir-runner-test.so";
    req.entry_symbol = "tensorir_entry";
    req.num_params = workload->params.size();
    req.warmup = 0;
    req.repeats = 1;
    req.key = key;
    return req;
}

TEST(MeasureRunnerTest, RejectsWhenKernelCannotLoad)
{
    PrimFunc workload = testutil::matmul(4, 4, 4);
    failpoint::ScopedFailpoints quiet("");
    meta::MeasureRunner runner(workload, meta::RunnerConfig{});
    meta::RunnerResult r = runner.run(dummyRequest(workload, 1));
    // The worker ran and answered: a missing .so is a per-candidate
    // reject, not a worker failure — no retry, no crash.
    EXPECT_EQ(r.status, meta::RunnerStatus::kReject);
    EXPECT_EQ(r.detail, "dlopen");
    EXPECT_EQ(r.retries, 0);
    // The worker survives to serve the next request.
    meta::RunnerResult again = runner.run(dummyRequest(workload, 2));
    EXPECT_EQ(again.status, meta::RunnerStatus::kReject);
}

TEST(MeasureRunnerTest, ClassifiesInjectedAbortAsCrash)
{
    PrimFunc workload = testutil::matmul(4, 4, 4);
    // Configured before construction: workers inherit the failpoint
    // registry at fork time.
    failpoint::ScopedFailpoints chaos("runner.crash=error(1)");
    meta::MeasureRunner runner(workload, meta::RunnerConfig{});
    meta::RunnerResult r = runner.run(dummyRequest(workload, 7));
    EXPECT_EQ(r.status, meta::RunnerStatus::kCrash);
    EXPECT_EQ(r.term_signal, SIGABRT);
    // Deterministic death is never retried.
    EXPECT_EQ(r.retries, 0);
}

TEST(MeasureRunnerTest, ClassifiesInjectedSegfaultAsCrash)
{
    PrimFunc workload = testutil::matmul(4, 4, 4);
    failpoint::ScopedFailpoints chaos("runner.segv=error(1)");
    meta::MeasureRunner runner(workload, meta::RunnerConfig{});
    meta::RunnerResult r = runner.run(dummyRequest(workload, 7));
    EXPECT_EQ(r.status, meta::RunnerStatus::kCrash);
    // Normally the worker dies by the raw signal. Under a sanitizer
    // runtime the in-child SEGV handler reports and exits nonzero
    // instead; either death is classified as a crash.
    EXPECT_TRUE(r.term_signal == SIGSEGV ||
                (r.term_signal == 0 && r.exit_code != 0))
        << "term_signal=" << r.term_signal
        << " exit_code=" << r.exit_code;
    // The crashed worker was replaced: the next candidate still runs.
    failpoint::configure("");
    meta::RunnerResult next = runner.run(dummyRequest(workload, 8));
    EXPECT_EQ(next.status, meta::RunnerStatus::kReject);
}

TEST(MeasureRunnerTest, KillsHungWorkerAtTimeout)
{
    PrimFunc workload = testutil::matmul(4, 4, 4);
    failpoint::ScopedFailpoints chaos("runner.hang=error(1)");
    meta::RunnerConfig config;
    config.timeout_ms = 200; // the hard SIGKILL deadline under test
    meta::MeasureRunner runner(workload, config);
    meta::RunnerResult r = runner.run(dummyRequest(workload, 7));
    EXPECT_EQ(r.status, meta::RunnerStatus::kHang);
    EXPECT_EQ(r.term_signal, SIGKILL);
    EXPECT_EQ(r.retries, 0);
}

TEST(MeasureRunnerTest, RetriesStartupFailureThenReportsUnavailable)
{
    PrimFunc workload = testutil::matmul(4, 4, 4);
    failpoint::ScopedFailpoints chaos("runner.spawn=error(1)");
    meta::RunnerConfig config;
    config.retries = 2;
    config.backoff_ms = 1;
    meta::MeasureRunner runner(workload, config);
    meta::RunnerResult r = runner.run(dummyRequest(workload, 7));
    // Transient startup failure: retried with backoff, then surfaced
    // as unavailable (the caller serves the analytical estimate).
    EXPECT_EQ(r.status, meta::RunnerStatus::kUnavailable);
    EXPECT_EQ(r.retries, config.retries);
    // One spawn attempt in the constructor plus one per run() attempt.
    EXPECT_GE(failpoint::stats("runner.spawn").fired,
              static_cast<uint64_t>(config.retries) + 2);
}

// --- search-level accounting under worker death ------------------------

/** Private JIT cache + neutral engine env, like JitMeasurerTest: these
 *  tests compile real kernels and must not share cache state with the
 *  ambient CI environment. */
class RunnerSearchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cache_env_.emplace("TENSORIR_JIT_CACHE",
                           cache_dir_.path().c_str());
        engine_env_.emplace("TENSORIR_ENGINE", nullptr);
        runtime::jitResetForTesting();
    }

    void TearDown() override { runtime::jitResetForTesting(); }

    static meta::TuneOptions
    options(uint64_t seed)
    {
        meta::TuneOptions opts;
        opts.population = 4;
        opts.generations = 2;
        opts.children_per_generation = 8;
        opts.measured_per_generation = 3;
        opts.seed = seed;
        opts.parallelism = 1;
        opts.measure_backend = "jit";
        opts.measure_warmup = 0;
        opts.measure_repeats_real = 1;
        return opts;
    }

    testutil::ScopedTempDir cache_dir_;
    std::optional<ScopedEnv> cache_env_;
    std::optional<ScopedEnv> engine_env_;
};

TEST_F(RunnerSearchTest, CrashedCandidatesAreFilteredNotFatal)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "needs a native toolchain";
    }
    workloads::OpSpec op =
        workloads::gmm(16, 16, 16, DataType::f32(), DataType::f32());
    hwsim::CpuDevice cpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/false);
    // Half the candidates abort their worker (data-keyed, so the same
    // candidates crash on every run): the tune must still complete,
    // with the victims counted as crashes and the survivors measured.
    failpoint::ScopedFailpoints chaos(
        "seed=11; runner.crash=error(0.5)");
    meta::TuneResult result =
        meta::evolutionarySearch(op.func, sketch, cpu, options(91));
    EXPECT_GT(result.crash_filtered, 0);
    EXPECT_EQ(result.hang_filtered, 0);
    // Crashes are rejected before commit: not trials.
    EXPECT_EQ(result.trials_measured,
              result.measured_valid + result.measured_invalid);
    EXPECT_GT(result.trials_measured, 0);
    EXPECT_TRUE(std::isfinite(result.best_latency_us));
}

TEST_F(RunnerSearchTest, SegfaultingCandidatesAreFilteredNotFatal)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "needs a native toolchain";
    }
    workloads::OpSpec op =
        workloads::gmm(16, 16, 16, DataType::f32(), DataType::f32());
    hwsim::CpuDevice cpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/false);
    failpoint::ScopedFailpoints chaos(
        "seed=11; runner.segv=error(0.5)");
    meta::TuneResult result =
        meta::evolutionarySearch(op.func, sketch, cpu, options(91));
    EXPECT_GT(result.crash_filtered, 0);
    EXPECT_EQ(result.trials_measured,
              result.measured_valid + result.measured_invalid);
    EXPECT_GT(result.trials_measured, 0);
}

TEST_F(RunnerSearchTest, HangingCandidatesAreTimeoutKilledAndFiltered)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "needs a native toolchain";
    }
    workloads::OpSpec op =
        workloads::gmm(16, 16, 16, DataType::f32(), DataType::f32());
    hwsim::CpuDevice cpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/false);
    // A short hard timeout keeps the SIGKILL path fast; the hang
    // failpoint wedges the worker in a pause() loop the cooperative
    // watchdog could never interrupt.
    ScopedEnv timeout("TENSORIR_MEASURE_TIMEOUT_MS", "300");
    failpoint::ScopedFailpoints chaos(
        "seed=11; runner.hang=error(0.5)");
    meta::TuneResult result =
        meta::evolutionarySearch(op.func, sketch, cpu, options(91));
    EXPECT_GT(result.hang_filtered, 0);
    EXPECT_EQ(result.crash_filtered, 0);
    EXPECT_EQ(result.trials_measured,
              result.measured_valid + result.measured_invalid);
    EXPECT_GT(result.trials_measured, 0);
}

TEST_F(RunnerSearchTest, ExhaustedStartupRetriesFallBackToEstimate)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "needs a native toolchain";
    }
    workloads::OpSpec op =
        workloads::gmm(16, 16, 16, DataType::f32(), DataType::f32());
    hwsim::CpuDevice cpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/false);
    ScopedEnv retries("TENSORIR_RUNNER_RETRIES", "1");
    failpoint::ScopedFailpoints chaos("runner.spawn=error(1)");
    meta::TuneResult result =
        meta::evolutionarySearch(op.func, sketch, cpu, options(91));
    // No worker ever came up, so every measurement served the
    // analytical estimate: the tune completes, no generated code ran in
    // this process, and nothing counts as a crash or a hang. (A trial
    // served from the memo is a duplicate that never reached the
    // backend.)
    EXPECT_GT(result.measure_fallbacks, 0);
    EXPECT_EQ(result.measure_fallbacks,
              result.trials_measured - result.memo_measure_hits);
    EXPECT_EQ(result.crash_filtered, 0);
    EXPECT_EQ(result.hang_filtered, 0);
    EXPECT_TRUE(std::isfinite(result.best_latency_us));
    // The constructor's attempt plus (retries + 1) run() attempts for
    // the first candidate; after that unavailable result the measurer
    // never asks for a worker again.
    EXPECT_EQ(failpoint::stats("runner.spawn").fired, 3u);
}

// --- journaled resume with crash classifications -----------------------

TEST_F(RunnerSearchTest, CrashClassificationsReplayByteIdentical)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "needs a native toolchain";
    }
    workloads::OpSpec op =
        workloads::gmm(16, 16, 16, DataType::f32(), DataType::f32());
    hwsim::CpuDevice cpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/false);
    testutil::ScopedTempDir dir;
    const std::string journal = dir.file("runner_crash_journal.txt");
    meta::resetJournal(journal);

    meta::TuneOptions opts = options(91);
    opts.journal_path = journal;
    opts.journal_label = "runner_crash";

    // Roughly half the candidates crash their worker (data-keyed, so
    // the *same* candidates crash in every run and on every resume).
    const std::string chaos_spec = "seed=11; runner.crash=error(0.5)";

    // Kill the search at the third checkpoint write: generation 1's
    // results — including its crash classifications — are lost and
    // must be re-derived on resume.
    {
        failpoint::ScopedFailpoints chaos(
            chaos_spec + "; search.checkpoint=throw@2");
        EXPECT_THROW(
            meta::evolutionarySearch(op.func, sketch, cpu, opts),
            failpoint::InjectedFault);
    }

    meta::TuneOptions resume_opts = opts;
    resume_opts.resume = true;
    failpoint::ScopedFailpoints chaos(chaos_spec);
    meta::TuneResult resumed =
        meta::evolutionarySearch(op.func, sketch, cpu, resume_opts);
    EXPECT_EQ(resumed.generations_replayed, 2);
    EXPECT_GT(resumed.crash_filtered, 0);
    EXPECT_EQ(resumed.trials_measured,
              resumed.measured_valid + resumed.measured_invalid);

    // A second resume replays the now-complete journal without
    // re-measuring (or re-crashing) anything, and must reproduce the
    // crashed-and-resumed run byte for byte — including the crash
    // accounting, which only the journal can supply.
    meta::TuneResult replayed =
        meta::evolutionarySearch(op.func, sketch, cpu, resume_opts);
    EXPECT_EQ(replayed.generations_replayed, opts.generations + 1);
    EXPECT_EQ(replayed.counters(), resumed.counters());
    EXPECT_EQ(replayed.best_latency_us, resumed.best_latency_us);
    EXPECT_EQ(replayed.history, resumed.history);
    EXPECT_EQ(replayed.tuning_cost_us, resumed.tuning_cost_us);
    if (std::isfinite(resumed.best_latency_us)) {
        EXPECT_EQ(funcToString(replayed.best_func),
                  funcToString(resumed.best_func));
    }
}

} // namespace
} // namespace tir
