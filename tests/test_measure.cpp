/**
 * @file
 * Measurement-backend tests: the strict env parsing that replaced
 * std::atoi/raw strtoull (TENSORIR_PARALLELISM, TENSORIR_JIT_CACHE_MB
 * — both regression tests failed before the fixes), the JitMeasurer
 * smoke contract (positive latency, median stability, hwsim fallback
 * without a toolchain, compile-budget rejection), the Table 1
 * accounting invariant trials_measured == measured_valid +
 * measured_invalid on both backends, and byte-identical journal
 * resume of wall-clock runs (complete replay and kill-mid-checkpoint).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>

#include "ir/printer.h"
#include "meta/journal.h"
#include "meta/measure.h"
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

// --- env parsing: TENSORIR_PARALLELISM ---------------------------------

TEST(EnvParsing, ParallelismRejectsGarbage)
{
    meta::TuneOptions options; // parallelism = 0 → consult the env
    // Before the fix, std::atoi mapped all of these to 0 (or UB) and
    // the search silently fell back to hardware_concurrency.
    for (const char* bad : {"abc", "8x", " 8", "0x10"}) {
        ScopedEnv env("TENSORIR_PARALLELISM", bad);
        EXPECT_THROW(meta::resolveParallelism(options), FatalError)
            << "value \"" << bad << "\" must be rejected";
    }
}

TEST(EnvParsing, ParallelismRejectsNonPositiveAndOverflow)
{
    meta::TuneOptions options;
    // Sign characters never pass the all-digits check, so "-2" cannot
    // wrap through strtoull; "0" is non-positive; the 2^64-overflow
    // and the fits-in-ull-but-not-int values are out of range.
    for (const char* bad :
         {"-2", "+4", "0", "18446744073709551616", "4294967296"}) {
        ScopedEnv env("TENSORIR_PARALLELISM", bad);
        EXPECT_THROW(meta::resolveParallelism(options), FatalError)
            << "value \"" << bad << "\" must be rejected";
    }
}

TEST(EnvParsing, ParallelismAcceptsValidAndEmptyFallsBack)
{
    meta::TuneOptions options;
    {
        ScopedEnv env("TENSORIR_PARALLELISM", "3");
        EXPECT_EQ(meta::resolveParallelism(options), 3);
    }
    {
        // Empty counts as unset: fall back to hardware_concurrency.
        ScopedEnv env("TENSORIR_PARALLELISM", "");
        EXPECT_GT(meta::resolveParallelism(options), 0);
    }
    {
        // An explicit option wins before the env is even looked at.
        ScopedEnv env("TENSORIR_PARALLELISM", "garbage");
        options.parallelism = 2;
        EXPECT_EQ(meta::resolveParallelism(options), 2);
    }
}

// --- env parsing: TENSORIR_JIT_CACHE_MB --------------------------------

TEST(EnvParsing, JitCacheMbRejectsSignsAndGarbage)
{
    // Before the fix, "-1" passed the endptr check (strtoull wraps
    // negatives to huge values) and configured an effectively
    // unbounded cache.
    for (const char* bad : {"-1", "+1", "abc", "64mb", " 64"}) {
        ScopedEnv env("TENSORIR_JIT_CACHE_MB", bad);
        EXPECT_THROW(runtime::jitCacheCapBytes(), FatalError)
            << "value \"" << bad << "\" must be rejected";
    }
}

TEST(EnvParsing, JitCacheMbRejectsRangeOverflowAndClampsMultiply)
{
    {
        // 2^64: out of strtoull's range entirely (ERANGE).
        ScopedEnv env("TENSORIR_JIT_CACHE_MB", "18446744073709551616");
        EXPECT_THROW(runtime::jitCacheCapBytes(), FatalError);
    }
    {
        // Parses as a uint64_t but the * 1024 * 1024 would overflow;
        // before the fix this wrapped to an arbitrary small cap.
        ScopedEnv env("TENSORIR_JIT_CACHE_MB", "99999999999999");
        EXPECT_EQ(runtime::jitCacheCapBytes(),
                  std::numeric_limits<uint64_t>::max());
    }
}

TEST(EnvParsing, JitCacheMbAcceptsValidAndDefaults)
{
    {
        ScopedEnv env("TENSORIR_JIT_CACHE_MB", "16");
        EXPECT_EQ(runtime::jitCacheCapBytes(), 16ull * 1024 * 1024);
    }
    {
        ScopedEnv env("TENSORIR_JIT_CACHE_MB", "");
        EXPECT_EQ(runtime::jitCacheCapBytes(), 64ull * 1024 * 1024);
    }
    {
        ScopedEnv env("TENSORIR_JIT_CACHE_MB", nullptr);
        EXPECT_EQ(runtime::jitCacheCapBytes(), 64ull * 1024 * 1024);
    }
}

// --- MeasureBackend unit contract --------------------------------------

TEST(MeasureBackendTest, HwsimServesTheEstimate)
{
    meta::HwsimMeasurer backend;
    PrimFunc func = testutil::matmul(4, 4, 4);
    hwsim::RunEstimate good;
    good.latency_us = 123.5;
    meta::Measurement m = backend.measure(func, good);
    EXPECT_TRUE(m.valid());
    EXPECT_EQ(m.latency_us, 123.5);
    EXPECT_FALSE(m.fallback);
    EXPECT_FALSE(m.compile_timeout);

    hwsim::RunEstimate rejected;
    rejected.latency_us = 1.0;
    rejected.violation = "too many threads";
    meta::Measurement r = backend.measure(func, rejected);
    EXPECT_FALSE(r.valid());
}

TEST(MeasureBackendTest, FactoryResolvesNamesStrictly)
{
    PrimFunc func = testutil::matmul(4, 4, 4);
    meta::MeasureConfig config;
    EXPECT_STREQ(meta::makeMeasureBackend("", func, config)->name(),
                 "hwsim");
    EXPECT_STREQ(
        meta::makeMeasureBackend("hwsim", func, config)->name(),
        "hwsim");
    EXPECT_STREQ(meta::makeMeasureBackend("jit", func, config)->name(),
                 "jit");
    EXPECT_TRUE(meta::makeMeasureBackend("", func, config)
                    ->deterministic());
    EXPECT_FALSE(meta::makeMeasureBackend("jit", func, config)
                     ->deterministic());
    EXPECT_THROW(meta::makeMeasureBackend("gpu", func, config),
                 FatalError);
}

/** Fixture for tests that time real native code: private on-disk JIT
 *  cache and clean in-memory JIT state, like test_jit.cpp. */
class JitMeasurerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cache_env_.emplace("TENSORIR_JIT_CACHE",
                           cache_dir_.path().c_str());
        runtime::jitResetForTesting();
    }

    void TearDown() override { runtime::jitResetForTesting(); }

    testutil::ScopedTempDir cache_dir_;
    std::optional<ScopedEnv> cache_env_;
};

TEST_F(JitMeasurerTest, SmokeMeasuresTinyWorkload)
{
    PrimFunc func = testutil::matmul(8, 8, 8);
    hwsim::RunEstimate estimate = hwsim::CpuDevice().run(func);
    ASSERT_TRUE(estimate.valid());
    meta::MeasureConfig config;
    config.warmup = 1;
    config.repeats = 5;
    meta::JitMeasurer backend(func, config);
    meta::Measurement first = backend.measure(func, estimate);
    if (!runtime::jitAvailable()) {
        EXPECT_TRUE(first.fallback);
        EXPECT_EQ(first.latency_us, estimate.latency_us);
        return;
    }
    EXPECT_FALSE(first.fallback);
    EXPECT_FALSE(first.compile_timeout);
    ASSERT_TRUE(first.valid());
    EXPECT_GT(first.latency_us, 0.0);
    EXPECT_GT(first.wall_us, 0.0);
    // Median stability: a second measurement of the same kernel (now a
    // warm cache hit) stays within a generous factor of the first —
    // the median-of-k discipline is what keeps this bound loose but
    // safe on a noisy shared host.
    meta::Measurement second = backend.measure(func, estimate);
    ASSERT_TRUE(second.valid());
    EXPECT_GT(second.latency_us, 0.0);
    EXPECT_LT(second.latency_us, first.latency_us * 1000.0);
    EXPECT_LT(first.latency_us, second.latency_us * 1000.0);
}

TEST_F(JitMeasurerTest, NoToolchainFallsBackToHwsim)
{
    ScopedEnv cc("TENSORIR_CC", "/nonexistent/tensorir-cc");
    runtime::jitResetForTesting();
    PrimFunc func = testutil::matmul(8, 8, 8);
    hwsim::RunEstimate estimate = hwsim::CpuDevice().run(func);
    meta::JitMeasurer backend(func, meta::MeasureConfig{});
    meta::Measurement m = backend.measure(func, estimate);
    EXPECT_TRUE(m.fallback);
    EXPECT_TRUE(m.valid());
    EXPECT_EQ(m.latency_us, estimate.latency_us);
}

TEST_F(JitMeasurerTest, DeviceViolationRejectsBeforeCompile)
{
    PrimFunc func = testutil::matmul(8, 8, 8);
    hwsim::RunEstimate rejected;
    rejected.violation = "shared memory over capacity";
    meta::JitMeasurer backend(func, meta::MeasureConfig{});
    meta::Measurement m = backend.measure(func, rejected);
    EXPECT_FALSE(m.valid());
    EXPECT_FALSE(m.fallback);
}

TEST_F(JitMeasurerTest, CompileBudgetRejects)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "no toolchain: the budget path needs a compile";
    }
    runtime::jitResetForTesting(); // force a real (not cached) compile
    PrimFunc func = testutil::matmul(8, 8, 8);
    hwsim::RunEstimate estimate = hwsim::CpuDevice().run(func);
    meta::MeasureConfig config;
    config.compile_budget_ms = 1e-6; // any real compile exceeds this
    meta::JitMeasurer backend(func, config);
    meta::Measurement m = backend.measure(func, estimate);
    EXPECT_TRUE(m.compile_timeout);
    EXPECT_FALSE(m.valid());
    EXPECT_FALSE(m.fallback);
}

// --- the Table 1 accounting invariant ----------------------------------

meta::TuneOptions
measureSearchOptions(uint64_t seed)
{
    meta::TuneOptions options;
    options.population = 4;
    options.generations = 2;
    options.children_per_generation = 8;
    options.measured_per_generation = 3;
    options.seed = seed;
    options.parallelism = 1;
    return options;
}

TEST(MeasureAccountingTest, TrialsSplitInvariantOnHwsim)
{
    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    hwsim::GpuDevice gpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);
    meta::TuneOptions options = measureSearchOptions(91);
    options.generations = 3;
    meta::TuneResult result =
        meta::evolutionarySearch(op.func, sketch, gpu, options);
    EXPECT_GT(result.trials_measured, 0);
    // The regression-pinned invariant: every trial is exactly one of
    // valid or invalid, on every backend.
    EXPECT_EQ(result.trials_measured,
              result.measured_valid + result.measured_invalid);
    // Measurement-time rejects are also charged to the historical
    // invalid_filtered column (which additionally holds structural
    // rejects, hence >=).
    EXPECT_GE(result.invalid_filtered, result.measured_invalid);
    EXPECT_EQ(result.compile_timeout_filtered, 0);
    EXPECT_EQ(result.measure_fallbacks, 0);
    // Every trial — valid or not — was charged the per-measurement
    // compile+launch overhead.
    EXPECT_GE(result.tuning_cost_us,
              result.trials_measured * options.measure_overhead_us);
}

TEST(MeasureAccountingTest, TrialsSplitInvariantOnJitBackend)
{
    workloads::OpSpec op =
        workloads::gmm(16, 16, 16, DataType::f32(), DataType::f32());
    hwsim::CpuDevice cpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/false);
    meta::TuneOptions options = measureSearchOptions(91);
    options.measure_backend = "jit";
    options.measure_warmup = 0;
    options.measure_repeats_real = 1;
    meta::TuneResult result =
        meta::evolutionarySearch(op.func, sketch, cpu, options);
    EXPECT_GT(result.trials_measured, 0);
    EXPECT_EQ(result.trials_measured,
              result.measured_valid + result.measured_invalid);
    EXPECT_GE(result.invalid_filtered, result.measured_invalid);
    // Without a toolchain every measurement falls back to the
    // analytical estimate — the tune still completes, with the
    // fallbacks accounted.
    EXPECT_LE(result.measure_fallbacks, result.trials_measured);
    EXPECT_TRUE(std::isfinite(result.best_latency_us));
}

// --- journaled wall-clock resume ---------------------------------------

void
expectIdenticalResults(const meta::TuneResult& a,
                       const meta::TuneResult& b)
{
    EXPECT_EQ(a.best_latency_us, b.best_latency_us);
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.counters(), b.counters());
    EXPECT_EQ(a.tuning_cost_us, b.tuning_cost_us);
    EXPECT_EQ(funcToString(a.best_func), funcToString(b.best_func));
}

TEST(MeasureResumeTest, JitBackendCompleteJournalReplaysByteIdentical)
{
    // Wall-clock latencies are not reproducible across runs — the
    // journal is. A resume from a *complete* section must reproduce
    // the original wall-clock TuneResult byte for byte without
    // re-measuring anything.
    workloads::OpSpec op =
        workloads::gmm(16, 16, 16, DataType::f32(), DataType::f32());
    hwsim::CpuDevice cpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/false);
    testutil::ScopedTempDir dir;
    const std::string journal = dir.file("measure_resume_journal.txt");
    meta::resetJournal(journal);
    failpoint::ScopedFailpoints quiet("");

    meta::TuneOptions options = measureSearchOptions(91);
    options.measure_backend = "jit";
    options.measure_warmup = 0;
    options.measure_repeats_real = 1;
    options.journal_path = journal;
    options.journal_label = "measure_resume";

    meta::TuneResult original =
        meta::evolutionarySearch(op.func, sketch, cpu, options);

    meta::TuneOptions resume_options = options;
    resume_options.resume = true;
    meta::TuneResult replayed =
        meta::evolutionarySearch(op.func, sketch, cpu, resume_options);

    EXPECT_EQ(replayed.generations_replayed, options.generations + 1);
    expectIdenticalResults(original, replayed);
}

TEST(MeasureResumeTest, JitBackendResumesAfterCrashMidCheckpoint)
{
    // The kill-mid-checkpoint contract extended to the wall-clock
    // backend: crash after a generation finished but before its
    // checkpoint persisted, resume (re-measuring only the lost work),
    // then resume once more from the now-complete journal — which must
    // reproduce the crashed-and-resumed run byte for byte, because
    // every committed latency was journaled.
    workloads::OpSpec op =
        workloads::gmm(16, 16, 16, DataType::f32(), DataType::f32());
    hwsim::CpuDevice cpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/false);
    testutil::ScopedTempDir dir;
    const std::string journal = dir.file("measure_crash_journal.txt");
    meta::resetJournal(journal);
    failpoint::ScopedFailpoints quiet("");

    meta::TuneOptions options = measureSearchOptions(91);
    options.measure_backend = "jit";
    options.measure_warmup = 0;
    options.measure_repeats_real = 1;
    options.journal_path = journal;
    options.journal_label = "measure_crash";

    // Crash at the third checkpoint write: the init checkpoint and
    // generation 0's survive, generation 1's work is lost mid-write.
    {
        failpoint::ScopedFailpoints kill("search.checkpoint=throw@2");
        EXPECT_THROW(
            meta::evolutionarySearch(op.func, sketch, cpu, options),
            failpoint::InjectedFault);
    }

    meta::TuneOptions resume_options = options;
    resume_options.resume = true;
    meta::TuneResult resumed =
        meta::evolutionarySearch(op.func, sketch, cpu, resume_options);
    EXPECT_EQ(resumed.generations_replayed, 2)
        << "expected the init checkpoint plus generation 0 restored";
    EXPECT_EQ(resumed.trials_measured,
              resumed.measured_valid + resumed.measured_invalid);

    meta::TuneResult replayed = meta::evolutionarySearch(
        op.func, sketch, cpu, resume_options);
    EXPECT_EQ(replayed.generations_replayed, options.generations + 1);
    expectIdenticalResults(resumed, replayed);
}

} // namespace
} // namespace tir
