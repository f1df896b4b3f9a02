/**
 * @file
 * The parallel tuning pipeline's determinism contract: for a fixed
 * seed, tuning results are byte-identical for any `parallelism`
 * setting, because candidate RNGs derive from (seed, generation,
 * child_index) and all folds run sequentially in candidate order. Also
 * covers the structural-hash memo cache and the thread-pool / RNG
 * building blocks.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_map>

#include "intrin/tensor_intrin.h"
#include "ir/printer.h"
#include "meta/journal.h"
#include "meta/memo.h"
#include "meta/search.h"
#include "meta/sketch.h"
#include "support/failpoint.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

void
expectSameDecisions(const std::vector<Decision>& a,
                    const std::vector<Decision>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << "decision " << i;
        EXPECT_EQ(a[i].extent, b[i].extent) << "decision " << i;
        EXPECT_EQ(a[i].number, b[i].number) << "decision " << i;
        EXPECT_EQ(a[i].max_innermost, b[i].max_innermost)
            << "decision " << i;
        EXPECT_EQ(a[i].values, b[i].values) << "decision " << i;
        EXPECT_EQ(a[i].num_candidates, b[i].num_candidates)
            << "decision " << i;
    }
}

meta::TuneOptions
searchOptions(int parallelism)
{
    meta::TuneOptions options;
    options.population = 8;
    options.generations = 4;
    options.children_per_generation = 16;
    options.measured_per_generation = 6;
    options.seed = 91;
    options.parallelism = parallelism;
    return options;
}

TEST(ParallelSearchTest, ByteIdenticalAcrossParallelism)
{
    workloads::OpSpec op = workloads::gmm(256, 256, 256);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};

    meta::TuneResult serial = meta::autoTune(
        task, gpu, searchOptions(1), meta::TunerStyle::kTensorIR);
    meta::TuneResult parallel = meta::autoTune(
        task, gpu, searchOptions(4), meta::TunerStyle::kTensorIR);

    EXPECT_EQ(serial.parallelism_used, 1);
    EXPECT_EQ(parallel.parallelism_used, 4);

    // The contract: identical winners, trajectories, and accounting.
    expectSameDecisions(serial.best_decisions, parallel.best_decisions);
    EXPECT_EQ(serial.best_latency_us, parallel.best_latency_us);
    EXPECT_EQ(serial.best_sketch, parallel.best_sketch);
    EXPECT_EQ(serial.history, parallel.history);
    EXPECT_EQ(serial.counters(), parallel.counters());
    EXPECT_EQ(serial.tuning_cost_us, parallel.tuning_cost_us);
    // Even the winning program is the same, byte for byte.
    EXPECT_EQ(funcToString(serial.best_func),
              funcToString(parallel.best_func));
}

TEST(ParallelSearchTest, MemoCacheHitsDuplicateCandidates)
{
    // Mutation frequently re-derives an already-seen schedule (a tile
    // factor moved back, two parents producing the same child); each
    // such duplicate must hit the structural-hash memo rather than pay
    // feature extraction again.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions options = searchOptions(2);
    options.generations = 6;
    meta::TuneResult result =
        meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR);

    EXPECT_GT(result.memo_hits, 0)
        << "expected duplicate candidates across generations";
    // Duplicates that reach the measurement stage are served from the
    // memo (no re-run) but still charged the simulated profiling cost,
    // so Table 1 accounting stays comparable across personas.
    EXPECT_GT(result.memo_measure_hits, 0);
    // Sanity-check that accounting: every measured trial — memo hit or
    // not — was charged at least the per-measurement overhead.
    EXPECT_GE(result.tuning_cost_us,
              result.trials_measured * options.measure_overhead_us);
}

TEST(ParallelSearchTest, StageTimingsAreRecorded)
{
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions options = searchOptions(2);
    options.generations = 2;
    meta::TuneResult result =
        meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR);
    EXPECT_GT(result.timings.generate_s, 0.0);
    EXPECT_GT(result.timings.evaluate_s, 0.0);
    EXPECT_GT(result.timings.total_s, 0.0);
    EXPECT_GE(result.timings.total_s,
              result.timings.generate_s + result.timings.evaluate_s);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce)
{
    support::ThreadPool pool(4);
    EXPECT_EQ(pool.parallelism(), 4);
    std::vector<std::atomic<int>> counts(1000);
    pool.parallelFor(counts.size(),
                     [&](size_t i) { counts[i].fetch_add(1); });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
    // Reusable for further batches.
    std::atomic<long> sum{0};
    pool.parallelFor(100, [&](size_t i) {
        sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, PropagatesWorkerExceptions)
{
    support::ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](size_t i) {
                                      if (i == 13) {
                                          throw std::runtime_error("boom");
                                      }
                                  }),
                 std::runtime_error);
    // The pool survives a failed batch.
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, ThrowingWorkerDrainsBatchAndFirstErrorWins)
{
    // One candidate throwing must not strand the rest of the batch:
    // every index still runs (workers keep claiming after a failure),
    // exactly one exception reaches the caller, and the pool stays
    // usable. This is the search's behaviour when sketch instantiation
    // fails for some candidates of a generation.
    support::ThreadPool pool(4);
    std::vector<std::atomic<int>> ran(64);
    int caught = 0;
    try {
        pool.parallelFor(ran.size(), [&](size_t i) {
            ran[i].fetch_add(1);
            throw std::runtime_error("candidate " + std::to_string(i));
        });
    } catch (const std::runtime_error& e) {
        ++caught;
        EXPECT_NE(std::string(e.what()).find("candidate"),
                  std::string::npos);
    }
    EXPECT_EQ(caught, 1) << "exactly the first error must propagate";
    for (const auto& r : ran) {
        EXPECT_EQ(r.load(), 1) << "batch must drain despite the errors";
    }
    // Reusable after a fully-failing batch.
    std::atomic<int> ok{0};
    pool.parallelFor(16, [&](size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 16);
}

TEST(ThreadPoolTest, DestructionRightAfterBatchIsClean)
{
    // Regression: ~ThreadPool must join workers before tearing down the
    // mutex/condition variables they wait on. Destroying the pool
    // immediately after a batch — while workers may still be inside
    // batch_ready_.wait — is exactly the end-of-search pattern.
    for (int iter = 0; iter < 50; ++iter) {
        support::ThreadPool pool(4);
        std::atomic<int> ran{0};
        pool.parallelFor(16, [&](size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 16);
    }
}

TEST(ThreadPoolTest, SingleThreadRunsInline)
{
    support::ThreadPool pool(1);
    EXPECT_EQ(pool.parallelism(), 1);
    std::vector<int> order;
    pool.parallelFor(5, [&](size_t i) {
        order.push_back(static_cast<int>(i));
    });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, BackgroundTasksRunAndDrain)
{
    support::ThreadPool pool(4);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&] { ran.fetch_add(1); });
    }
    pool.drain();
    EXPECT_EQ(ran.load(), 100);
    EXPECT_EQ(pool.pendingTasks(), 0u);
    EXPECT_EQ(pool.taskExceptions(), 0);
}

TEST(ThreadPoolTest, TasksAndBatchesShareWorkers)
{
    // A long-running background task occupies one worker; parallelFor
    // must still complete on the rest (the serving layer tunes in the
    // background while searches run batches on the same pool).
    support::ThreadPool pool(4);
    std::atomic<bool> release{false};
    std::atomic<int> task_ran{0};
    pool.submit([&] {
        while (!release.load()) std::this_thread::yield();
        task_ran.fetch_add(1);
    });
    std::atomic<int> batch_ran{0};
    pool.parallelFor(64, [&](size_t) { batch_ran.fetch_add(1); });
    EXPECT_EQ(batch_ran.load(), 64);
    release.store(true);
    pool.drain();
    EXPECT_EQ(task_ran.load(), 1);
    EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPoolTest, ThrowingTaskIsContainedAndCounted)
{
    support::ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([] { throw std::runtime_error("contained"); });
    pool.submit([&] { ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(ran.load(), 1) << "a throwing task must not kill workers";
    EXPECT_EQ(pool.taskExceptions(), 1);
    EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPoolTest, WorkerWokenForExhaustedBatchGoesBackToWaiting)
{
    // Regression for the claim race: a worker wakes because a batch is
    // open, and before it re-checks, the owner's lock-free claim takes
    // the last index. The worker used to fall into the task branch and
    // pop an empty queue. The `thread_pool.claim` delay holds the
    // worker between wake-up and re-check while the owner — parked on
    // index 0 just long enough for the worker to wake — claims index 1,
    // which forces that interleaving even on one CPU.
    support::ThreadPool pool(2);
    {
        failpoint::ScopedFailpoints slow("thread_pool.claim=delay(1,20)");
        for (int round = 0; round < 5; ++round) {
            std::atomic<int> ran{0};
            pool.parallelFor(2, [&](size_t i) {
                if (i == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                }
                ran.fetch_add(1);
            });
            EXPECT_EQ(ran.load(), 2);
        }
        EXPECT_GT(failpoint::stats("thread_pool.claim").fired, 0u);
    }
    EXPECT_EQ(pool.taskExceptions(), 0);
    EXPECT_EQ(pool.pendingTasks(), 0u);
    std::atomic<int> task_ran{0};
    pool.submit([&] { task_ran.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(task_ran.load(), 1);
    EXPECT_EQ(pool.pendingTasks(), 0u);
}

TEST(ThreadPoolTest, SubmitOnWorkerlessPoolFails)
{
    // threads = 1 means no workers: a "background" task could only run
    // by blocking the submitter, so submit fails loudly instead.
    support::ThreadPool pool(1);
    EXPECT_THROW(pool.submit([] {}), InternalError);
}

TEST(ParallelSearchTest, ThrowingCandidatesKeepDeterminism)
{
    // A sketch that throws FatalError for a deterministic subset of
    // candidates (a stand-in for instantiation failures) must leave
    // the parallelism contract intact: throwing candidates are counted
    // as structural rejects and the surviving trajectory is identical
    // for any thread count.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::SketchApplier base =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);
    meta::SketchApplier flaky = [base](Schedule& sch) {
        base(sch);
        // Pure function of the candidate's decisions, so the same
        // candidates fail no matter which worker instantiates them.
        int64_t sum = 0;
        for (const Decision& d : sch.decisions()) {
            for (int64_t v : d.values) sum += v;
        }
        if (sum % 3 == 0) TIR_FATAL << "deterministic flaky candidate";
    };

    auto run = [&](int parallelism) {
        meta::TuneOptions options = searchOptions(parallelism);
        return meta::evolutionarySearch(op.func, flaky, gpu, options);
    };
    meta::TuneResult serial = run(1);
    meta::TuneResult parallel = run(4);

    EXPECT_GT(serial.invalid_filtered, 0)
        << "the flaky sketch never fired; the test lost its point";
    expectSameDecisions(serial.best_decisions, parallel.best_decisions);
    EXPECT_EQ(serial.best_latency_us, parallel.best_latency_us);
    EXPECT_EQ(serial.history, parallel.history);
    EXPECT_EQ(serial.counters(), parallel.counters());
    EXPECT_EQ(serial.tuning_cost_us, parallel.tuning_cost_us);
}

TEST(ParallelSearchTest, InjectedFailuresAreAccountedExactly)
{
    // Every injected instantiation fault must show up in the result's
    // accounting: the site fires once per doomed candidate (it is keyed
    // by the candidate's schedule seed), and each fired candidate is
    // contained as exactly one runtime reject — never process death.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);

    failpoint::ScopedFailpoints chaos(
        "seed=21; search.instantiate=throw(0.25)");
    meta::TuneResult result =
        meta::evolutionarySearch(op.func, sketch, gpu, searchOptions(2));
    failpoint::SiteStats st = failpoint::stats("search.instantiate");

    EXPECT_GT(st.fired, 0u) << "p=0.25 chaos schedule never fired";
    EXPECT_GT(st.evaluated, st.fired);
    EXPECT_EQ(result.runtime_filtered, static_cast<int>(st.fired));
    // The search itself still converged on a winner.
    EXPECT_TRUE(std::isfinite(result.best_latency_us));
    EXPECT_EQ(result.history.size(),
              static_cast<size_t>(searchOptions(2).generations) + 1);
}

TEST(ParallelSearchTest, CompletedTracesAreNotReplayed)
{
    // A mutated child often spells out a decision trace the search has
    // already completed; it takes that trace's outcome instead of being
    // instantiated again, so the applier runs fewer times than the
    // search generates candidates.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::SketchApplier base =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);
    std::atomic<int> calls{0};
    meta::SketchApplier counting = [&](Schedule& sch) {
        calls.fetch_add(1, std::memory_order_relaxed);
        base(sch);
    };
    meta::TuneOptions options = searchOptions(2);
    meta::TuneResult counted =
        meta::evolutionarySearch(op.func, counting, gpu, options);
    const int generated_at_least =
        options.population +
        options.generations * options.children_per_generation;
    EXPECT_LT(calls.load(), generated_at_least);
    EXPECT_TRUE(std::isfinite(counted.best_latency_us));
}

TEST(ParallelSearchTest, InjectedFaultOnReusedCandidateIsContained)
{
    // A reused candidate still consults search.instantiate, inside the
    // per-candidate containment, so a fault there is one runtime reject
    // like any other. Every generated candidate (one
    // candidate.instantiate span each, G) evaluates the site once (E)
    // and then fires (F), takes a recorded outcome (R, the
    // search.trace_reuses counter) or calls the applier (A); so
    // A + R + F - G counts reused candidates the fault hit.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::SketchApplier base =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);
    std::atomic<int64_t> calls{0};
    meta::SketchApplier counting = [&](Schedule& sch) {
        calls.fetch_add(1, std::memory_order_relaxed);
        base(sch);
    };
    testutil::ScopedTempDir dir;
    failpoint::ScopedFailpoints chaos(
        "seed=21; search.instantiate=throw(0.25)");
    meta::TuneResult result;
    int64_t generated = 0;
    int64_t reused = 0;
    {
        trace::SessionGuard session(dir.file("trace.json"));
        ASSERT_TRUE(session.owns());
        result = meta::evolutionarySearch(op.func, counting, gpu,
                                          searchOptions(2));
        std::string summary = trace::summaryText();
        generated =
            testutil::summaryValue(summary, "candidate.instantiate");
        reused = testutil::summaryValue(summary,
                                        "counter search.trace_reuses");
    }
    failpoint::SiteStats st = failpoint::stats("search.instantiate");
    EXPECT_EQ(static_cast<int64_t>(st.evaluated), generated);
    EXPECT_GT(reused, 0);
    EXPECT_GT(calls.load() + reused + static_cast<int64_t>(st.fired) -
                  generated,
              0)
        << "no reused candidate drew a fault; the test lost its point";
    EXPECT_EQ(result.runtime_filtered, static_cast<int>(st.fired));
    EXPECT_TRUE(std::isfinite(result.best_latency_us));
}

TEST(ParallelSearchTest, ChaosScheduleKeepsParallelismInvariance)
{
    // With ~20% of candidates failing (instantiation throws plus
    // evaluation errors), the determinism contract must survive: both
    // sites are keyed by candidate identity, not call order, so the
    // same candidates fail on any thread count and the full TuneResult
    // stays byte-identical.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};

    auto run = [&](int parallelism) {
        failpoint::ScopedFailpoints chaos(
            "seed=33; search.instantiate=throw(0.1);"
            " search.evaluate=error(0.1)");
        return meta::autoTune(task, gpu, searchOptions(parallelism),
                              meta::TunerStyle::kTensorIR);
    };
    meta::TuneResult serial = run(1);
    meta::TuneResult parallel = run(4);

    EXPECT_GT(serial.runtime_filtered, 0)
        << "the chaos schedule never fired; the test lost its point";
    expectSameDecisions(serial.best_decisions, parallel.best_decisions);
    EXPECT_EQ(serial.best_latency_us, parallel.best_latency_us);
    EXPECT_EQ(serial.best_sketch, parallel.best_sketch);
    EXPECT_EQ(serial.history, parallel.history);
    EXPECT_EQ(serial.counters(), parallel.counters());
    EXPECT_EQ(serial.tuning_cost_us, parallel.tuning_cost_us);
    EXPECT_EQ(funcToString(serial.best_func),
              funcToString(parallel.best_func));
}

TEST(ParallelSearchTest, JournalResumeIsByteIdenticalAfterCrash)
{
    // The crash-safety contract end to end: kill the search at the
    // worst moment (a generation finished but its checkpoint not yet
    // persisted), resume from the journal, and the final result must be
    // byte-identical to a run that was never interrupted.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);
    testutil::ScopedTempDir dir;
    const std::string journal = dir.file("resume_journal.txt");
    meta::resetJournal(journal);

    meta::TuneOptions options = searchOptions(2);
    options.journal_path = journal;
    options.journal_label = "resume_test";

    // All three runs under a pinned failpoint context, so an ambient
    // chaos schedule (the CI chaos job sets one process-wide) cannot
    // make the interrupted trajectory diverge from the reference.
    failpoint::ScopedFailpoints quiet("");

    // Reference: the same search, never interrupted (and never
    // journaled — journaling is observational).
    meta::TuneOptions plain = searchOptions(2);
    meta::TuneResult reference =
        meta::evolutionarySearch(op.func, sketch, gpu, plain);

    // Crash at the third checkpoint write: the init checkpoint and
    // generation 0's survive, generation 1's work is lost mid-write.
    {
        failpoint::ScopedFailpoints kill("search.checkpoint=throw@2");
        EXPECT_THROW(
            meta::evolutionarySearch(op.func, sketch, gpu, options),
            failpoint::InjectedFault);
    }

    meta::TuneOptions resume_options = options;
    resume_options.resume = true;
    meta::TuneResult resumed =
        meta::evolutionarySearch(op.func, sketch, gpu, resume_options);

    EXPECT_EQ(resumed.generations_replayed, 2)
        << "expected the init checkpoint plus generation 0 restored";
    expectSameDecisions(reference.best_decisions,
                        resumed.best_decisions);
    EXPECT_EQ(reference.best_latency_us, resumed.best_latency_us);
    EXPECT_EQ(reference.history, resumed.history);
    EXPECT_EQ(reference.counters(), resumed.counters());
    EXPECT_EQ(reference.tuning_cost_us, resumed.tuning_cost_us);
    // Even the winning program: the resume path re-derives it from the
    // journaled decision trace, byte for byte.
    EXPECT_EQ(funcToString(reference.best_func),
              funcToString(resumed.best_func));
}

TEST(ParallelSearchTest, JournalResumeReplaysIntactPrefixOfCorruptedJournal)
{
    // A journal damaged on disk: the journal.append chaos hook flips
    // bytes of one record (generation 0's checkpoint) while every other
    // record lands intact. Recovery keeps the prefix before the damage,
    // counts the damaged record, and the resumed search re-runs from
    // there to the uninterrupted result.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);
    testutil::ScopedTempDir dir;
    const std::string journal = dir.file("corrupt_journal.txt");
    meta::resetJournal(journal);
    meta::TuneOptions options = searchOptions(2);
    options.journal_path = journal;
    options.journal_label = "corrupt_test";

    failpoint::ScopedFailpoints quiet("");
    meta::TuneResult reference =
        meta::evolutionarySearch(op.func, sketch, gpu, searchOptions(2));
    {
        // The progress hook runs just before each checkpoint is
        // written, so arming the site there corrupts that record only.
        meta::TuneOptions corrupting = options;
        corrupting.progress = [](const meta::TuneProgress& p) {
            failpoint::configure(p.generation == 1
                                     ? "seed=9; journal.append=corrupt(1,2)"
                                     : "");
        };
        meta::evolutionarySearch(op.func, sketch, gpu, corrupting);
    }
    meta::JournalContents contents = meta::readJournal(journal);
    EXPECT_EQ(contents.records_dropped, 1);
    ASSERT_EQ(contents.sections.size(), 1u);
    EXPECT_EQ(contents.sections[0].generations.size(), 1u);

    meta::TuneOptions resume_options = options;
    resume_options.resume = true;
    meta::TuneResult resumed =
        meta::evolutionarySearch(op.func, sketch, gpu, resume_options);
    EXPECT_EQ(resumed.generations_replayed, 1);
    expectSameDecisions(reference.best_decisions,
                        resumed.best_decisions);
    EXPECT_EQ(reference.best_latency_us, resumed.best_latency_us);
    EXPECT_EQ(reference.history, resumed.history);
    EXPECT_EQ(reference.counters(), resumed.counters());
    EXPECT_EQ(reference.tuning_cost_us, resumed.tuning_cost_us);
    EXPECT_EQ(funcToString(reference.best_func),
              funcToString(resumed.best_func));
    // The resume rewrote the damaged tail: the journal is whole again.
    EXPECT_EQ(meta::readJournal(journal).records_dropped, 0);
}

TEST(ParallelSearchTest, JournalIdentityCoversCandidateFilters)
{
    // A candidate filter changes which candidates survive, so a resume
    // under a different setting must not replay the recorded section.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);
    testutil::ScopedTempDir dir;
    const std::string journal = dir.file("identity_journal.txt");
    meta::resetJournal(journal);
    meta::TuneOptions options = searchOptions(2);
    options.generations = 1;
    options.journal_path = journal;
    options.journal_label = "identity_test";
    failpoint::ScopedFailpoints quiet("");
    meta::evolutionarySearch(op.func, sketch, gpu, options);

    meta::TuneOptions same = options;
    same.resume = true;
    EXPECT_EQ(meta::evolutionarySearch(op.func, sketch, gpu, same)
                  .generations_replayed,
              2);
    meta::TuneOptions flipped = same;
    flipped.lint_filter = !options.lint_filter;
    EXPECT_EQ(meta::evolutionarySearch(op.func, sketch, gpu, flipped)
                  .generations_replayed,
              0);
}

TEST(ParallelSearchTest, JournalKeepsMemoEntriesMeasuredInLaterGenerations)
{
    // A valid child the cost model ranks out of the measured set is
    // journaled unmeasured; a structural duplicate can get it measured
    // generations later. The journal must record the entry again with
    // its measurement, and restore keeps the last record per hash — so
    // a resume sees the measured latency instead of re-measuring (for a
    // wall-clock backend, the journaled number is the only copy).
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);
    testutil::ScopedTempDir dir;
    const std::string journal = dir.file("memo_rejournal.txt");
    meta::resetJournal(journal);
    meta::TuneOptions options = searchOptions(2);
    options.journal_path = journal;
    options.journal_label = "memo_rejournal";
    failpoint::ScopedFailpoints quiet("");
    meta::evolutionarySearch(op.func, sketch, gpu, options);

    meta::JournalContents contents = meta::readJournal(journal);
    ASSERT_EQ(contents.sections.size(), 1u);
    std::unordered_map<uint64_t, int> unmeasured_at; // hash -> checkpoint
    std::vector<uint64_t> measured_later;
    meta::MemoCache restored;
    for (const meta::JournalGeneration& g :
         contents.sections[0].generations) {
        for (const auto& [hash, entry] : g.memo) {
            auto it = unmeasured_at.find(hash);
            if (!entry.measured) {
                unmeasured_at.emplace(hash, g.index);
            } else if (it != unmeasured_at.end() && it->second < g.index) {
                measured_later.push_back(hash);
            }
            restored.insert(hash, entry);
        }
    }
    ASSERT_FALSE(measured_later.empty())
        << "no memo entry was measured after its first checkpoint";
    for (uint64_t hash : measured_later) {
        const meta::MemoEntry* e = restored.find(hash);
        ASSERT_NE(e, nullptr);
        EXPECT_TRUE(e->measured);
        // The analytical backend commits the device estimate.
        EXPECT_EQ(e->measured_latency_us,
                  e->estimate.valid()
                      ? e->estimate.latency_us
                      : std::numeric_limits<double>::infinity());
    }
}

/** Budget of the racy-binding search (testutil::racyBindingSketch)
 *  whose result is pinned below. */
meta::TuneOptions
racyOptions(int parallelism)
{
    meta::TuneOptions options;
    options.population = 6;
    options.generations = 3;
    options.children_per_generation = 12;
    options.measured_per_generation = 4;
    options.seed = 11;
    options.parallelism = parallelism;
    return options;
}

/** The racy-binding search's counters and winner, pinned: where the
 *  search analyzes a structure and caches its verdict must not change
 *  what it filters, hits in the memo, measures or finds. */
void
expectPinnedRacyResult(const meta::TuneResult& result)
{
    EXPECT_EQ(result.race_filtered, 10);
    EXPECT_EQ(result.memo_hits, 32);
    EXPECT_EQ(result.memo_measure_hits, 16);
    EXPECT_EQ(result.trials_measured, 18);
    const double best = std::bit_cast<double>(uint64_t{0x4075d5fb89c5728b});
    EXPECT_EQ(result.best_latency_us, best);
    EXPECT_EQ(result.history, std::vector<double>(4, best));
}

TEST(ParallelSearchTest, RacySketchResultIsPinnedAtAnyParallelism)
{
    workloads::OpSpec op = workloads::gmm(32, 32, 32);
    hwsim::GpuDevice gpu;
    failpoint::ScopedFailpoints quiet("");
    for (int parallelism : {1, 4}) {
        SCOPED_TRACE(parallelism);
        expectPinnedRacyResult(meta::evolutionarySearch(
            op.func, testutil::racyBindingSketch(), gpu,
            racyOptions(parallelism)));
    }
}

TEST(ParallelSearchTest, RacySketchResultIsPinnedAcrossResume)
{
    // Journaled memo entries carry the analysis verdict: a resumed
    // search rejects the racy structure from the restored memo exactly
    // as the uninterrupted search did.
    workloads::OpSpec op = workloads::gmm(32, 32, 32);
    hwsim::GpuDevice gpu;
    meta::SketchApplier sketch = testutil::racyBindingSketch();
    testutil::ScopedTempDir dir;
    meta::TuneOptions options = racyOptions(2);
    options.journal_path = dir.file("racy_journal.txt");
    options.journal_label = "racy";
    failpoint::ScopedFailpoints quiet("");
    {
        failpoint::ScopedFailpoints kill("search.checkpoint=throw@2");
        EXPECT_THROW(
            meta::evolutionarySearch(op.func, sketch, gpu, options),
            failpoint::InjectedFault);
    }
    options.resume = true;
    meta::TuneResult resumed =
        meta::evolutionarySearch(op.func, sketch, gpu, options);
    EXPECT_EQ(resumed.generations_replayed, 2);
    expectPinnedRacyResult(resumed);
}

TEST(ParallelSearchTest, RacySketchAnalyzesEachStructureOnce)
{
    // Static analysis runs once per distinct structure, in the evaluate
    // stage; every later sighting, racy or clean, takes the verdict the
    // memo recorded — also when pool workers evaluate concurrently.
    workloads::OpSpec op = workloads::gmm(32, 32, 32);
    hwsim::GpuDevice gpu;
    testutil::ScopedTempDir dir;
    failpoint::ScopedFailpoints quiet("");
    trace::SessionGuard session(dir.file("trace.json"));
    ASSERT_TRUE(session.owns());
    meta::evolutionarySearch(op.func, testutil::racyBindingSketch(), gpu,
                             racyOptions(4));
    EXPECT_EQ(testutil::summaryValue(trace::summaryText(),
                                     "analysis.analyze_func"),
              3);
}

TEST(ParallelSearchTest, CostModelFallbackKeepsSearchAlive)
{
    // Every retrain of the cost model fails; the search keeps the last
    // good model (here: the untrained initial one), counts each
    // fallback, and still finishes.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);

    failpoint::ScopedFailpoints chaos("gbdt.fit=throw");
    meta::TuneResult result =
        meta::evolutionarySearch(op.func, sketch, gpu, searchOptions(2));

    EXPECT_GT(result.model_fallbacks, 0);
    EXPECT_TRUE(std::isfinite(result.best_latency_us));
    EXPECT_EQ(result.history.size(),
              static_cast<size_t>(searchOptions(2).generations) + 1);
}

TEST(RngTest, WeightedIndexNeverSelectsZeroWeightAtBoundary)
{
    // Regression: r01 == 0 used to land on a leading zero-weight entry
    // (`r - 0 <= 0` matched immediately); zero weight means "never
    // pick me", even at the boundary.
    EXPECT_EQ(Rng::weightedIndex({0.0, 1.0}, 0.0), 1u);
    EXPECT_EQ(Rng::weightedIndex({0.0, 0.0, 5.0, 0.0}, 0.0), 2u);
    // Interior zero entries are skipped too.
    EXPECT_EQ(Rng::weightedIndex({1.0, 0.0, 1.0}, 0.6), 2u);
    // A float sliver past the last positive weight lands on it instead
    // of falling off the end.
    EXPECT_EQ(Rng::weightedIndex({1.0, 1.0, 0.0}, 0.999999999), 1u);
}

TEST(RngTest, WeightedChoiceValidatesAndSkipsZeros)
{
    Rng rng(5);
    // Zero-weight entries are never drawn when any weight is positive.
    for (int i = 0; i < 2000; ++i) {
        size_t pick = rng.weightedChoice({0.0, 1.0, 0.0, 2.0});
        EXPECT_TRUE(pick == 1 || pick == 3) << "picked " << pick;
    }
    // All-zero weights degrade to a uniform pick instead of crashing.
    std::set<size_t> seen;
    for (int i = 0; i < 64; ++i) {
        seen.insert(rng.weightedChoice({0.0, 0.0, 0.0}));
    }
    for (size_t pick : seen) EXPECT_LT(pick, 3u);
    EXPECT_GT(seen.size(), 1u);
    // Negative or non-finite weights are caller bugs, not silent skew.
    EXPECT_THROW(rng.weightedChoice({1.0, -0.5}), InternalError);
    EXPECT_THROW(rng.weightedChoice({1.0, std::nan("")}),
                 InternalError);
    EXPECT_THROW(
        rng.weightedChoice({std::numeric_limits<double>::infinity()}),
        InternalError);
    EXPECT_THROW(rng.weightedChoice({}), InternalError);
}

TEST(RngTest, RandIntIsUnbiasedNearTheWordSize)
{
    // Regression for the modulo bias of `next() % n`. With
    // n = 3 * 2^61, the biased mapping lands in [0, 2^62) with
    // probability 3/4 (those outcomes have three 64-bit preimages,
    // the rest two); the uniform distribution puts only 2/3 there.
    // 4000 draws resolve that 0.083 gap at ~11 sigma, so this fails
    // reliably against the old implementation and passes against
    // rejection sampling.
    Rng rng(123);
    const int64_t n = int64_t{3} << 61;
    const int64_t cut = int64_t{1} << 62;
    const int kDraws = 4000;
    int below = 0;
    for (int i = 0; i < kDraws; ++i) {
        int64_t v = rng.randInt(n);
        ASSERT_GE(v, 0);
        ASSERT_LT(v, n);
        if (v < cut) ++below;
    }
    double fraction = static_cast<double>(below) / kDraws;
    EXPECT_NEAR(fraction, 2.0 / 3.0, 0.04)
        << "biased modulo mapping would give ~0.75";
}

TEST(ParallelSearchTest, NumericCheckFiltersDeterministically)
{
    // Injected mismatches are keyed by structural hash, so the numeric
    // gate rejects the same candidates at every parallelism setting and
    // the full result — including the numeric_filtered counter — stays
    // byte-identical. The surviving checks really execute candidates
    // on the tree-walker against its run of the unscheduled workload.
    registerBuiltinIntrinsics();
    workloads::OpSpec op = workloads::gmm(32, 32, 32);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    failpoint::ScopedFailpoints guard(
        "seed=11; search.numeric_check=error(0.5)");
    meta::TuneOptions serial_opts = searchOptions(1);
    serial_opts.numeric_check_topk = 3;
    meta::TuneOptions parallel_opts = searchOptions(4);
    parallel_opts.numeric_check_topk = 3;

    meta::TuneResult serial = meta::autoTune(
        task, gpu, serial_opts, meta::TunerStyle::kTensorIR);
    meta::TuneResult parallel = meta::autoTune(
        task, gpu, parallel_opts, meta::TunerStyle::kTensorIR);

    EXPECT_GT(serial.numeric_filtered, 0)
        << "the chaos schedule should reject some checked candidates";
    EXPECT_EQ(serial.counters(), parallel.counters());
    EXPECT_EQ(serial.best_latency_us, parallel.best_latency_us);
    EXPECT_EQ(serial.history, parallel.history);
    expectSameDecisions(serial.best_decisions, parallel.best_decisions);
    EXPECT_EQ(funcToString(serial.best_func),
              funcToString(parallel.best_func));
}

TEST(ParallelSearchTest, NumericCheckPassesHonestCandidates)
{
    // Without injection every schedule the search produces computes the
    // same function as the workload, so the spot-check must reject
    // nothing and leave the search trajectory untouched.
    registerBuiltinIntrinsics();
    workloads::OpSpec op = workloads::gmm(32, 32, 32);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions checked_opts = searchOptions(1);
    checked_opts.numeric_check_topk = 2;

    meta::TuneResult plain = meta::autoTune(
        task, gpu, searchOptions(1), meta::TunerStyle::kTensorIR);
    meta::TuneResult checked = meta::autoTune(
        task, gpu, checked_opts, meta::TunerStyle::kTensorIR);

    EXPECT_EQ(checked.numeric_filtered, 0);
    EXPECT_EQ(plain.best_latency_us, checked.best_latency_us);
    EXPECT_EQ(plain.history, checked.history);
    EXPECT_EQ(plain.trials_measured, checked.trials_measured);
}

TEST(RngDeriveTest, DeterministicAndIndependent)
{
    Rng a = Rng::derive(7, 3, 11);
    Rng b = Rng::derive(7, 3, 11);
    EXPECT_EQ(a.next(), b.next());
    // Nearby streams do not collide on their first draws.
    std::set<uint64_t> first_draws;
    for (uint64_t gen = 0; gen < 8; ++gen) {
        for (uint64_t child = 0; child < 64; ++child) {
            first_draws.insert(Rng::derive(1, gen, child).next());
        }
    }
    EXPECT_EQ(first_draws.size(), 8u * 64u);
}

} // namespace
} // namespace tir
