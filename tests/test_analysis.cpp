/**
 * @file
 * Static memory analysis (tir/analysis): the cross-thread race
 * detector, the out-of-bounds checker, and their wiring — the search
 * filter counters, the Schedule validation entry points, the
 * interpreter debug assertion, the storage-sync auto-insertion pass,
 * and the per-region producer-consumer cover check. Each adversarial
 * schedule is paired with a clean counterpart so the three-valued
 * design (error / warning / silent) is pinned from both sides.
 */
#include <gtest/gtest.h>

#include "lower/lower.h"
#include "meta/search.h"
#include "runtime/interpreter.h"
#include "tir/analysis/analysis.h"
#include "tir/schedule.h"
#include "tir/verify.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

using analysis::AnalysisOptions;
using analysis::AnalysisReport;
using analysis::DiagKind;

/** A single-statement thread launch: for tx in [0, extent) bound to
 *  threadIdx.x around `body`. */
Stmt
launch(const Var& tx, int64_t extent, Stmt body)
{
    return makeFor(tx, intImm(0), intImm(extent), std::move(body),
                   ForKind::kThreadBinding, "threadIdx.x");
}

// --- Write-write races ---------------------------------------------------

TEST(RaceAnalysisTest, AllThreadsWriteOneCellIsAnError)
{
    // for tx in [0,8) threadIdx.x: A[0] = tx — every thread stores a
    // different value to the same cell.
    Buffer a = makeBuffer("A", {8}, DataType::i32());
    Var tx = var("tx");
    PrimFunc func =
        makeFunc("ww_race", {a}, launch(tx, 8, bufferStore(a, tx, {intImm(0)})));

    AnalysisReport report = analysis::analyzeFunc(func);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasError(DiagKind::kWriteRace));
    // The diagnostic names the buffer and the racing axis.
    std::string summary = report.summary();
    EXPECT_NE(summary.find("write-write race"), std::string::npos)
        << summary;
    EXPECT_NE(summary.find("'A'"), std::string::npos) << summary;
    EXPECT_NE(summary.find("threadIdx.x"), std::string::npos) << summary;
}

TEST(RaceAnalysisTest, PerThreadCellsPass)
{
    // A[tx] = tx: provably disjoint per-thread footprints.
    Buffer a = makeBuffer("A", {8}, DataType::i32());
    Var tx = var("tx");
    PrimFunc func =
        makeFunc("ww_clean", {a}, launch(tx, 8, bufferStore(a, tx, {tx})));
    EXPECT_TRUE(analysis::analyzeFunc(func).ok());
}

TEST(RaceAnalysisTest, UniformBroadcastWriteIsBenign)
{
    // A[0] = 7 from every thread: same value, no hazard worth failing
    // a schedule over.
    Buffer a = makeBuffer("A", {8}, DataType::i32());
    Var tx = var("tx");
    PrimFunc func = makeFunc(
        "ww_uniform", {a},
        launch(tx, 8, bufferStore(a, intImm(7), {intImm(0)})));
    AnalysisReport report = analysis::analyzeFunc(func);
    EXPECT_FALSE(report.hasError(DiagKind::kWriteRace))
        << report.summary();
}

TEST(RaceAnalysisTest, BindingReductionLoopRaces)
{
    // The classic scheduling mistake: bind the reduction loop of a
    // matmul to a thread axis. Every thread then read-modify-writes
    // C[i, j]. Thread-binding validation cannot see this (the binding
    // is structurally fine); the race analysis must.
    workloads::OpSpec op = workloads::gmm(32, 32, 32);
    Schedule sch(op.func, 7);
    std::vector<Var> loops = sch.getLoops("C");
    ASSERT_EQ(loops.size(), 3u);
    sch.bind(loops[2], "threadIdx.x"); // k: the reduction axis

    EXPECT_TRUE(verifyThreadBindings(sch.func()).ok);
    AnalysisReport report = analysis::analyzeFunc(sch.func());
    EXPECT_TRUE(report.hasError(DiagKind::kWriteRace))
        << report.summary();

    // The Schedule-level entry points surface the same finding.
    EXPECT_THROW(sch.validateMemoryAnalysis(), FatalError);
    EXPECT_NE(sch.analysisDiagnostics().find("write-write race"),
              std::string::npos);
}

TEST(RaceAnalysisTest, BindingSpatialLoopIsClean)
{
    workloads::OpSpec op = workloads::gmm(32, 32, 32);
    Schedule sch(op.func, 7);
    std::vector<Var> loops = sch.getLoops("C");
    ASSERT_EQ(loops.size(), 3u);
    sch.bind(loops[0], "threadIdx.x"); // i: spatial — each thread owns
                                       // its own C rows
    EXPECT_TRUE(analysis::analyzeFunc(sch.func()).ok())
        << sch.analysisDiagnostics();
    EXPECT_NO_THROW(sch.validateMemoryAnalysis());
    EXPECT_EQ(sch.analysisDiagnostics(), "");
}

// --- Shared-memory read-after-write ordering -----------------------------

/** seq { S[tx] = A[tx]; <maybe sync>; B[tx] = S[7 - tx] } under a
 *  threadIdx.x launch of 8: the read crosses threads (tx = 0 reads the
 *  cell thread 7 wrote), so it is only ordered through a barrier. */
PrimFunc
sharedReversal(bool with_sync)
{
    Buffer a = makeBuffer("A", {8}, DataType::i32());
    Buffer b = makeBuffer("B", {8}, DataType::i32());
    Buffer s = makeBuffer("S", {8}, DataType::i32(), "shared");
    Var tx = var("tx");
    std::vector<Stmt> body;
    body.push_back(bufferStore(s, bufferLoad(a, {tx}), {tx}));
    if (with_sync) body.push_back(storageSync());
    body.push_back(bufferStore(b, bufferLoad(s, {intImm(7) - tx}), {tx}));
    return makeFunc(with_sync ? "raw_synced" : "raw_no_sync", {a, b},
                    launch(tx, 8, seq(std::move(body))));
}

TEST(RaceAnalysisTest, SharedRawWithoutSyncIsAnError)
{
    AnalysisReport report = analysis::analyzeFunc(sharedReversal(false));
    EXPECT_TRUE(report.hasError(DiagKind::kRawNoSync))
        << report.summary();
    std::string summary = report.summary();
    EXPECT_NE(summary.find("'S'"), std::string::npos) << summary;
}

TEST(RaceAnalysisTest, SharedRawWithSyncPasses)
{
    AnalysisReport report = analysis::analyzeFunc(sharedReversal(true));
    EXPECT_FALSE(report.hasError(DiagKind::kRawNoSync))
        << report.summary();
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(RaceAnalysisTest, InsertStorageSyncRepairsTheHazard)
{
    // The lowering pass places the barrier the hand-written program
    // was missing, and the repaired program analyzes clean.
    PrimFunc fixed = insertStorageSync(sharedReversal(false));
    EXPECT_TRUE(analysis::analyzeFunc(fixed).ok());
}

TEST(RaceAnalysisTest, EnumerationBudgetZeroDowngradesToWarning)
{
    // The value-reversal hazard is only provable by concrete
    // enumeration; with the search filter's zero budget it must stay a
    // warning (possible, unproven) — never an error.
    AnalysisOptions opts;
    opts.exhaustive_pair_limit = 0;
    AnalysisReport report =
        analysis::analyzeFunc(sharedReversal(false), opts);
    EXPECT_FALSE(report.hasError(DiagKind::kRawNoSync));
    bool warned = false;
    for (const analysis::Diagnostic& d : report.diagnostics) {
        warned |= d.kind == DiagKind::kRawNoSync &&
                  d.severity == analysis::Severity::kWarning;
    }
    EXPECT_TRUE(warned) << report.summary();
}

// --- Out-of-bounds accesses ----------------------------------------------

TEST(BoundsAnalysisTest, OffByOneReadIsAnErrorWithInterval)
{
    // for i in [0,8): B[i] = A[i + 1] — A has shape {8}, so i = 7
    // reads A[8].
    Buffer a = makeBuffer("A", {8}, DataType::i32());
    Buffer b = makeBuffer("B", {8}, DataType::i32());
    Var i = var("i");
    PrimFunc func = makeFunc(
        "oob", {a, b},
        makeFor(i, intImm(0), intImm(8),
                bufferStore(b, bufferLoad(a, {i + 1}), {i})));

    AnalysisReport report = analysis::analyzeFunc(func);
    EXPECT_TRUE(report.hasError(DiagKind::kOutOfBounds));
    std::string summary = report.summary();
    // Actionable detail: the index expression, its derived interval,
    // and the extent it exceeds.
    EXPECT_NE(summary.find("out-of-bounds"), std::string::npos)
        << summary;
    EXPECT_NE(summary.find("[1, 8]"), std::string::npos) << summary;
    EXPECT_NE(summary.find("8"), std::string::npos) << summary;
}

TEST(BoundsAnalysisTest, GuardedTailReadPasses)
{
    // Same loop, but the tail access is guarded: if (i < 7) then
    // A[i + 1] stays within shape {8}. The guard must participate in
    // the proof (interval analysis alone would still see hi = 8).
    Buffer a = makeBuffer("A", {8}, DataType::i32());
    Buffer b = makeBuffer("B", {8}, DataType::i32());
    Var i = var("i");
    PrimFunc func = makeFunc(
        "oob_guarded", {a, b},
        makeFor(i, intImm(0), intImm(8),
                ifThenElse(lt(i, intImm(7)),
                           bufferStore(b, bufferLoad(a, {i + 1}), {i}))));
    EXPECT_TRUE(analysis::analyzeFunc(func).ok())
        << analysis::analyzeFunc(func).summary();
}

TEST(BoundsAnalysisTest, WriteOutOfBoundsFlagged)
{
    // Writes are checked like reads: B[i + 4] with i in [0,8) exceeds
    // shape {8} for i >= 4.
    Buffer b = makeBuffer("B", {8}, DataType::i32());
    Var i = var("i");
    PrimFunc func =
        makeFunc("oob_write", {b},
                 makeFor(i, intImm(0), intImm(8),
                         bufferStore(b, i, {i + 4})));
    AnalysisReport report = analysis::analyzeFunc(func);
    EXPECT_TRUE(report.hasError(DiagKind::kOutOfBounds))
        << report.summary();
}

TEST(BoundsAnalysisTest, ScheduledWorkloadsAnalyzeClean)
{
    // Every unscheduled small-suite workload — and a cache_read'd
    // variant — must pass: the analysis gates the search, so false
    // positives here would starve the population.
    for (workloads::OpSpec op :
         {workloads::gmm(32, 32, 32), workloads::conv2d(1, 8, 8, 16, 16, 3, 1, 1)}) {
        AnalysisReport report = analysis::analyzeFunc(op.func);
        EXPECT_TRUE(report.ok()) << op.func->name << ":\n"
                                 << report.summary();
    }
}

// --- Interpreter debug gate ----------------------------------------------

TEST(AnalysisWiringTest, InterpreterDebugChecksRejectRacyProgram)
{
    Buffer a = makeBuffer("A", {8}, DataType::i32());
    Var tx = var("tx");
    PrimFunc racy =
        makeFunc("ww_race", {a}, launch(tx, 8, bufferStore(a, tx, {intImm(0)})));
    runtime::NDArray backing(DataType::i32(), {8});

    runtime::Interpreter interp;
    runtime::Interpreter::setDebugChecks(true);
    EXPECT_THROW(interp.run(racy, {&backing}), FatalError);

    // Off (the default), the sequential interpreter executes it fine.
    runtime::Interpreter::setDebugChecks(false);
    EXPECT_NO_THROW(interp.run(racy, {&backing}));
    runtime::Interpreter::setDebugChecks(std::nullopt);
}

TEST(AnalysisWiringTest, DebugChecksEnvironmentIsAStrictFlag)
{
    // TENSORIR_DEBUG_CHECKS used to enable the checks for any value but
    // "0", so "off" and "false" both turned them on. It is a flag now
    // (support::envFlag): "off" disables, an unknown spelling fails.
    runtime::Interpreter::setDebugChecks(std::nullopt);
    {
        testutil::ScopedEnv env("TENSORIR_DEBUG_CHECKS", "off");
        EXPECT_FALSE(runtime::Interpreter::debugChecksEnabled());
    }
    {
        testutil::ScopedEnv env("TENSORIR_DEBUG_CHECKS", "on");
        EXPECT_TRUE(runtime::Interpreter::debugChecksEnabled());
    }
    {
        testutil::ScopedEnv env("TENSORIR_DEBUG_CHECKS", "false");
        EXPECT_THROW(runtime::Interpreter::debugChecksEnabled(),
                     FatalError);
    }
}

// --- Search filter -------------------------------------------------------

TEST(AnalysisWiringTest, SearchFiltersRacyCandidatesAndCountsThem)
{
    // A sketch family where one categorical decision picks the loop to
    // bind: the reduction choice races (filtered and counted), the
    // spatial choices are clean (they form the population).
    workloads::OpSpec op = workloads::gmm(32, 32, 32);
    meta::SketchApplier sketch = [](Schedule& sch) {
        std::vector<Var> loops = sch.getLoops("C");
        int64_t choice =
            sch.sampleCategorical({0, 1, 2}, {1.0, 1.0, 1.0});
        sch.bind(loops[static_cast<size_t>(choice)], "threadIdx.x");
    };
    hwsim::GpuDevice gpu;
    meta::TuneOptions options;
    options.population = 6;
    options.generations = 3;
    options.children_per_generation = 12;
    options.measured_per_generation = 4;
    options.seed = 11;
    options.parallelism = 1;
    meta::TuneResult result =
        meta::evolutionarySearch(op.func, sketch, gpu, options);

    EXPECT_GT(result.race_filtered, 0)
        << "the reduction-bound choice never got sampled";
    EXPECT_EQ(result.bounds_filtered, 0);
    // The winner is one of the clean bindings.
    EXPECT_TRUE(analysis::analyzeFunc(result.best_func).ok());
}

TEST(AnalysisWiringTest, AutoTuneWinnersPassFullAnalysis)
{
    // autoTune re-checks its winner with the full enumeration budget
    // (a TIR_CHECK); a normal tensorized tuning run must survive it.
    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions options;
    options.population = 4;
    options.generations = 1;
    options.children_per_generation = 8;
    options.measured_per_generation = 2;
    options.seed = 5;
    meta::TuneResult result = meta::autoTune(task, gpu, options);
    EXPECT_TRUE(analysis::analyzeFunc(result.best_func).ok());
    EXPECT_GE(result.race_filtered, 0);
}

// --- Per-region producer-consumer cover ----------------------------------

/** Root-block function: `stages` in sequence, `allocs` block-local. */
PrimFunc
stagedFunc(std::vector<Stmt> stages, std::vector<Buffer> params,
           std::vector<Buffer> allocs)
{
    return makeFunc("staged", std::move(params),
                    makeRootBlock(seq(std::move(stages)),
                                  std::move(allocs)));
}

TEST(RegionCoverTest, GapBetweenWrittenPiecesIsCaught)
{
    // Producers write T[0..3] and T[8..11]; a consumer reads T[5].
    // The union hull [0..11] hides the gap — the per-piece check must
    // not.
    Buffer t = makeBuffer("T", {16}, DataType::i32());
    Buffer out = makeBuffer("out", {1}, DataType::i32());
    Var i = var("i");
    Var j = var("j");
    std::vector<Stmt> stages;
    stages.push_back(
        makeFor(i, intImm(0), intImm(4), bufferStore(t, i, {i})));
    stages.push_back(
        makeFor(j, intImm(0), intImm(4), bufferStore(t, j, {j + 8})));
    stages.push_back(
        bufferStore(out, bufferLoad(t, {intImm(5)}), {intImm(0)}));
    PrimFunc func = stagedFunc(std::move(stages), {out}, {t});

    VerifyResult result = verifyRegionCover(func);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message().find("do not cover"), std::string::npos)
        << result.message();
    EXPECT_NE(result.message().find("T[5..5]"), std::string::npos)
        << result.message();
}

TEST(RegionCoverTest, StitchedAdjacentPiecesCoverASpanningRead)
{
    // Producers write T[0..7] and T[8..15]; a consumer reads all of
    // T. Neither piece alone covers the read — the 1-D stitching must
    // merge them into [0..15] first.
    Buffer t = makeBuffer("T", {16}, DataType::i32());
    Buffer out = makeBuffer("out", {16}, DataType::i32());
    Var i = var("i");
    Var j = var("j");
    Var k = var("k");
    std::vector<Stmt> stages;
    stages.push_back(
        makeFor(i, intImm(0), intImm(8), bufferStore(t, i, {i})));
    stages.push_back(
        makeFor(j, intImm(0), intImm(8), bufferStore(t, j, {j + 8})));
    stages.push_back(makeFor(k, intImm(0), intImm(16),
                             bufferStore(out, bufferLoad(t, {k}), {k})));
    PrimFunc func = stagedFunc(std::move(stages), {out}, {t});
    EXPECT_TRUE(verifyRegionCover(func).ok)
        << verifyRegionCover(func).message();
}

TEST(RegionCoverTest, ExactCoverStillPasses)
{
    Buffer t = makeBuffer("T", {16}, DataType::i32());
    Buffer out = makeBuffer("out", {16}, DataType::i32());
    Var i = var("i");
    Var k = var("k");
    std::vector<Stmt> stages;
    stages.push_back(
        makeFor(i, intImm(0), intImm(16), bufferStore(t, i, {i})));
    stages.push_back(makeFor(k, intImm(0), intImm(16),
                             bufferStore(out, bufferLoad(t, {k}), {k})));
    PrimFunc func = stagedFunc(std::move(stages), {out}, {t});
    EXPECT_TRUE(verifyRegionCover(func).ok)
        << verifyRegionCover(func).message();
}

} // namespace
} // namespace tir
