/**
 * @file
 * Dataflow-framework tests (tir/analysis/dataflow.h) and the
 * analysis-driven lowering passes built on it (lower/optimize.cpp):
 * the three lints (TIR-L001/L002/L003), dead-store and barrier-elision
 * semantics, the insertStorageSync + elideRedundantSync round-trip
 * property over randomly staged Table 1 schedules, and tree-walker
 * and native differential parity of optimized vs unoptimized
 * lowerings.
 */
#include <gtest/gtest.h>

#include "hwsim/device.h"
#include "lower/lower.h"
#include "meta/search.h"
#include "runtime/interpreter.h"
#include "runtime/jit.h"
#include "tir/analysis/dataflow.h"
#include "tir/schedule.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

using analysis::AnalysisReport;
using analysis::DataflowInfo;
using analysis::DiagKind;
using analysis::Severity;

/** for tx in [0, extent) bound to threadIdx.x around `body`. */
Stmt
launch(const Var& tx, int64_t extent, Stmt body)
{
    return makeFor(tx, intImm(0), intImm(extent), std::move(body),
                   ForKind::kThreadBinding, "threadIdx.x");
}

Stmt
serial(const Var& i, int64_t extent, Stmt body)
{
    return makeFor(i, intImm(0), intImm(extent), std::move(body),
                   ForKind::kSerial);
}

int
countSyncs(const PrimFunc& func)
{
    return static_cast<int>(
        analysis::extractAccesses(func->body).syncs.size());
}

int
countStores(const PrimFunc& func)
{
    int stores = 0;
    for (const analysis::AccessSite& site :
         analysis::extractAccesses(func->body).sites) {
        if (site.is_write && !site.opaque) ++stores;
    }
    return stores;
}

int
countDiagnostics(const AnalysisReport& report, DiagKind kind)
{
    int n = 0;
    for (const analysis::Diagnostic& diag : report.diagnostics) {
        if (diag.kind == kind) ++n;
    }
    return n;
}

// --- TIR-L001 use-before-init --------------------------------------------

TEST(DataflowLintTest, UseBeforeInitIsError)
{
    // B[i] = T[i] with nothing ever writing T: an unguarded read of
    // uninitialized storage in a loop that provably runs.
    Buffer b = makeBuffer("B", {8}, DataType::f32());
    Buffer t = makeBuffer("T", {8}, DataType::f32(), "global");
    Var i = var("i");
    PrimFunc func = makeFunc(
        "uninit", {b},
        serial(i, 8, bufferStore(b, bufferLoad(t, {i}), {i})));

    AnalysisReport report = analysis::lintFunc(func);
    EXPECT_TRUE(report.hasError(DiagKind::kUseBeforeInit))
        << report.summary();
    EXPECT_NE(report.summary().find("TIR-L001"), std::string::npos)
        << report.summary();
    EXPECT_NE(report.summary().find("'T'"), std::string::npos)
        << report.summary();
}

TEST(DataflowLintTest, DiagnosticCapNeverDropsAnError)
{
    // Four dead stores (warnings) beside one unguarded read of storage
    // nothing writes (an error). The search lints with a cap of 4; the
    // cap must drop warnings only, or the use-before-init reject is
    // lost.
    Buffer a = makeBuffer("A", {8}, DataType::f32());
    Buffer b = makeBuffer("B", {8}, DataType::f32());
    Buffer u = makeBuffer("U", {8}, DataType::f32(), "global");
    Var i = var("i");
    std::vector<Stmt> body;
    for (int k = 0; k < 4; ++k) {
        Buffer t = makeBuffer("T" + std::to_string(k), {8},
                              DataType::f32(), "global");
        body.push_back(bufferStore(t, bufferLoad(a, {i}), {i}));
    }
    body.push_back(bufferStore(b, bufferLoad(u, {i}), {i}));
    PrimFunc func =
        makeFunc("capped_lint", {a, b}, serial(i, 8, seq(body)));

    for (int cap : {32, 4, 0}) {
        analysis::AnalysisOptions opts;
        opts.max_diagnostics = cap;
        AnalysisReport report = analysis::lintFunc(func, opts);
        EXPECT_TRUE(report.hasError(DiagKind::kUseBeforeInit))
            << "cap " << cap << "\n" << report.summary();
        if (cap == 32) {
            EXPECT_EQ(countDiagnostics(report, DiagKind::kDeadStore), 4)
                << report.summary();
        }
        if (cap == 0) {
            EXPECT_EQ(countDiagnostics(report, DiagKind::kDeadStore), 0)
                << report.summary();
        }
    }
}

TEST(DataflowLintTest, GuardedUseBeforeInitIsWarning)
{
    // The same read under a conditional: it may never execute, so the
    // finding is reported but demoted to a warning.
    Buffer b = makeBuffer("B", {8}, DataType::f32());
    Buffer t = makeBuffer("T", {8}, DataType::f32(), "global");
    Var i = var("i");
    PrimFunc func = makeFunc(
        "uninit_guarded", {b},
        serial(i, 8,
               ifThenElse(lt(i, intImm(3)),
                          bufferStore(b, bufferLoad(t, {i}), {i}))));

    AnalysisReport report = analysis::lintFunc(func);
    EXPECT_FALSE(report.hasError(DiagKind::kUseBeforeInit))
        << report.summary();
    EXPECT_EQ(countDiagnostics(report, DiagKind::kUseBeforeInit), 1)
        << report.summary();
}

TEST(DataflowLintTest, InitializedReadIsClean)
{
    Buffer a = makeBuffer("A", {8}, DataType::f32());
    Buffer b = makeBuffer("B", {8}, DataType::f32());
    Buffer t = makeBuffer("T", {8}, DataType::f32(), "global");
    Var i = var("i");
    PrimFunc func = makeFunc(
        "init_then_read", {a, b},
        serial(i, 8,
               seq({bufferStore(t, bufferLoad(a, {i}), {i}),
                    bufferStore(b, bufferLoad(t, {i}), {i})})));

    AnalysisReport report = analysis::lintFunc(func);
    EXPECT_EQ(countDiagnostics(report, DiagKind::kUseBeforeInit), 0)
        << report.summary();
}

TEST(DataflowLintTest, LoopCarriedAccumulatorNotFlagged)
{
    // T[0] = T[0] + A[i]: the store's later iterations feed the read,
    // so the loop-carried edge counts as initialization (conservative
    // about iteration 0 by design — the lint stays quiet).
    Buffer a = makeBuffer("A", {8}, DataType::f32());
    Buffer t = makeBuffer("T", {1}, DataType::f32(), "global");
    Var i = var("i");
    PrimFunc func = makeFunc(
        "accum", {a},
        serial(i, 8,
               bufferStore(t,
                           bufferLoad(t, {intImm(0)}) +
                               bufferLoad(a, {i}),
                           {intImm(0)})));

    AnalysisReport report = analysis::lintFunc(func);
    EXPECT_EQ(countDiagnostics(report, DiagKind::kUseBeforeInit), 0)
        << report.summary();
}

// --- TIR-L002 dead stores ------------------------------------------------

TEST(DataflowLintTest, DeadStoreIsWarning)
{
    // T is written and never read: removable for free.
    Buffer a = makeBuffer("A", {8}, DataType::f32());
    Buffer b = makeBuffer("B", {8}, DataType::f32());
    Buffer t = makeBuffer("T", {8}, DataType::f32(), "global");
    Var i = var("i");
    PrimFunc func = makeFunc(
        "dead_store", {a, b},
        serial(i, 8,
               seq({bufferStore(b, bufferLoad(a, {i}), {i}),
                    bufferStore(t, bufferLoad(a, {i}), {i})})));

    AnalysisReport report = analysis::lintFunc(func);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(countDiagnostics(report, DiagKind::kDeadStore), 1)
        << report.summary();
    EXPECT_NE(report.summary().find("TIR-L002"), std::string::npos)
        << report.summary();

    DataflowInfo info = analysis::computeDataflow(func);
    ASSERT_EQ(info.dead_stores.size(), 1u);
    EXPECT_EQ(info.dead_stores[0]->buffer->name, "T");
}

TEST(DataflowLintTest, ParameterStoresAreNeverDead)
{
    // B is a parameter: its final contents are the function's output,
    // so an unread store to it is live by definition.
    Buffer a = makeBuffer("A", {8}, DataType::f32());
    Buffer b = makeBuffer("B", {8}, DataType::f32());
    Var i = var("i");
    PrimFunc func = makeFunc(
        "param_store", {a, b},
        serial(i, 8, bufferStore(b, bufferLoad(a, {i}), {i})));

    EXPECT_EQ(countDiagnostics(analysis::lintFunc(func),
                               DiagKind::kDeadStore),
              0);
    EXPECT_TRUE(analysis::computeDataflow(func).dead_stores.empty());
}

TEST(DataflowLintTest, OpaqueUseKeepsStoreAlive)
{
    // An intrinsic taking T's pointer has an unknown footprint: it
    // must count as a read, keeping the store alive.
    Buffer a = makeBuffer("A", {8}, DataType::f32());
    Buffer t = makeBuffer("T", {8}, DataType::f32(), "global");
    Var i = var("i");
    PrimFunc func = makeFunc(
        "opaque_use", {a},
        seq({serial(i, 8,
                    bufferStore(t, bufferLoad(a, {i}), {i})),
             evaluate(call(DataType::handle(), "mystery.op",
                           {bufferPtr(t, {intImm(0)})}))}));

    EXPECT_EQ(countDiagnostics(analysis::lintFunc(func),
                               DiagKind::kDeadStore),
              0);
    EXPECT_TRUE(analysis::computeDataflow(func).dead_stores.empty());
}

// --- TIR-L003 redundant barriers -----------------------------------------

/** Per-thread staging: S[tx] = A[tx]; barrier; B[tx] = S[tx]. The
 *  footprints are thread-disjoint, so the barrier orders nothing. */
PrimFunc
perThreadStaging()
{
    Buffer a = makeBuffer("A", {8}, DataType::f32());
    Buffer b = makeBuffer("B", {8}, DataType::f32());
    Buffer s = makeBuffer("S", {8}, DataType::f32(), "shared");
    Var tx = var("tx");
    Stmt body = seq({
        bufferStore(s, bufferLoad(a, {tx}), {tx}),
        storageSync(),
        bufferStore(b, bufferLoad(s, {tx}), {tx}),
    });
    return makeFunc("staging_disjoint", {a, b},
                    launch(tx, 8, std::move(body)));
}

/** Cross-thread staging: S[tx] = A[tx]; barrier; B[tx] = S[7-tx].
 *  Thread tx reads thread 7-tx's element — the barrier is the only
 *  thing ordering that RAW and must survive. */
PrimFunc
crossThreadStaging()
{
    Buffer a = makeBuffer("A", {8}, DataType::f32());
    Buffer b = makeBuffer("B", {8}, DataType::f32());
    Buffer s = makeBuffer("S", {8}, DataType::f32(), "shared");
    Var tx = var("tx");
    Stmt body = seq({
        bufferStore(s, bufferLoad(a, {tx}), {tx}),
        storageSync(),
        bufferStore(b, bufferLoad(s, {intImm(7) - tx}), {tx}),
    });
    return makeFunc("staging_reversal", {a, b},
                    launch(tx, 8, std::move(body)));
}

TEST(DataflowLintTest, RedundantBarrierIsFlagged)
{
    PrimFunc func = perThreadStaging();
    AnalysisReport report = analysis::lintFunc(func);
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(countDiagnostics(report, DiagKind::kRedundantSync), 1)
        << report.summary();
    EXPECT_NE(report.summary().find("TIR-L003"), std::string::npos)
        << report.summary();

    DataflowInfo info = analysis::computeDataflow(func);
    ASSERT_EQ(info.syncs.size(), 1u);
    EXPECT_TRUE(info.syncs[0].elidable);
    EXPECT_TRUE(info.syncs[0].protected_pairs.empty());
}

TEST(DataflowLintTest, LoadBearingBarrierIsNotFlagged)
{
    PrimFunc func = crossThreadStaging();
    EXPECT_EQ(countDiagnostics(analysis::lintFunc(func),
                               DiagKind::kRedundantSync),
              0);
    DataflowInfo info = analysis::computeDataflow(func);
    ASSERT_EQ(info.syncs.size(), 1u);
    EXPECT_FALSE(info.syncs[0].elidable);
    EXPECT_FALSE(info.syncs[0].protected_pairs.empty());
}

TEST(DataflowLintTest, LoopCarriedBarrierIsKept)
{
    // for k: S[tx] = A[tx,k]; barrier; B[k,tx] = S[7-tx]. Besides the
    // in-iteration RAW, iteration k+1's overwrite of S[tx] races the
    // iteration-k read of S[7-tx]; the barrier orders both.
    Buffer a = makeBuffer("A", {8, 4}, DataType::f32());
    Buffer b = makeBuffer("B", {4, 8}, DataType::f32());
    Buffer s = makeBuffer("S", {8}, DataType::f32(), "shared");
    Var tx = var("tx");
    Var k = var("k");
    Stmt body = seq({
        bufferStore(s, bufferLoad(a, {tx, k}), {tx}),
        storageSync(),
        bufferStore(b, bufferLoad(s, {intImm(7) - tx}), {k, tx}),
    });
    PrimFunc func =
        makeFunc("staging_carried", {a, b},
                 launch(tx, 8, serial(k, 4, std::move(body))));

    DataflowInfo info = analysis::computeDataflow(func);
    ASSERT_EQ(info.syncs.size(), 1u);
    EXPECT_FALSE(info.syncs[0].elidable);
}

TEST(DataflowLintTest, GreedyElisionKeepsFirstOfDuplicatePair)
{
    // write; barrier; barrier; read — one barrier suffices for the
    // pair. The elision scan runs left to right with not-yet-visited
    // barriers still counted as kept, so the *first* duplicate is the
    // one dropped and the final barrier before the read survives.
    Buffer a = makeBuffer("A", {8}, DataType::f32());
    Buffer b = makeBuffer("B", {8}, DataType::f32());
    Buffer s = makeBuffer("S", {8}, DataType::f32(), "shared");
    Var tx = var("tx");
    Stmt body = seq({
        bufferStore(s, bufferLoad(a, {tx}), {tx}),
        storageSync(),
        storageSync(),
        bufferStore(b, bufferLoad(s, {intImm(7) - tx}), {tx}),
    });
    PrimFunc func = makeFunc("double_barrier", {a, b},
                             launch(tx, 8, std::move(body)));

    DataflowInfo info = analysis::computeDataflow(func);
    ASSERT_EQ(info.syncs.size(), 2u);
    EXPECT_TRUE(info.syncs[0].elidable);
    EXPECT_FALSE(info.syncs[1].elidable);

    LowerStats stats;
    PrimFunc optimized = elideRedundantSync(func, &stats);
    EXPECT_EQ(stats.syncs_elided, 1);
    EXPECT_EQ(countSyncs(optimized), 1);
}

// --- Optimization pass semantics -----------------------------------------

/** T1 <- A, T2 <- T1, B <- A*A with T2 unread: the cascade dies
 *  back-to-front over two fixpoint rounds. */
PrimFunc
deadStoreCascade(int64_t n)
{
    Buffer a = makeBuffer("A", {n}, DataType::f32());
    Buffer b = makeBuffer("B", {n}, DataType::f32());
    Buffer t1 = makeBuffer("T1", {n}, DataType::f32(), "global");
    Buffer t2 = makeBuffer("T2", {n}, DataType::f32(), "global");
    Var i = var("i");
    Stmt body = seq({
        bufferStore(t1,
                    bufferLoad(a, {i}) * floatImm(2.0, DataType::f32()),
                    {i}),
        bufferStore(t2,
                    bufferLoad(t1, {i}) + floatImm(1.0, DataType::f32()),
                    {i}),
        bufferStore(b, bufferLoad(a, {i}) * bufferLoad(a, {i}), {i}),
    });
    return makeFunc("dse_cascade", {a, b},
                    serial(i, n, std::move(body)));
}

TEST(OptimizePassTest, DeadStoreCascadeDiesOverTwoRounds)
{
    PrimFunc func = deadStoreCascade(16);
    ASSERT_EQ(countStores(func), 3);
    // Round one only sees T2 dead (T1 still feeds T2's store).
    EXPECT_EQ(analysis::computeDataflow(func).dead_stores.size(), 1u);

    LowerStats stats;
    PrimFunc optimized = eliminateDeadStores(func, &stats);
    EXPECT_EQ(stats.stores_eliminated, 2);
    EXPECT_EQ(countStores(optimized), 1);
    EXPECT_TRUE(
        analysis::computeDataflow(optimized).dead_stores.empty());
}

TEST(OptimizePassTest, ElisionLeavesLoadBearingFunctionUntouched)
{
    PrimFunc func = crossThreadStaging();
    LowerStats stats;
    PrimFunc optimized = elideRedundantSync(func, &stats);
    EXPECT_EQ(stats.syncs_elided, 0);
    EXPECT_EQ(countSyncs(optimized), 1);
    // Nothing removed: structural sharing returns the same function.
    EXPECT_EQ(optimized.get(), func.get());
}

TEST(OptimizePassTest, ElisionRemovesRedundantBarrier)
{
    PrimFunc func = perThreadStaging();
    LowerStats stats;
    PrimFunc optimized = elideRedundantSync(func, &stats);
    EXPECT_EQ(stats.syncs_elided, 1);
    EXPECT_EQ(countSyncs(optimized), 0);
}

// --- Engine differential parity ------------------------------------------

/** Run `before` and `after` on identical inputs through the tree
 *  walker and (when a toolchain exists) the native JIT; both engines
 *  must agree bit-exactly on every buffer. */
void
expectEngineParity(const PrimFunc& before, const PrimFunc& after,
                   uint64_t seed)
{
    auto make_inputs = [&](const PrimFunc& f) {
        Rng rng(seed);
        std::vector<runtime::NDArray> arrays;
        for (const Buffer& param : f->params) {
            std::vector<int64_t> shape;
            for (size_t d = 0; d < param->ndim(); ++d) {
                shape.push_back(param->shapeInt(d));
            }
            arrays.emplace_back(param->dtype, shape);
            arrays.back().fillRandom(rng);
        }
        return arrays;
    };
    auto ptrs = [](std::vector<runtime::NDArray>& arrays) {
        std::vector<runtime::NDArray*> p;
        for (runtime::NDArray& a : arrays) p.push_back(&a);
        return p;
    };

    std::vector<runtime::NDArray> ref = make_inputs(before);
    std::vector<runtime::NDArray*> ref_ptrs = ptrs(ref);
    runtime::Interpreter ref_interp;
    ref_interp.run(before, ref_ptrs);

    // Tree walker on the optimized function.
    {
        std::vector<runtime::NDArray> args = make_inputs(after);
        std::vector<runtime::NDArray*> p = ptrs(args);
        runtime::Interpreter interp;
        interp.run(after, p);
        for (size_t i = 0; i < args.size(); ++i) {
            EXPECT_EQ(args[i].maxAbsDiff(ref[i]), 0.0)
                << "interpreter buffer " << i;
        }
    }
    // Native JIT (skipped without a system compiler, and for
    // functions the native tier cannot express — the C emitter
    // rejects GPU thread bindings).
    std::shared_ptr<const runtime::JitModule> mod =
        runtime::jitAvailable() ? runtime::jitCompile(after) : nullptr;
    if (mod) {
        std::vector<runtime::NDArray> args = make_inputs(after);
        std::vector<runtime::NDArray*> p = ptrs(args);
        mod->run(p);
        for (size_t i = 0; i < args.size(); ++i) {
            EXPECT_EQ(args[i].maxAbsDiff(ref[i]), 0.0)
                << "jit buffer " << i;
        }
    }
}

TEST(OptimizeParityTest, DeadStoreEliminationIsBitExact)
{
    PrimFunc before = deadStoreCascade(64);
    PrimFunc after = eliminateDeadStores(before);
    expectEngineParity(before, after, 11);
}

TEST(OptimizeParityTest, SyncElisionIsBitExact)
{
    PrimFunc before = perThreadStaging();
    PrimFunc after = elideRedundantSync(before);
    expectEngineParity(before, after, 12);
}

/** Staged shared-memory schedule over a workload: bind the two outer
 *  loops, stage one operand of the einsum block through shared memory
 *  at the third loop. Throws FatalError for shapes the primitives
 *  reject (caller skips those). */
PrimFunc
stagedSchedule(const workloads::OpSpec& spec, int read_index,
               uint64_t seed)
{
    Schedule sch(spec.func, seed);
    std::vector<Var> loops = sch.getLoops(spec.einsum_block);
    TIR_CHECK(loops.size() >= 3) << "too few loops to stage";
    sch.bind(loops[0], "blockIdx.x");
    sch.bind(loops[1], "threadIdx.x");
    std::string copy =
        sch.cacheRead(spec.einsum_block, read_index, "shared");
    sch.computeAt(copy, loops[2]);
    return sch.func();
}

TEST(OptimizeParityTest, StagedGmmSchedulesAreBitExact)
{
    workloads::OpSpec spec = workloads::gmm(16, 16, 16);
    for (int read_index : {0, 1}) {
        PrimFunc scheduled = stagedSchedule(spec, read_index, 5);
        LowerOptions base;
        base.insert_storage_sync = true;
        PrimFunc before = lowerWithOptions(scheduled, base);
        LowerOptions opt = base;
        opt.elide_redundant_sync = true;
        opt.eliminate_dead_stores = true;
        PrimFunc after = lowerWithOptions(scheduled, opt);
        expectEngineParity(before, after,
                           100 + static_cast<uint64_t>(read_index));
    }
}

// --- Round-trip property over random staged schedules --------------------

TEST(SyncRoundTripTest, ElisionNeverCreatesMissingSyncErrors)
{
    // Property: for staged schedules across the Table 1 small suite,
    // insertStorageSync followed by elideRedundantSync (a) never
    // introduces a TIR-R002 missing-barrier error the conservative
    // lowering did not already have, and (b) never increases the
    // barrier count.
    int exercised = 0;
    for (uint64_t seed : {3u, 17u}) {
        for (const workloads::OpSpec& spec :
             workloads::gpuSuiteSmall()) {
            PrimFunc scheduled;
            try {
                scheduled = stagedSchedule(
                    spec, static_cast<int>(seed % 2), seed);
            } catch (const FatalError&) {
                continue; // shape/primitive combination not stageable
            }
            PrimFunc lowered = lowerToLoops(scheduled);
            PrimFunc synced = insertStorageSync(lowered);
            PrimFunc elided = elideRedundantSync(synced);
            ++exercised;

            EXPECT_LE(countSyncs(elided), countSyncs(synced))
                << spec.name << " seed " << seed;
            int raw_before = analysis::analyzeFunc(synced).errorCount(
                DiagKind::kRawNoSync);
            int raw_after = analysis::analyzeFunc(elided).errorCount(
                DiagKind::kRawNoSync);
            EXPECT_LE(raw_after, raw_before)
                << spec.name << " seed " << seed << "\n"
                << analysis::analyzeFunc(elided).summary();
        }
    }
    EXPECT_GE(exercised, 4) << "property exercised too few schedules";
}

// --- Search wiring: TuneOptions::lint_filter ------------------------------

TEST(DataflowSearchWiringTest, LintFilterPassesCleanCandidates)
{
    // The lint filter only rejects provable use-before-init errors;
    // sketch-generated schedules never read uninitialized storage, so
    // turning it on must reject nothing and change no outcome — it is
    // a pure gate for hand-written or adversarial schedule sources.
    workloads::OpSpec op = workloads::gmm(32, 32, 32);
    meta::SketchApplier sketch = [](Schedule& sch) {
        std::vector<Var> loops = sch.getLoops("C");
        sch.split(loops[0], sch.samplePerfectTile(loops[0], 2, 8));
        sch.bind(sch.getLoops("C")[0], "threadIdx.x");
    };
    hwsim::GpuDevice gpu;
    meta::TuneOptions options;
    options.population = 4;
    options.generations = 2;
    options.children_per_generation = 8;
    options.measured_per_generation = 3;
    options.seed = 23;
    options.parallelism = 1;

    meta::TuneResult off =
        meta::evolutionarySearch(op.func, sketch, gpu, options);
    options.lint_filter = true;
    meta::TuneResult on =
        meta::evolutionarySearch(op.func, sketch, gpu, options);

    EXPECT_GT(off.trials_measured, 0);
    EXPECT_EQ(on.lint_filtered, 0);
    EXPECT_EQ(off.lint_filtered, 0);
    EXPECT_EQ(on.best_latency_us, off.best_latency_us);
    EXPECT_EQ(on.trials_measured, off.trials_measured);
}

} // namespace
} // namespace tir
