/**
 * @file
 * google-benchmark microbenchmarks of the compiler infrastructure
 * itself: schedule-primitive throughput, validation cost, sketch
 * instantiation rate, and simulated-measurement cost. These bound the
 * search throughput reported by the tuning-time experiment (Table 1).
 */
#include <benchmark/benchmark.h>

#include <filesystem>

#include "hwsim/device.h"
#include "meta/search.h"
#include "runtime/jit.h"
#include "te/te.h"
#include "tir/schedule.h"
#include "workloads/workloads.h"

using namespace tir;

namespace {

PrimFunc
gmmFunc()
{
    static PrimFunc func = workloads::gmm(1024, 1024, 1024).func;
    return func;
}

void
BM_SplitReorder(benchmark::State& state)
{
    for (auto _ : state) {
        Schedule sch(gmmFunc());
        std::vector<Var> loops = sch.getLoops("C");
        std::vector<Var> i_split = sch.split(loops[0], {16, 4, 16});
        std::vector<Var> j_split = sch.split(loops[1], {16, 4, 16});
        sch.reorder({i_split[0], j_split[0], i_split[1], j_split[1]});
        benchmark::DoNotOptimize(sch.func());
    }
}
BENCHMARK(BM_SplitReorder);

void
BM_AffineValidation(benchmark::State& state)
{
    Schedule sch(gmmFunc());
    std::vector<Var> loops = sch.getLoops("C");
    sch.split(loops[0], {16, 4, 16});
    sch.split(loops[1], {16, 4, 16});
    for (auto _ : state) {
        sch.validateAffineBindings();
    }
}
BENCHMARK(BM_AffineValidation);

void
BM_TensorSketchInstantiation(benchmark::State& state)
{
    workloads::OpSpec op = workloads::gmm(1024, 1024, 1024);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    uint64_t seed = 0;
    for (auto _ : state) {
        Schedule sch(op.func, seed++);
        try {
            meta::ReindexBlocks rb =
                meta::applyReindexAndLayout(sch, candidates[0]);
            meta::applyGpuTensorSketch(sch, candidates[0], rb, {});
        } catch (const FatalError&) {
            // invalid samples are part of the workload
        }
        benchmark::DoNotOptimize(sch.func());
    }
}
BENCHMARK(BM_TensorSketchInstantiation);

void
BM_SimulatedMeasurement(benchmark::State& state)
{
    workloads::OpSpec op = workloads::gmm(1024, 1024, 1024);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    Schedule sch(op.func, 3);
    meta::ReindexBlocks rb =
        meta::applyReindexAndLayout(sch, candidates[0]);
    meta::applyGpuTensorSketch(sch, candidates[0], rb, {});
    hwsim::GpuDevice gpu;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gpu.run(sch.func()).latency_us);
    }
}
BENCHMARK(BM_SimulatedMeasurement);

void
BM_FeatureExtraction(benchmark::State& state)
{
    workloads::OpSpec op = workloads::gmm(1024, 1024, 1024);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    Schedule sch(op.func, 3);
    meta::ReindexBlocks rb =
        meta::applyReindexAndLayout(sch, candidates[0]);
    meta::applyGpuTensorSketch(sch, candidates[0], rb, {});
    for (auto _ : state) {
        benchmark::DoNotOptimize(meta::extractFeatures(sch.func()));
    }
}
BENCHMARK(BM_FeatureExtraction);

// --- Numeric execution: tree-walking oracle vs native code -------------
//
// The search's numeric spot-check (TuneOptions::numeric_check_topk)
// re-executes a candidate and compares it against a reference run; the
// validation flow below reproduces that cost on a Table 1 matmul. The
// tuner runs it on the tree-walker; the Jit cases below give the same
// round on native code for comparison.

std::vector<runtime::NDArray>
numericArgs(const PrimFunc& func, uint64_t seed)
{
    Rng rng(seed);
    return runtime::seededArguments(func, rng);
}

std::vector<runtime::NDArray*>
numericPtrs(std::vector<runtime::NDArray>& arrays)
{
    std::vector<runtime::NDArray*> out;
    for (runtime::NDArray& a : arrays) out.push_back(&a);
    return out;
}

PrimFunc
numericMatmul()
{
    static PrimFunc func = workloads::gmm(64, 64, 64).func;
    return func;
}

/** Candidate-vs-reference validation round on the tree-walker. */
void
BM_NumericValidationTreeWalk(benchmark::State& state)
{
    PrimFunc func = numericMatmul();
    for (auto _ : state) {
        std::vector<runtime::NDArray> cand = numericArgs(func, 5);
        std::vector<runtime::NDArray> ref = numericArgs(func, 5);
        std::vector<runtime::NDArray*> cand_ptrs = numericPtrs(cand);
        std::vector<runtime::NDArray*> ref_ptrs = numericPtrs(ref);
        runtime::Interpreter interp;
        interp.run(func, cand_ptrs);
        interp.run(func, ref_ptrs);
        double diff = 0;
        for (size_t i = 0; i < cand.size(); ++i) {
            diff = std::max(diff, cand[i].maxAbsDiff(ref[i]));
        }
        benchmark::DoNotOptimize(diff);
    }
}
BENCHMARK(BM_NumericValidationTreeWalk)->Unit(benchmark::kMillisecond);

/** Per-workload tree-walker execution across the Table 1 small suite. */
void
BM_TreeWalkTable1Execution(benchmark::State& state)
{
    std::vector<workloads::OpSpec> suite = workloads::gpuSuiteSmall();
    const workloads::OpSpec& spec =
        suite[static_cast<size_t>(state.range(0))];
    std::vector<runtime::NDArray> args = numericArgs(spec.func, 5);
    std::vector<runtime::NDArray*> arg_ptrs = numericPtrs(args);
    for (auto _ : state) {
        runtime::Interpreter interp;
        interp.run(spec.func, arg_ptrs);
    }
    state.SetLabel(spec.name);
}
BENCHMARK(BM_TreeWalkTable1Execution)->DenseRange(0, 7);

// --- Native JIT tier (see docs/EXECUTION.md) --------------------------

/** The same validation round as BM_NumericValidationTreeWalk, on
 *  native code. The module is compiled once outside the loop, the way
 *  a repeated caller would hold it. */
void
BM_NumericValidationJit(benchmark::State& state)
{
    if (!runtime::jitAvailable()) {
        state.SkipWithError("no working C compiler for the JIT tier");
        return;
    }
    PrimFunc func = numericMatmul();
    std::shared_ptr<const runtime::JitModule> mod =
        runtime::jitCompile(func);
    if (!mod) {
        state.SkipWithError("JIT compilation failed");
        return;
    }
    for (auto _ : state) {
        std::vector<runtime::NDArray> cand = numericArgs(func, 5);
        std::vector<runtime::NDArray> ref = numericArgs(func, 5);
        std::vector<runtime::NDArray*> cand_ptrs = numericPtrs(cand);
        std::vector<runtime::NDArray*> ref_ptrs = numericPtrs(ref);
        mod->run(cand_ptrs);
        mod->run(ref_ptrs);
        double diff = 0;
        for (size_t i = 0; i < cand.size(); ++i) {
            diff = std::max(diff, cand[i].maxAbsDiff(ref[i]));
        }
        benchmark::DoNotOptimize(diff);
    }
}
BENCHMARK(BM_NumericValidationJit)->Unit(benchmark::kMillisecond);

/** Cold-path cost of the tier: emit + system compiler + dlopen (the
 *  in-memory and on-disk caches are cleared every iteration, so each
 *  round pays the full compile). */
void
BM_JitCompile(benchmark::State& state)
{
    if (!runtime::jitAvailable()) {
        state.SkipWithError("no working C compiler for the JIT tier");
        return;
    }
    PrimFunc func = numericMatmul();
    for (auto _ : state) {
        runtime::jitResetForTesting();
        std::error_code ec;
        std::filesystem::remove(runtime::jitObjectPathFor(func), ec);
        benchmark::DoNotOptimize(runtime::jitCompile(func));
    }
}
BENCHMARK(BM_JitCompile)->Unit(benchmark::kMillisecond);

/** Per-workload native execution across the Table 1 small suite —
 *  the JIT row matching BM_TreeWalkTable1Execution. */
void
BM_JitTable1Execution(benchmark::State& state)
{
    if (!runtime::jitAvailable()) {
        state.SkipWithError("no working C compiler for the JIT tier");
        return;
    }
    std::vector<workloads::OpSpec> suite = workloads::gpuSuiteSmall();
    const workloads::OpSpec& spec =
        suite[static_cast<size_t>(state.range(0))];
    std::shared_ptr<const runtime::JitModule> mod =
        runtime::jitCompile(spec.func);
    if (!mod) {
        state.SkipWithError("JIT compilation failed");
        return;
    }
    std::vector<runtime::NDArray> args = numericArgs(spec.func, 5);
    std::vector<runtime::NDArray*> arg_ptrs = numericPtrs(args);
    for (auto _ : state) {
        mod->run(arg_ptrs);
    }
    state.SetLabel(spec.name);
}
BENCHMARK(BM_JitTable1Execution)->DenseRange(0, 7);

} // namespace

BENCHMARK_MAIN();
