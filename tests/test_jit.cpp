/**
 * @file
 * Native JIT tier tests: compile-load-run correctness against the
 * oracle, cache behaviour (memory hit, disk hit, eviction, corrupt-.so
 * recovery), no module (and no retry) under injected compiler/loader
 * failures and a missing toolchain, numeric-checked tunes that never
 * touch the tier, and the single-flight toolchain probe and compile
 * under concurrent first calls. The tests redirect TENSORIR_JIT_CACHE
 * to a private temporary directory so they never race another
 * process's cache.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "intrin/tensor_intrin.h"
#include "meta/search.h"
#include "runtime/jit.h"
#include "support/double_bits.h"
#include "support/failpoint.h"
#include "support/trace.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

namespace fs = std::filesystem;

using testutil::matmul;
using testutil::ScopedEnv;

/** Fixture: private on-disk cache per test + clean in-memory state. */
class JitTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cache_env_.emplace("TENSORIR_JIT_CACHE",
                           cache_dir_.path().c_str());
        runtime::jitResetForTesting();
    }

    void
    TearDown() override
    {
        runtime::jitResetForTesting();
        cache_env_.reset();
    }

    /** Run `func` through the tree-walking oracle on diffInputs-style
     *  seeded arguments and return the outputs for comparison. */
    static std::vector<runtime::NDArray>
    seededArgs(const PrimFunc& func, uint64_t seed = 7)
    {
        Rng rng(seed);
        return runtime::seededArguments(func, rng);
    }

    static std::vector<runtime::NDArray*>
    ptrs(std::vector<runtime::NDArray>& arrays)
    {
        std::vector<runtime::NDArray*> out;
        for (runtime::NDArray& a : arrays) out.push_back(&a);
        return out;
    }

    testutil::ScopedTempDir cache_dir_;
    std::optional<ScopedEnv> cache_env_;
};

TEST_F(JitTest, CompiledKernelMatchesOracleBitExact)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "no working C compiler for the JIT tier";
    }
    PrimFunc func = matmul(12, 10, 8);
    std::shared_ptr<const runtime::JitModule> mod =
        runtime::jitCompile(func);
    ASSERT_NE(mod, nullptr);
    EXPECT_TRUE(fs::exists(mod->objectPath()));

    std::vector<runtime::NDArray> jit_args = seededArgs(func);
    std::vector<runtime::NDArray> tw_args = seededArgs(func);
    std::vector<runtime::NDArray*> jit_ptrs = ptrs(jit_args);
    std::vector<runtime::NDArray*> tw_ptrs = ptrs(tw_args);
    mod->run(jit_ptrs);
    runtime::Interpreter interp;
    interp.run(func, tw_ptrs);
    for (size_t i = 0; i < jit_args.size(); ++i) {
        EXPECT_EQ(jit_args[i].maxAbsDiff(tw_args[i]), 0.0)
            << "argument " << i;
    }
}

TEST_F(JitTest, MemoryAndDiskCacheHits)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "no working C compiler for the JIT tier";
    }
    PrimFunc func = matmul(8, 8, 8);
    ASSERT_NE(runtime::jitCompile(func), nullptr);
    EXPECT_EQ(runtime::jitStats().compiles, 1u);

    // Second request: served from the in-memory module cache.
    ASSERT_NE(runtime::jitCompile(func), nullptr);
    EXPECT_EQ(runtime::jitStats().memory_hits, 1u);
    EXPECT_EQ(runtime::jitStats().compiles, 1u);

    // Fresh process state, same disk cache: dlopen without compiling.
    runtime::jitResetForTesting();
    ASSERT_NE(runtime::jitCompile(func), nullptr);
    EXPECT_EQ(runtime::jitStats().disk_hits, 1u);
    EXPECT_EQ(runtime::jitStats().compiles, 0u);
}

TEST_F(JitTest, CorruptCachedObjectIsRecompiled)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "no working C compiler for the JIT tier";
    }
    PrimFunc func = matmul(9, 9, 9);
    ASSERT_NE(runtime::jitCompile(func), nullptr);
    std::string so = runtime::jitObjectPathFor(func);
    ASSERT_TRUE(fs::exists(so));

    // Simulate a crash mid-write / bit rot: garbage where the object
    // should be. A fresh process must recover transparently.
    runtime::jitResetForTesting();
    {
        std::ofstream out(so, std::ios::binary | std::ios::trunc);
        out << "this is not an ELF shared object";
    }
    std::shared_ptr<const runtime::JitModule> mod =
        runtime::jitCompile(func);
    ASSERT_NE(mod, nullptr);
    EXPECT_EQ(runtime::jitStats().recompiles, 1u);
    EXPECT_EQ(runtime::jitStats().compiles, 1u);

    // And the recovered module still computes the right answer.
    std::vector<runtime::NDArray> jit_args = seededArgs(func);
    std::vector<runtime::NDArray> tw_args = seededArgs(func);
    std::vector<runtime::NDArray*> jit_ptrs = ptrs(jit_args);
    std::vector<runtime::NDArray*> tw_ptrs = ptrs(tw_args);
    mod->run(jit_ptrs);
    runtime::Interpreter interp;
    interp.run(func, tw_ptrs);
    for (size_t i = 0; i < jit_args.size(); ++i) {
        EXPECT_EQ(jit_args[i].maxAbsDiff(tw_args[i]), 0.0);
    }
}

TEST_F(JitTest, CacheEvictsOldestObjectsBeyondCap)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "no working C compiler for the JIT tier";
    }
    // A zero-megabyte cap forces every object except the one just
    // produced out of the cache.
    ScopedEnv cap("TENSORIR_JIT_CACHE_MB", "0");
    PrimFunc a = matmul(8, 8, 8);
    PrimFunc b = matmul(16, 16, 16);
    ASSERT_NE(runtime::jitCompile(a), nullptr);
    std::string a_so = runtime::jitObjectPathFor(a);
    EXPECT_TRUE(fs::exists(a_so));

    ASSERT_NE(runtime::jitCompile(b), nullptr);
    EXPECT_FALSE(fs::exists(a_so))
        << "oldest object should have been evicted";
    EXPECT_TRUE(fs::exists(runtime::jitObjectPathFor(b)))
        << "the just-compiled object must survive its own eviction "
           "pass";
    EXPECT_GE(runtime::jitStats().evictions, 1u);

    // The evicted kernel still works — it is simply a miss again.
    runtime::jitResetForTesting();
    ASSERT_NE(runtime::jitCompile(a), nullptr);
    EXPECT_EQ(runtime::jitStats().compiles, 1u);
}

TEST_F(JitTest, CompilerFailureYieldsNoModuleOnce)
{
    failpoint::ScopedFailpoints chaos("seed=5; jit.compile=error(1)");
    PrimFunc func = matmul(10, 10, 10);
    EXPECT_EQ(runtime::jitCompile(func), nullptr);
    const runtime::JitStats first = runtime::jitStats();
    if (runtime::jitAvailable()) {
        EXPECT_EQ(first.compiles, 1u);
        EXPECT_EQ(first.compile_failures, 1u);
    }
    // The failure is cached per key: asking again runs no compiler.
    EXPECT_EQ(runtime::jitCompile(func), nullptr);
    EXPECT_EQ(runtime::jitStats().compiles, first.compiles);
}

TEST_F(JitTest, DlopenFailureYieldsNoModuleOnce)
{
    failpoint::ScopedFailpoints chaos("seed=5; jit.dlopen=error(1)");
    PrimFunc func = matmul(10, 10, 10);
    EXPECT_EQ(runtime::jitCompile(func), nullptr);
    const runtime::JitStats first = runtime::jitStats();
    EXPECT_EQ(runtime::jitCompile(func), nullptr);
    EXPECT_EQ(runtime::jitStats().compiles, first.compiles);
}

TEST_F(JitTest, MissingToolchainYieldsNoModule)
{
    ScopedEnv cc("TENSORIR_CC", "/nonexistent/tensorir-cc");
    runtime::jitResetForTesting();
    EXPECT_FALSE(runtime::jitAvailable());
    EXPECT_EQ(runtime::jitCompile(matmul(8, 8, 8)), nullptr);
    EXPECT_EQ(runtime::jitCompile(matmul(10, 10, 10)), nullptr);
    EXPECT_EQ(runtime::jitStats().compiles, 0u);
}

TEST_F(JitTest, FuelExhaustionRaisesTheEngineContractError)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "no working C compiler for the JIT tier";
    }
    PrimFunc func = matmul(8, 8, 8);
    std::shared_ptr<const runtime::JitModule> mod =
        runtime::jitCompile(func);
    ASSERT_NE(mod, nullptr);
    std::vector<runtime::NDArray> args = seededArgs(func);
    std::vector<runtime::NDArray*> arg_ptrs = ptrs(args);
    try {
        mod->run(arg_ptrs, uint64_t{1});
        FAIL() << "expected EvalError on fuel exhaustion";
    } catch (const runtime::EvalError& e) {
        EXPECT_STREQ(e.what(),
                     "interpreter step limit of 1 statements exceeded "
                     "(runaway program?)");
    }
    // 0 = unlimited, same as the tree-walker.
    EXPECT_NO_THROW(mod->run(arg_ptrs, uint64_t{0}));
}

TEST_F(JitTest, InjectedInterpFaultMatchesEngineContract)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "no working C compiler for the JIT tier";
    }
    PrimFunc func = matmul(8, 8, 8);
    std::shared_ptr<const runtime::JitModule> mod =
        runtime::jitCompile(func);
    ASSERT_NE(mod, nullptr);
    failpoint::ScopedFailpoints chaos("seed=9; interp.run=error(1)");
    std::vector<runtime::NDArray> args = seededArgs(func);
    std::vector<runtime::NDArray*> arg_ptrs = ptrs(args);
    try {
        mod->run(arg_ptrs);
        FAIL() << "expected the injected interp.run fault";
    } catch (const runtime::EvalError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "injected interpreter fault (failpoint interp.run) "
                  "in " +
                      func->name);
    }
}

TEST_F(JitTest, NumericCheckedTuneIsTheSameWithoutToolchain)
{
    // The tuner's numeric spot-checks run on the tree-walker whether or
    // not a compiler exists: they never reach the native tier, so fuel,
    // registered intrinsic semantics and results cannot depend on the
    // host, and the search reaches the same TuneResult either way.
    registerBuiltinIntrinsics();
    workloads::OpSpec op =
        workloads::gmm(48, 48, 32, DataType::i8(), DataType::i32());
    hwsim::CpuDevice cpu;
    meta::TuneTask task{op.func, op.einsum_block, "cpu",
                        {"arm_sdot_1x1x4", "arm_gemm_8x12x4"}};
    meta::TuneOptions options;
    options.population = 4;
    options.generations = 1;
    options.children_per_generation = 8;
    options.measured_per_generation = 3;
    options.seed = 33;
    options.parallelism = 1;
    options.numeric_check_topk = 2;

    meta::TuneResult with_cc =
        meta::autoTune(task, cpu, options, meta::TunerStyle::kTensorIR);
    EXPECT_EQ(runtime::jitStats().compiles, 0u);

    meta::TuneResult without_cc;
    {
        ScopedEnv cc("TENSORIR_CC", "/nonexistent/tensorir-cc");
        runtime::jitResetForTesting();
        without_cc = meta::autoTune(task, cpu, options,
                                    meta::TunerStyle::kTensorIR);
        EXPECT_FALSE(runtime::jitAvailable());
        EXPECT_EQ(runtime::jitStats().compiles, 0u);
    }

    EXPECT_GT(with_cc.trials_measured, 0);
    EXPECT_EQ(with_cc.numeric_filtered, 0);
    EXPECT_EQ(with_cc.counters(), without_cc.counters());
    EXPECT_EQ(support::doubleBitsHex(with_cc.best_latency_us),
              support::doubleBitsHex(without_cc.best_latency_us));
    EXPECT_EQ(with_cc.history, without_cc.history);
    EXPECT_EQ(with_cc.best_sketch, without_cc.best_sketch);
    ASSERT_EQ(with_cc.best_decisions.size(),
              without_cc.best_decisions.size());
    for (size_t i = 0; i < with_cc.best_decisions.size(); ++i) {
        EXPECT_EQ(with_cc.best_decisions[i].values,
                  without_cc.best_decisions[i].values)
            << "decision " << i;
    }
}

// --- concurrency ---------------------------------------------------------

/** Concurrent first calls into the tier. Repeated pinned to 2 and 4
 *  CPUs and run under TSan by scripts/ci.sh. */
class JitConcurrencyTest : public JitTest
{};

TEST_F(JitConcurrencyTest, FirstProbesShareOneVerdict)
{
    // Regression: every probe of one process wrote and deleted the same
    // probe_<pid>.c/.so, so threads probing at once removed each
    // other's files, and whichever verdict landed first -- often false
    // -- switched native execution off for the rest of the process.
    // Concurrent first calls now share one probe.
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "no working C compiler for the JIT tier";
    }
    testutil::ScopedTempDir dir;
    trace::SessionGuard session(dir.file("trace.json"));
    ASSERT_TRUE(session.owns());
    constexpr int kThreads = 4;
    constexpr int kRounds = 10;
    for (int round = 0; round < kRounds; ++round) {
        runtime::jitResetForTesting();
        std::atomic<int> arrived{0};
        std::atomic<int> available{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&] {
                arrived.fetch_add(1);
                while (arrived.load() < kThreads) {
                }
                if (runtime::jitAvailable()) available.fetch_add(1);
            });
        }
        for (std::thread& t : threads) t.join();
        EXPECT_EQ(available.load(), kThreads) << "round " << round;
        EXPECT_TRUE(runtime::jitAvailable())
            << "round " << round << " cached a failed probe";
    }
    // One compile per round, however many threads asked.
    EXPECT_EQ(testutil::summaryValue(trace::summaryText(), "jit.probe"),
              kRounds);
}

TEST_F(JitConcurrencyTest, FirstCompilesShareOneModule)
{
    if (!runtime::jitAvailable()) {
        GTEST_SKIP() << "no working C compiler for the JIT tier";
    }
    // Every compile sleeps 50 ms before it invokes the compiler, which
    // holds the window for the other threads' requests wide open.
    failpoint::ScopedFailpoints slow("seed=1; jit.compile=delay(1,50)");
    PrimFunc func = matmul(7, 7, 7);
    constexpr int kThreads = 4;
    std::vector<std::shared_ptr<const runtime::JitModule>> modules(
        kThreads);
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            arrived.fetch_add(1);
            while (arrived.load() < kThreads) {
            }
            modules[static_cast<size_t>(t)] = runtime::jitCompile(func);
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(runtime::jitStats().compiles, 1u);
    EXPECT_EQ(runtime::jitStats().memory_hits,
              static_cast<uint64_t>(kThreads - 1));
    ASSERT_NE(modules[0], nullptr);
    for (const auto& mod : modules) EXPECT_EQ(mod, modules[0]);
}

} // namespace
} // namespace tir
