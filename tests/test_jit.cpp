/**
 * @file
 * Native JIT tier tests: compile-load-run correctness against the
 * oracle, cache behaviour (memory hit, disk hit, eviction, corrupt-.so
 * recovery), the engine-selection contract, and graceful VM fallback
 * under injected compiler/loader failures and a missing toolchain.
 * The cache-behaviour tests redirect TENSORIR_JIT_CACHE to a private
 * temporary directory so they never race another process's cache.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

#include "meta/search.h"
#include "runtime/jit.h"
#include "support/failpoint.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

namespace fs = std::filesystem;

using testutil::matmul;
using testutil::ScopedEnv;

/** Fixture: private on-disk cache per test + clean in-memory state.
 *  Also neutralizes the ambient engine environment (CI runs the whole
 *  suite under TENSORIR_ENGINE=treewalk and TENSORIR_ENGINE=jit
 *  passes) — these tests exercise the selection machinery itself, so
 *  they pin their own engine like the differential tests pin their own
 *  interpreters. */
class JitTest : public ::testing::Test
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

    void
    TearDown() override
    {
        runtime::jitResetForTesting();
        engine_env_.reset();
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
    std::optional<ScopedEnv> engine_env_;
};

TEST(JitEngineTest, EngineNamesRoundTrip)
{
    using runtime::Engine;
    EXPECT_STREQ(runtime::engineName(Engine::kTreeWalk), "treewalk");
    EXPECT_STREQ(runtime::engineName(Engine::kVm), "vm");
    EXPECT_STREQ(runtime::engineName(Engine::kJit), "jit");
    EXPECT_EQ(runtime::parseEngineName("treewalk"), Engine::kTreeWalk);
    EXPECT_EQ(runtime::parseEngineName("vm"), Engine::kVm);
    EXPECT_EQ(runtime::parseEngineName("jit"), Engine::kJit);
    EXPECT_EQ(runtime::parseEngineName("JIT"), std::nullopt);
    EXPECT_EQ(runtime::parseEngineName(""), std::nullopt);
}

TEST(JitEngineTest, SelectionOrderContract)
{
    using runtime::Engine;
    // This test asserts the selection order itself, so clear the env
    // knobs a CI pass may have exported for the rest of the suite.
    ScopedEnv engine_env("TENSORIR_ENGINE", nullptr);
    // Default: the bytecode VM.
    EXPECT_EQ(runtime::selectedEngine(), Engine::kVm);
    {
        // An explicit override wins over the default.
        runtime::ScopedEngine jit(Engine::kJit);
        EXPECT_EQ(runtime::selectedEngine(), Engine::kJit);
    }
    {
        // TENSORIR_ENGINE selects when no override is installed, and an
        // explicit override still beats it.
        ScopedEnv treewalk("TENSORIR_ENGINE", "treewalk");
        EXPECT_EQ(runtime::selectedEngine(), Engine::kTreeWalk);
        runtime::ScopedEngine jit(Engine::kJit);
        EXPECT_EQ(runtime::selectedEngine(), Engine::kJit);
    }
    // ScopedEngine restored the previous (empty) override.
    EXPECT_EQ(runtime::selectedEngine(), Engine::kVm);
}

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

TEST_F(JitTest, CompilerFailureFallsBackToVm)
{
    runtime::ScopedEngine jit(runtime::Engine::kJit);
    failpoint::ScopedFailpoints chaos("seed=5; jit.compile=error(1)");
    PrimFunc func = matmul(10, 10, 10);
    std::vector<runtime::NDArray> args = seededArgs(func);
    std::vector<runtime::NDArray> tw_args = seededArgs(func);
    std::vector<runtime::NDArray*> arg_ptrs = ptrs(args);
    std::vector<runtime::NDArray*> tw_ptrs = ptrs(tw_args);
    // execute must degrade to the VM, not throw.
    runtime::execute(func, arg_ptrs);
    EXPECT_GE(runtime::jitStats().vm_fallbacks, 1u);
    if (runtime::jitAvailable()) {
        EXPECT_GE(runtime::jitStats().compile_failures, 1u);
    }
    runtime::Interpreter interp;
    interp.run(func, tw_ptrs);
    for (size_t i = 0; i < args.size(); ++i) {
        EXPECT_EQ(args[i].maxAbsDiff(tw_args[i]), 0.0);
    }
}

TEST_F(JitTest, DlopenFailureFallsBackToVm)
{
    runtime::ScopedEngine jit(runtime::Engine::kJit);
    failpoint::ScopedFailpoints chaos("seed=5; jit.dlopen=error(1)");
    PrimFunc func = matmul(10, 10, 10);
    std::vector<runtime::NDArray> args = seededArgs(func);
    std::vector<runtime::NDArray*> arg_ptrs = ptrs(args);
    runtime::execute(func, arg_ptrs);
    EXPECT_GE(runtime::jitStats().vm_fallbacks, 1u);
}

TEST_F(JitTest, MissingToolchainFallsBackToVm)
{
    ScopedEnv cc("TENSORIR_CC", "/nonexistent/tensorir-cc");
    runtime::jitResetForTesting();
    EXPECT_FALSE(runtime::jitAvailable());
    EXPECT_EQ(runtime::jitCompile(matmul(8, 8, 8)), nullptr);

    runtime::ScopedEngine jit(runtime::Engine::kJit);
    PrimFunc func = matmul(10, 10, 10);
    std::vector<runtime::NDArray> args = seededArgs(func);
    std::vector<runtime::NDArray> tw_args = seededArgs(func);
    std::vector<runtime::NDArray*> arg_ptrs = ptrs(args);
    std::vector<runtime::NDArray*> tw_ptrs = ptrs(tw_args);
    runtime::execute(func, arg_ptrs);
    EXPECT_GE(runtime::jitStats().vm_fallbacks, 1u);
    runtime::Interpreter interp;
    interp.run(func, tw_ptrs);
    for (size_t i = 0; i < args.size(); ++i) {
        EXPECT_EQ(args[i].maxAbsDiff(tw_args[i]), 0.0);
    }
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
    // 0 = unlimited, same as the other engines.
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

TEST_F(JitTest, TuneOptionsEngineDrivesNumericChecks)
{
    // TuneOptions::engine = "jit" routes the tuner's numeric
    // spot-checks through the native tier (with transparent VM
    // fallback when no toolchain exists, so this test is
    // environment-independent).
    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions options;
    options.population = 4;
    options.generations = 2;
    options.children_per_generation = 8;
    options.measured_per_generation = 4;
    options.seed = 33;
    options.numeric_check_topk = 2;
    options.engine = "jit";
    meta::TuneResult result =
        meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR);
    EXPECT_GT(result.trials_measured, 0);
    // The override is scoped to the tune: the ambient engine is back
    // to the default afterwards.
    EXPECT_EQ(runtime::selectedEngine(), runtime::Engine::kVm);

    // A typo'd engine name must fail loudly, not silently change
    // engines.
    options.engine = "native";
    EXPECT_THROW(
        meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR),
        FatalError);
}

} // namespace
} // namespace tir
