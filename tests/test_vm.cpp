/**
 * @file
 * Bytecode VM tests: the VM must reproduce the tree-walking reference
 * oracle bit for bit — outputs, argument validation, select laziness,
 * fuel accounting, failpoint behaviour — and the intrinsic registry
 * both engines share must be safe under concurrent registration
 * (exercised under TSan by the CI job).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "intrin/tensor_intrin.h"
#include "runtime/vm.h"
#include "support/failpoint.h"
#include "tir/schedule.h"

#include "test_util.h"

namespace tir {
namespace {

using runtime::EvalError;
using runtime::Interpreter;
using runtime::NDArray;
using runtime::VirtualMachine;

/** Fill per-parameter inputs the same way for both engines. */
std::vector<NDArray>
makeInputs(const PrimFunc& func, uint64_t seed)
{
    Rng rng(seed);
    return runtime::seededArguments(func, rng);
}

std::vector<NDArray*>
ptrs(std::vector<NDArray>& arrays)
{
    std::vector<NDArray*> out;
    for (NDArray& a : arrays) out.push_back(&a);
    return out;
}

/** Run `func` through both engines on identical inputs and require
 *  bit-identical results on every argument buffer. */
void
expectEnginesAgree(const PrimFunc& func, uint64_t seed = 7)
{
    std::vector<NDArray> vm_args = makeInputs(func, seed);
    std::vector<NDArray> tw_args = makeInputs(func, seed);
    std::vector<NDArray*> vm_ptrs = ptrs(vm_args);
    std::vector<NDArray*> tw_ptrs = ptrs(tw_args);

    VirtualMachine vm;
    vm.run(runtime::compile(func), vm_ptrs);
    Interpreter interp;
    interp.run(func, tw_ptrs);

    for (size_t i = 0; i < vm_args.size(); ++i) {
        EXPECT_EQ(vm_args[i].maxAbsDiff(tw_args[i]), 0.0)
            << "argument " << i << " of " << func->name
            << " differs between VM and tree-walker";
    }
}

TEST(VmTest, MatmulMatchesTreeWalkerBitExact)
{
    expectEnginesAgree(testutil::matmul(12, 9, 7));
}

TEST(VmTest, IntermediateBuffersMatch)
{
    // matmul_relu allocates the matmul result as an intermediate: the
    // VM allocates it per run, the tree-walker lazily.
    expectEnginesAgree(testutil::matmulRelu(8, 6, 5));
}

TEST(VmTest, IntegerWorkloadStaysExact)
{
    expectEnginesAgree(testutil::matmul(6, 6, 6, DataType::i8()));
}

TEST(VmTest, ScheduledImperfectSplitMatches)
{
    // Imperfect split introduces predicates and min/max bounds.
    PrimFunc original = testutil::matmul(10, 8, 8);
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    sch.split(loops[0], {-1, 3});
    expectEnginesAgree(sch.func());
}

TEST(VmTest, TensorizedFuncRunsIntrinsicsThroughVm)
{
    registerBuiltinIntrinsics();
    PrimFunc original = testutil::matmul(8, 8, 8);
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    std::vector<Var> i_split = sch.split(loops[0], {-1, 4});
    std::vector<Var> j_split = sch.split(loops[1], {-1, 4});
    std::vector<Var> k_split = sch.split(loops[2], {-1, 4});
    sch.reorder({i_split[0], j_split[0], k_split[0], i_split[1],
                 j_split[1], k_split[1]});
    sch.decomposeReduction("C", k_split[0]);
    std::string outer = sch.blockize(i_split[1]);
    sch.tensorize(outer, "accel_dot_4x4x4");
    expectEnginesAgree(sch.func());
}

TEST(VmTest, SelectIsLazy)
{
    // Same program as the interpreter's SelectIsLazy test: the guarded
    // branch indexes out of bounds when taken, so an eager select would
    // fault. Compiled select must branch, not evaluate both sides.
    Buffer a = makeBuffer("A", {4});
    Buffer b = makeBuffer("B", {6});
    Var i = var("i");
    Var v = var("v");
    Expr guarded = select(lt(v, intImm(4)), bufferLoad(a, {Expr(v)}),
                          floatImm(0.0));
    BlockPtr block = makeBlock(
        "pad", {IterVar(v, Range::fromExtent(6), IterType::kSpatial)},
        {BufferRegion(a, {Range(intImm(0), intImm(4))})},
        {BufferRegion(b, {Range(Expr(v), intImm(1))})},
        bufferStore(b, guarded, {Expr(v)}));
    Stmt loop = makeFor(i, intImm(0), intImm(6),
                        blockRealize({Expr(i)},
                                     intImm(1, DataType::boolean()),
                                     block));
    PrimFunc func = makeFunc("f", {a, b}, makeRootBlock(loop));
    NDArray a_data(DataType::f32(), {4});
    NDArray b_data(DataType::f32(), {6});
    for (int64_t e = 0; e < 4; ++e) a_data.at(e) = e + 1;
    VirtualMachine vm;
    vm.run(runtime::compile(func), {&a_data, &b_data});
    EXPECT_EQ(b_data.at(3), 4.0);
    EXPECT_EQ(b_data.at(4), 0.0);
    EXPECT_EQ(b_data.at(5), 0.0);
}

TEST(VmTest, PerDimensionShapeValidation)
{
    // Same element count, different shape: must be rejected by both
    // engines (a 2x6 array bound to a 3x4 parameter would make every
    // strided access read the wrong cell).
    PrimFunc f = testutil::matmul(3, 4, 4);
    NDArray a(DataType::f32(), {3, 4});
    NDArray b(DataType::f32(), {4, 4});
    NDArray c_wrong(DataType::f32(), {2, 6});
    Interpreter interp;
    EXPECT_THROW(interp.run(f, {&a, &b, &c_wrong}), FatalError);
    VirtualMachine vm;
    runtime::CompiledFunc compiled = runtime::compile(f);
    EXPECT_THROW(vm.run(compiled, {&a, &b, &c_wrong}), FatalError);

    NDArray c(DataType::f32(), {3, 4});
    EXPECT_NO_THROW(vm.run(compiled, {&a, &b, &c}));
}

TEST(VmTest, ArgumentCountValidation)
{
    PrimFunc f = testutil::matmul(2, 2, 2);
    NDArray a(DataType::f32(), {2, 2});
    VirtualMachine vm;
    EXPECT_THROW(vm.run(runtime::compile(f), {&a}), FatalError);
}

TEST(VmTest, UnderIndexedAccessIsRejected)
{
    // A rank-2 buffer accessed with one index must be an internal
    // error, not a silent wrong-element access. The bufferStore
    // factory already rejects this shape at construction, so build the
    // node directly the way a buggy pass could.
    Buffer a = makeBuffer("A", {4, 5});
    Stmt body = std::make_shared<const BufferStoreNode>(
        a, floatImm(1.0), std::vector<Expr>{intImm(1)});
    PrimFunc f = makeFunc("under_indexed", {a}, makeRootBlock(body));
    NDArray data(DataType::f32(), {4, 5});
    Interpreter interp;
    EXPECT_THROW(interp.run(f, {&data}), InternalError);
    EXPECT_THROW(runtime::compile(f), InternalError);
}

TEST(VmTest, ShadowedLoopVarRestoredAfterInnerLoop)
{
    // Regression: the same VarNode drives an inner loop nested in an
    // outer loop that keeps using it afterwards. Unconditional erase on
    // inner-loop exit used to destroy the outer binding.
    Buffer a = makeBuffer("A", {8});
    Buffer b = makeBuffer("B", {2});
    Var i = var("i");
    Stmt inner = makeFor(i, intImm(0), intImm(2),
                         bufferStore(b, cast(DataType::f32(), Expr(i)),
                                     {Expr(i)}));
    Stmt after = bufferStore(a, cast(DataType::f32(), Expr(i)),
                             {Expr(i)});
    Stmt outer = makeFor(i, intImm(0), intImm(8), seq({inner, after}));
    PrimFunc f = makeFunc("shadow", {a, b}, makeRootBlock(outer));

    NDArray a_data(DataType::f32(), {8});
    NDArray b_data(DataType::f32(), {2});
    Interpreter interp;
    interp.run(f, {&a_data, &b_data});
    for (int64_t e = 0; e < 8; ++e) EXPECT_EQ(a_data.at(e), double(e));

    NDArray a_vm(DataType::f32(), {8});
    NDArray b_vm(DataType::f32(), {2});
    VirtualMachine vm;
    vm.run(runtime::compile(f), {&a_vm, &b_vm});
    EXPECT_EQ(a_vm.maxAbsDiff(a_data), 0.0);
    EXPECT_EQ(b_vm.maxAbsDiff(b_data), 0.0);
}

TEST(VmTest, FailpointFiresLikeTreeWalker)
{
    // Both engines share the interp.run failpoint site and surface it
    // as the same structured EvalError.
    PrimFunc f = testutil::matmul(4, 4, 4);
    std::vector<NDArray> args = makeInputs(f, 3);
    std::vector<NDArray*> arg_ptrs = ptrs(args);
    failpoint::ScopedFailpoints guard("seed=5; interp.run=error(1)");
    Interpreter interp;
    std::string tw_what;
    try {
        interp.run(f, arg_ptrs);
        FAIL() << "tree-walker did not hit the failpoint";
    } catch (const EvalError& e) {
        tw_what = e.what();
    }
    VirtualMachine vm;
    runtime::CompiledFunc compiled = runtime::compile(f);
    try {
        vm.run(compiled, arg_ptrs);
        FAIL() << "VM did not hit the failpoint";
    } catch (const EvalError& e) {
        EXPECT_EQ(tw_what, e.what());
    }
}

TEST(VmFuelTest, StepLimitParityAtEveryBudget)
{
    // Find the exact statement count via the tree-walker, then check
    // that every budget below it exhausts both engines identically —
    // including the partially-written outputs at the point of abort.
    PrimFunc f = testutil::matmul(3, 3, 3);
    runtime::CompiledFunc compiled = runtime::compile(f);

    uint64_t total = 0;
    for (uint64_t limit = 1;; ++limit) {
        std::vector<NDArray> args = makeInputs(f, 1);
        std::vector<NDArray*> arg_ptrs = ptrs(args);
        Interpreter interp;
        interp.setStepLimit(limit);
        try {
            interp.run(f, arg_ptrs);
            total = limit;
            break;
        } catch (const EvalError&) {
        }
        ASSERT_LT(limit, 100000u) << "matmul(3,3,3) runaway";
    }
    ASSERT_GT(total, 1u);

    for (uint64_t limit = 1; limit <= total; ++limit) {
        std::vector<NDArray> tw_args = makeInputs(f, 1);
        std::vector<NDArray*> tw_ptrs = ptrs(tw_args);
        Interpreter interp;
        interp.setStepLimit(limit);
        bool tw_threw = false;
        std::string tw_what;
        try {
            interp.run(f, tw_ptrs);
        } catch (const EvalError& e) {
            tw_threw = true;
            tw_what = e.what();
        }

        std::vector<NDArray> vm_args = makeInputs(f, 1);
        std::vector<NDArray*> vm_ptrs = ptrs(vm_args);
        VirtualMachine vm;
        vm.setStepLimit(limit);
        bool vm_threw = false;
        std::string vm_what;
        try {
            vm.run(compiled, vm_ptrs);
        } catch (const EvalError& e) {
            vm_threw = true;
            vm_what = e.what();
        }

        EXPECT_EQ(tw_threw, vm_threw) << "fuel divergence at limit "
                                      << limit << " of " << total;
        EXPECT_EQ(tw_what, vm_what);
        for (size_t i = 0; i < tw_args.size(); ++i) {
            EXPECT_EQ(tw_args[i].maxAbsDiff(vm_args[i]), 0.0)
                << "partial output " << i << " differs at limit "
                << limit;
        }
    }
}

TEST(VmFuelTest, StepLimitEnvParsingIsStrict)
{
    // strtoull would quietly turn garbage into 0 = unlimited fuel; the
    // parser must reject anything that is not a plain decimal count.
    Interpreter::clearDefaultStepLimit();
    ASSERT_EQ(setenv("TENSORIR_STEP_LIMIT", "12345", 1), 0);
    EXPECT_EQ(Interpreter::defaultStepLimit(), 12345u);
    ASSERT_EQ(setenv("TENSORIR_STEP_LIMIT", "abc", 1), 0);
    EXPECT_THROW(Interpreter::defaultStepLimit(), FatalError);
    ASSERT_EQ(setenv("TENSORIR_STEP_LIMIT", "10x", 1), 0);
    EXPECT_THROW(Interpreter::defaultStepLimit(), FatalError);
    ASSERT_EQ(setenv("TENSORIR_STEP_LIMIT", "-1", 1), 0);
    EXPECT_THROW(Interpreter::defaultStepLimit(), FatalError);
    ASSERT_EQ(setenv("TENSORIR_STEP_LIMIT", "", 1), 0);
    EXPECT_THROW(Interpreter::defaultStepLimit(), FatalError);
    ASSERT_EQ(setenv("TENSORIR_STEP_LIMIT",
                     "99999999999999999999999999", 1),
              0);
    EXPECT_THROW(Interpreter::defaultStepLimit(), FatalError);
    ASSERT_EQ(unsetenv("TENSORIR_STEP_LIMIT"), 0);
    EXPECT_EQ(Interpreter::defaultStepLimit(), 0u);
}

TEST(IntrinRegistryTest, ConcurrentFirstLookupSeesEveryBuiltin)
{
    // Regression: builtin registration used to set its "registered"
    // flag before filling the registry, so a second thread's first
    // lookup could read a half-filled map. The race needs the
    // registry's very first use, so the threads run in a freshly
    // exec'd child (threadsafe death-test style) and look up the
    // builtin registered last. The window is narrow in a plain build;
    // under TSan (the CI TSan job runs IntrinRegistry*) the old code
    // failed every time.
    const std::string saved_style = ::testing::GTEST_FLAG(death_test_style);
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            std::atomic<bool> go{false};
            std::atomic<int> complete{0};
            std::vector<std::thread> threads;
            for (int t = 0; t < 4; ++t) {
                threads.emplace_back([&] {
                    while (!go.load()) {
                    }
                    if (TensorIntrin::exists("arm_gemm_8x12x4") &&
                        Interpreter::hasIntrinsic("arm.gemm_8x12x4")) {
                        complete.fetch_add(1);
                    }
                });
            }
            go.store(true);
            for (std::thread& t : threads) t.join();
            std::_Exit(complete.load() == 4 ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
    ::testing::GTEST_FLAG(death_test_style) = saved_style;
}

TEST(IntrinRegistryTest, ConcurrentRegistrationAndExecution)
{
    // Search workers execute candidates (reading the registry) while
    // other code may still register intrinsics. Snapshot publication
    // must make that race benign — this test runs under TSan in CI.
    registerBuiltinIntrinsics();
    PrimFunc f = testutil::matmul(4, 4, 4);
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w) {
        threads.emplace_back([&, w]() {
            for (int r = 0; r < 50; ++r) {
                Interpreter::registerIntrinsic(
                    "tsan.probe_" + std::to_string(w) + "_" +
                        std::to_string(r),
                    [](runtime::ExecContext&, const CallNode&) {});
            }
            stop.store(true);
        });
    }
    for (int w = 0; w < 2; ++w) {
        threads.emplace_back([&]() {
            while (!stop.load()) {
                std::vector<NDArray> args = makeInputs(f, 2);
                std::vector<NDArray*> arg_ptrs = ptrs(args);
                runtime::execute(f, arg_ptrs);
                EXPECT_TRUE(
                    Interpreter::hasIntrinsic("accel.tile_mma_4x4x4"));
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_TRUE(Interpreter::hasIntrinsic("tsan.probe_0_49"));
    EXPECT_TRUE(Interpreter::hasIntrinsic("tsan.probe_1_49"));
}

} // namespace
} // namespace tir
