/**
 * @file
 * Property-style parameterized sweeps over schedule primitives: every
 * sampled transformation sequence must preserve program semantics
 * (checked numerically) and pass the §3.3 validators. These are the
 * equivalence guarantees the paper's primitive-correctness checks make.
 */
#include <gtest/gtest.h>

#include "intrin/tensor_intrin.h"
#include "lower/lower.h"
#include "runtime/jit.h"
#include "support/failpoint.h"
#include "tir/schedule.h"
#include "tir/verify.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

using testutil::expectSameResults;
using testutil::matmul;

/** Split factor sweeps: every perfect and imperfect split is safe. */
class SplitPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(SplitPropertyTest, SplitPreservesSemantics)
{
    auto [extent, f1, f2] = GetParam();
    PrimFunc original = matmul(extent, 8, 8);
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    sch.split(loops[0], {-1, f1, f2});
    sch.validateAffineBindings();
    expectSameResults(sch.func(), original);
}

INSTANTIATE_TEST_SUITE_P(
    FactorSweep, SplitPropertyTest,
    ::testing::Values(std::make_tuple(16, 2, 2),
                      std::make_tuple(16, 4, 2),
                      std::make_tuple(16, 1, 16),
                      std::make_tuple(12, 3, 2),
                      std::make_tuple(10, 3, 2), // imperfect (12 > 10)
                      std::make_tuple(7, 2, 2),  // imperfect (8 > 7)
                      std::make_tuple(24, 6, 4),
                      std::make_tuple(9, 9, 1)));

/** Reorder permutation sweeps over a 3-deep nest. */
class ReorderPropertyTest : public ::testing::TestWithParam<int>
{};

TEST_P(ReorderPropertyTest, AnyPermutationIsSafe)
{
    int perm = GetParam();
    PrimFunc original = matmul(6, 10, 14);
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    std::vector<int> order = {0, 1, 2};
    for (int i = 0; i < perm; ++i) {
        std::next_permutation(order.begin(), order.end());
    }
    sch.reorder({loops[static_cast<size_t>(order[0])],
                 loops[static_cast<size_t>(order[1])],
                 loops[static_cast<size_t>(order[2])]});
    sch.validateAffineBindings();
    expectSameResults(sch.func(), original);
}

INSTANTIATE_TEST_SUITE_P(AllPermutations, ReorderPropertyTest,
                         ::testing::Range(0, 6));

/** Fuse-split round trips with varied refactorizations. */
class FuseSplitPropertyTest
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(FuseSplitPropertyTest, RefactorizationIsSafe)
{
    auto [outer, inner] = GetParam();
    PrimFunc original = matmul(8, 8, 8);
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    Var fused = sch.fuse({loops[0], loops[1]});
    sch.split(fused, {outer, inner});
    sch.validateAffineBindings();
    expectSameResults(sch.func(), original);
}

INSTANTIATE_TEST_SUITE_P(
    Refactor, FuseSplitPropertyTest,
    ::testing::Values(std::make_pair(2, 32), std::make_pair(4, 16),
                      std::make_pair(8, 8), std::make_pair(16, 4),
                      std::make_pair(32, 2), std::make_pair(64, 1)));

/** Tensorize across intrinsic tile sizes (with matching workloads). */
class TensorizePropertyTest : public ::testing::TestWithParam<int>
{};

TEST_P(TensorizePropertyTest, DifferentTileSizes)
{
    registerBuiltinIntrinsics();
    int64_t tile = GetParam();
    std::string name = "prop_mma_" + std::to_string(tile);
    if (!TensorIntrin::exists(name)) {
        TensorIntrin intrin = makeMatmulIntrin(
            name, tile, tile, tile, DataType::f32(), DataType::f32(),
            "any", "any", "any", "prop.mma_" + std::to_string(tile),
            "dot4", "thread");
        TensorIntrin::registerIntrin(intrin);
        int64_t t = tile;
        runtime::Interpreter::registerIntrinsic(
            "prop.mma_" + std::to_string(tile),
            [t](runtime::ExecContext& interp, const CallNode& call) {
                runtime::BufferRef c = interp.resolvePtr(call.args[0]);
                runtime::BufferRef a = interp.resolvePtr(call.args[1]);
                runtime::BufferRef b = interp.resolvePtr(call.args[2]);
                int64_t sc = c.buffer->shapeInt(c.buffer->ndim() - 1);
                int64_t sa = a.buffer->shapeInt(a.buffer->ndim() - 1);
                int64_t sb = b.buffer->shapeInt(b.buffer->ndim() - 1);
                for (int64_t i = 0; i < t; ++i) {
                    for (int64_t j = 0; j < t; ++j) {
                        for (int64_t k = 0; k < t; ++k) {
                            c.array->at(c.offset + i * sc + j) +=
                                a.array->at(a.offset + i * sa + k) *
                                b.array->at(b.offset + k * sb + j);
                        }
                    }
                }
            });
    }
    PrimFunc original = matmul(32, 32, 32);
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    std::vector<Var> i_split = sch.split(loops[0], {-1, tile});
    std::vector<Var> j_split = sch.split(loops[1], {-1, tile});
    std::vector<Var> k_split = sch.split(loops[2], {-1, tile});
    sch.reorder({i_split[0], j_split[0], k_split[0], i_split[1],
                 j_split[1], k_split[1]});
    sch.decomposeReduction("C", k_split[0]);
    std::string outer = sch.blockize(i_split[1]);
    sch.tensorize(outer, name);
    sch.validateAffineBindings();
    expectSameResults(sch.func(), original);
}

INSTANTIATE_TEST_SUITE_P(TileSizes, TensorizePropertyTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

/** Sampled random schedules: whatever the sampler picks must be valid
 *  or rejected — never silently wrong. */
class RandomScheduleTest : public ::testing::TestWithParam<int>
{};

TEST_P(RandomScheduleTest, SampledTilingsStaySound)
{
    PrimFunc original = matmul(24, 24, 24);
    Schedule sch(original, /*seed=*/static_cast<uint64_t>(GetParam()));
    std::vector<Var> loops = sch.getLoops("C");
    std::vector<int64_t> ti = sch.samplePerfectTile(loops[0], 3, 8);
    std::vector<Var> i_split = sch.split(loops[0], ti);
    std::vector<int64_t> tj = sch.samplePerfectTile(loops[1], 2, 8);
    std::vector<Var> j_split = sch.split(loops[1], tj);
    sch.reorder({i_split[0], j_split[0], i_split[1], j_split[1],
                 i_split[2]});
    sch.validateAffineBindings();
    EXPECT_TRUE(verifyRegionCover(sch.func()).ok);
    expectSameResults(sch.func(), original);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScheduleTest,
                         ::testing::Range(1, 13));

/** Differential engine property: randomly scheduled Table 1 workloads
 *  must behave identically as native code and on the tree-walking
 *  oracle — outputs bit for bit, the same fuel-exhaustion point with
 *  the same partial state on the lowered statement stream, and the
 *  same failpoint firing. The C emitter performs exactly the
 *  interpreter's double arithmetic and the object is built with
 *  -ffp-contract=off, so on one machine and libm the comparison holds
 *  bit for bit (docs/EXECUTION.md documents when it would not). A
 *  missing toolchain skips rather than fails. */
class JitDifferentialTest : public ::testing::TestWithParam<int>
{
  protected:
    void
    SetUp() override
    {
        if (!runtime::jitAvailable()) {
            GTEST_SKIP() << "no working C compiler for the JIT tier";
        }
    }
};

std::vector<runtime::NDArray>
diffInputs(const PrimFunc& func, uint64_t seed)
{
    Rng rng(seed);
    return runtime::seededArguments(func, rng);
}

std::vector<runtime::NDArray*>
diffPtrs(std::vector<runtime::NDArray>& arrays)
{
    std::vector<runtime::NDArray*> out;
    for (runtime::NDArray& a : arrays) out.push_back(&a);
    return out;
}

/** Tile every loop of the einsum block with sampled perfect factors. */
PrimFunc
randomSchedule(const workloads::OpSpec& spec, uint64_t seed)
{
    Schedule sch(spec.func, seed);
    std::vector<Var> loops = sch.getLoops(spec.einsum_block);
    for (const Var& loop : loops) {
        sch.split(loop, sch.samplePerfectTile(loop, 2, 4));
    }
    sch.validateAffineBindings();
    return sch.func();
}

TEST_P(JitDifferentialTest, ScheduledWorkloadsMatchOracleBitExact)
{
    uint64_t seed = static_cast<uint64_t>(GetParam());
    for (const workloads::OpSpec& spec : workloads::gpuSuiteSmall()) {
        PrimFunc func = randomSchedule(spec, seed);
        std::shared_ptr<const runtime::JitModule> mod =
            runtime::jitCompile(func);
        ASSERT_NE(mod, nullptr)
            << spec.name << ": JIT compilation failed";
        std::vector<runtime::NDArray> jit_args = diffInputs(func, seed);
        std::vector<runtime::NDArray> tw_args = diffInputs(func, seed);
        std::vector<runtime::NDArray*> jit_ptrs = diffPtrs(jit_args);
        std::vector<runtime::NDArray*> tw_ptrs = diffPtrs(tw_args);
        mod->run(jit_ptrs);
        runtime::Interpreter interp;
        interp.run(func, tw_ptrs);
        for (size_t i = 0; i < jit_args.size(); ++i) {
            EXPECT_EQ(jit_args[i].maxAbsDiff(tw_args[i]), 0.0)
                << spec.name << " argument " << i
                << " differs between JIT and tree-walker";
        }
    }
}

TEST_P(JitDifferentialTest, FuelExhaustionMatchesOracle)
{
    // Native code charges fuel on the lowered statement stream, so the
    // tree-walker runs the lowered function here: both must run out of
    // fuel at the same statement, report the same message, and leave
    // identical partial results behind.
    uint64_t seed = static_cast<uint64_t>(GetParam());
    for (const workloads::OpSpec& spec : workloads::gpuSuiteSmall()) {
        PrimFunc scheduled = randomSchedule(spec, seed);
        std::shared_ptr<const runtime::JitModule> mod =
            runtime::jitCompile(scheduled);
        ASSERT_NE(mod, nullptr)
            << spec.name << ": JIT compilation failed";
        PrimFunc func = lowerToLoops(scheduled);
        for (uint64_t limit : {uint64_t{41}, uint64_t{977}}) {
            std::vector<runtime::NDArray> tw_args =
                diffInputs(func, seed);
            std::vector<runtime::NDArray*> tw_ptrs = diffPtrs(tw_args);
            bool tw_threw = false;
            std::string tw_what;
            runtime::Interpreter interp;
            interp.setStepLimit(limit);
            try {
                interp.run(func, tw_ptrs);
            } catch (const runtime::EvalError& e) {
                tw_threw = true;
                tw_what = e.what();
            }

            std::vector<runtime::NDArray> jit_args =
                diffInputs(func, seed);
            std::vector<runtime::NDArray*> jit_ptrs = diffPtrs(jit_args);
            bool jit_threw = false;
            std::string jit_what;
            try {
                mod->run(jit_ptrs, limit);
            } catch (const runtime::EvalError& e) {
                jit_threw = true;
                jit_what = e.what();
            }

            EXPECT_EQ(tw_threw, jit_threw)
                << spec.name << " fuel divergence at limit " << limit;
            EXPECT_EQ(tw_what, jit_what);
            for (size_t i = 0; i < jit_args.size(); ++i) {
                EXPECT_EQ(jit_args[i].maxAbsDiff(tw_args[i]), 0.0)
                    << spec.name << " partial state of argument " << i
                    << " differs at limit " << limit;
            }
        }
    }
}

TEST_P(JitDifferentialTest, FailpointFiresIdentically)
{
    uint64_t seed = static_cast<uint64_t>(GetParam());
    for (const workloads::OpSpec& spec : workloads::gpuSuiteSmall()) {
        PrimFunc func = randomSchedule(spec, seed);
        std::shared_ptr<const runtime::JitModule> mod =
            runtime::jitCompile(func);
        ASSERT_NE(mod, nullptr)
            << spec.name << ": JIT compilation failed";
        std::vector<runtime::NDArray> args = diffInputs(func, seed);
        std::vector<runtime::NDArray*> arg_ptrs = diffPtrs(args);
        failpoint::ScopedFailpoints guard("seed=9; interp.run=error(1)");
        std::string tw_what;
        try {
            runtime::Interpreter interp;
            interp.run(func, arg_ptrs);
            FAIL() << spec.name << ": tree-walker missed the failpoint";
        } catch (const runtime::EvalError& e) {
            tw_what = e.what();
        }
        try {
            mod->run(arg_ptrs);
            FAIL() << spec.name << ": JIT missed the failpoint";
        } catch (const runtime::EvalError& e) {
            EXPECT_EQ(tw_what, e.what()) << spec.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitDifferentialTest,
                         ::testing::Range(1, 4));

/** compute_at at every loop depth of the consumer. */
class ComputeAtDepthTest : public ::testing::TestWithParam<int>
{};

TEST_P(ComputeAtDepthTest, EveryDepthIsSafe)
{
    int depth = GetParam();
    PrimFunc original = testutil::matmulRelu(16, 16, 8);
    Schedule sch(original);
    std::vector<Var> d_loops = sch.getLoops("D");
    sch.computeAt("C", d_loops[static_cast<size_t>(depth)]);
    sch.validateAffineBindings();
    EXPECT_TRUE(verifyRegionCover(sch.func()).ok);
    expectSameResults(sch.func(), original);
}

INSTANTIATE_TEST_SUITE_P(Depths, ComputeAtDepthTest,
                         ::testing::Range(0, 2));

} // namespace
} // namespace tir
