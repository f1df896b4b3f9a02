/**
 * @file
 * Negative-path tests: every schedule primitive must reject misuse with
 * a FatalError diagnostic rather than producing a wrong program — the
 * "users get warning or error information" half of §3.3.
 */
#include <gtest/gtest.h>

#include "intrin/tensor_intrin.h"
#include "tir/schedule.h"

#include "test_util.h"

namespace tir {
namespace {

using testutil::matmul;
using testutil::matmulRelu;

TEST(ScheduleErrorTest, SplitThreadBoundLoop)
{
    Schedule sch(matmul(16, 16, 16));
    std::vector<Var> loops = sch.getLoops("C");
    sch.bind(loops[0], "blockIdx.x");
    EXPECT_THROW(sch.split(loops[0], {4, 4}), FatalError);
}

TEST(ScheduleErrorTest, SplitWithTwoInferredFactors)
{
    Schedule sch(matmul(16, 16, 16));
    std::vector<Var> loops = sch.getLoops("C");
    EXPECT_THROW(sch.split(loops[0], {-1, -1}), FatalError);
}

TEST(ScheduleErrorTest, SplitZeroFactor)
{
    Schedule sch(matmul(16, 16, 16));
    std::vector<Var> loops = sch.getLoops("C");
    EXPECT_THROW(sch.split(loops[0], {0, 16}), FatalError);
}

TEST(ScheduleErrorTest, FuseAcrossBlocks)
{
    // Loops of different blocks are not nested: fuse must refuse.
    Schedule sch(matmulRelu(8, 8, 8));
    Var c_loop = sch.getLoops("C")[0];
    Var d_loop = sch.getLoops("D")[0];
    EXPECT_THROW(sch.fuse({c_loop, d_loop}), FatalError);
}

TEST(ScheduleErrorTest, FuseThreadBoundLoops)
{
    Schedule sch(matmul(8, 8, 8));
    std::vector<Var> loops = sch.getLoops("C");
    sch.bind(loops[0], "blockIdx.x");
    EXPECT_THROW(sch.fuse({loops[0], loops[1]}), FatalError);
}

TEST(ScheduleErrorTest, ReorderDisjointNests)
{
    Schedule sch(matmulRelu(8, 8, 8));
    Var c_loop = sch.getLoops("C")[0];
    Var d_loop = sch.getLoops("D")[0];
    EXPECT_THROW(sch.reorder({c_loop, d_loop}), FatalError);
}

TEST(ScheduleErrorTest, ComputeAtWithoutConsumer)
{
    // D's loops contain no consumer of... moving D (the consumer) via
    // computeAt under C's own reduction loop: C doesn't read D.
    Schedule sch(matmulRelu(8, 8, 8));
    std::vector<Var> c_loops = sch.getLoops("C");
    EXPECT_THROW(sch.computeAt("D", c_loops[2]), FatalError);
}

TEST(ScheduleErrorTest, ReverseComputeAtNeedsSpatialConsumer)
{
    // The reduction block C is not a pure spatial consumer.
    Schedule sch(matmulRelu(8, 8, 8));
    std::vector<Var> d_loops = sch.getLoops("D");
    EXPECT_THROW(sch.reverseComputeAt("C", d_loops[0]), FatalError);
}

TEST(ScheduleErrorTest, CacheReadIndexOutOfRange)
{
    Schedule sch(matmul(8, 8, 8));
    EXPECT_THROW(sch.cacheRead("C", 7, "shared"), FatalError);
    EXPECT_THROW(sch.cacheRead("C", -1, "shared"), FatalError);
}

TEST(ScheduleErrorTest, TensorizeUnknownIntrinsic)
{
    registerBuiltinIntrinsics();
    Schedule sch(matmul(16, 16, 16));
    std::vector<Var> loops = sch.getLoops("C");
    std::vector<Var> i_split = sch.split(loops[0], {-1, 4});
    std::vector<Var> j_split = sch.split(loops[1], {-1, 4});
    std::vector<Var> k_split = sch.split(loops[2], {-1, 4});
    sch.reorder({i_split[0], j_split[0], k_split[0], i_split[1],
                 j_split[1], k_split[1]});
    sch.decomposeReduction("C", k_split[0]);
    std::string outer = sch.blockize(i_split[1]);
    EXPECT_THROW(sch.tensorize(outer, "no_such_intrin"), FatalError);
}

TEST(ScheduleErrorTest, TensorizeNonMatchingBlock)
{
    // The elementwise D block does not match a matmul description.
    registerBuiltinIntrinsics();
    Schedule sch(matmulRelu(16, 16, 16));
    EXPECT_THROW(sch.tensorize("D", "accel_dot_4x4x4"), FatalError);
}

TEST(ScheduleErrorTest, DecomposeAtForeignLoop)
{
    Schedule sch(matmulRelu(8, 8, 8));
    Var d_loop = sch.getLoops("D")[0];
    EXPECT_THROW(sch.decomposeReduction("C", d_loop), FatalError);
}

TEST(ScheduleErrorTest, DecomposeBelowReductionBinding)
{
    // After reordering k above i, decomposing at i would hoist the init
    // under a reduction loop: rejected.
    Schedule sch(matmul(8, 8, 8));
    std::vector<Var> loops = sch.getLoops("C");
    sch.reorder({loops[2], loops[0]});
    EXPECT_THROW(sch.decomposeReduction("C", loops[0]), FatalError);
}

TEST(ScheduleErrorTest, DecomposeWithoutInit)
{
    Schedule sch(matmul(8, 8, 8));
    std::vector<Var> loops = sch.getLoops("C");
    sch.decomposeReduction("C", loops[2]);
    // Second decompose: the update block no longer carries an init.
    EXPECT_THROW(sch.decomposeReduction("C", loops[2]), FatalError);
}

TEST(ScheduleErrorTest, BlockizeMultiBlockSubtree)
{
    // The root-level loop of the relu pipeline holds two blocks after
    // compute_at: blockize must refuse non-single-chain subtrees.
    Schedule sch(matmulRelu(8, 8, 8));
    std::vector<Var> d_loops = sch.getLoops("D");
    sch.computeAt("C", d_loops[0]);
    EXPECT_THROW(sch.blockize(d_loops[0]), FatalError);
}

TEST(ScheduleErrorTest, ReindexFusedOrderMustCoverGroups)
{
    // The operand order must list exactly the groups the operand uses.
    Schedule sch(matmulRelu(8, 8, 8));
    EXPECT_THROW(sch.reindexFused("D", -1, {{0}, {1}}, {8, 8}, {0}),
                 FatalError);
}

TEST(ScheduleErrorTest, UnknownBlockAndLoopNames)
{
    Schedule sch(matmul(8, 8, 8));
    EXPECT_THROW(sch.getLoops("missing"), FatalError);
    Var stray = var("stray");
    EXPECT_THROW(sch.split(stray, {2, 4}), FatalError);
    EXPECT_THROW(sch.loopExtent(stray), FatalError);
}

TEST(ScheduleErrorTest, LoopLookupFindsOnlyLiveLoops)
{
    // Loop lookup walks statements only. A block iterator appears in
    // expressions but is no loop, and a loop split away is gone.
    Schedule sch(matmul(8, 8, 8));
    Var iter = sch.getBlock("C")->iter_vars[0].var;
    EXPECT_THROW(sch.loopExtent(iter), FatalError);
    EXPECT_THROW(sch.bind(iter, "threadIdx.x"), FatalError);
    std::vector<Var> loops = sch.getLoops("C");
    std::vector<Var> parts = sch.split(loops[0], {2, 4});
    EXPECT_THROW(sch.loopExtent(loops[0]), FatalError);
    EXPECT_THROW(sch.vectorize(loops[0]), FatalError);
    EXPECT_EQ(sch.loopExtent(parts[1]), 4);
}

TEST(ScheduleErrorTest, ValidationCatchesHandCraftedBadBinding)
{
    // Manually craft the paper's invalid v1 = i, v2 = i*2 program and
    // confirm whole-function validation rejects it.
    Buffer buf = makeBuffer("B", {16, 32});
    Var i = var("i");
    Var v1 = var("v1");
    Var v2 = var("v2");
    BlockPtr block = makeBlock(
        "bad",
        {IterVar(v1, Range::fromExtent(16), IterType::kSpatial),
         IterVar(v2, Range::fromExtent(32), IterType::kSpatial)},
        {},
        {BufferRegion(buf, {Range(Expr(v1), intImm(1)),
                            Range(Expr(v2), intImm(1))})},
        bufferStore(buf, floatImm(0), {Expr(v1), Expr(v2)}));
    Stmt realize = blockRealize({Expr(i), Expr(i) * 2},
                                intImm(1, DataType::boolean()), block);
    Stmt loop = makeFor(i, intImm(0), intImm(16), realize);
    PrimFunc func = makeFunc("bad", {buf}, makeRootBlock(loop));
    Schedule sch(func);
    EXPECT_THROW(sch.validateAffineBindings(), FatalError);
}

} // namespace
} // namespace tir
