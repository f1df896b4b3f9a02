/**
 * @file
 * Auto-scheduler tests (§4): tensorization candidate generation with
 * characteristic vectors, ReIndex + layout application, sketch
 * generation, the evolutionary search, and the end-to-end autoTune on
 * every workload of the small suite (parameterized, numerically
 * verified against the unscheduled reference).
 */
#include <gtest/gtest.h>

#include "meta/search.h"
#include "meta/sketch.h"
#include "runtime/interpreter.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

TEST(CandidateTest, GmmMatchesWmma)
{
    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    ASSERT_EQ(candidates.size(), 1u);
    const meta::TensorizeCandidate& cand = candidates[0];
    EXPECT_FALSE(cand.has_batch);
    ASSERT_EQ(cand.groups.size(), 3u); // x, y, k
    EXPECT_EQ(cand.padded[0], 64);
    EXPECT_EQ(cand.padding_waste, 1.0);
}

TEST(CandidateTest, BatchMatmulHasBatchGroup)
{
    workloads::OpSpec op = workloads::batchMatmul(4, 32, 32, 32);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_TRUE(candidates[0].has_batch);
    ASSERT_EQ(candidates[0].groups.size(), 4u);
    EXPECT_EQ(candidates[0].padded[0], 4); // batch unpadded
}

TEST(CandidateTest, Conv2dGroupsFollowCharacteristicVectors)
{
    // The Figure 9 walk-through: x = (n, h, w), y = co, k = (rh, rw, rc).
    workloads::OpSpec op = workloads::conv2d(2, 8, 8, 16, 32, 3, 1, 1);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    ASSERT_EQ(candidates.size(), 1u);
    const meta::TensorizeCandidate& cand = candidates[0];
    EXPECT_FALSE(cand.has_batch);
    ASSERT_EQ(cand.groups.size(), 3u);
    EXPECT_EQ(cand.groups[0].size(), 3u); // n, h, w
    EXPECT_EQ(cand.groups[1].size(), 1u); // co
    EXPECT_EQ(cand.groups[2].size(), 3u); // rh, rw, rc
    // x extent: 2*8*8 = 128 (divisible by 16); k: 3*3*16 = 144.
    EXPECT_EQ(cand.padded[0], 128);
    EXPECT_EQ(cand.padded[2], 144);
}

TEST(CandidateTest, PaddingWasteComputed)
{
    // 10x10x10 against 16x16x16 tiles: heavy padding.
    workloads::OpSpec op = workloads::gmm(10, 10, 10);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_NEAR(candidates[0].padding_waste,
                (16.0 * 16 * 16) / (10.0 * 10 * 10), 1e-9);
}

TEST(CandidateTest, DepthwiseHasNoCandidate)
{
    // DEP has no y-class iterator (channel joins all operands): the
    // pipeline must fall back to non-tensorized sketches.
    workloads::OpSpec op = workloads::depthwiseConv2d(1, 8, 8, 16, 3, 1,
                                                      1);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    EXPECT_TRUE(candidates.empty());
}

TEST(CandidateTest, DtypeMismatchRejected)
{
    workloads::OpSpec op = workloads::gmm(64, 64, 64, DataType::f32(),
                                          DataType::f32());
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    EXPECT_TRUE(candidates.empty());
}

TEST(CandidateTest, ElementwiseBlockRejected)
{
    workloads::OpSpec op = workloads::matmulRelu(16, 16, 16);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "D", {"accel_dot_4x4x4"});
    EXPECT_TRUE(candidates.empty());
}

TEST(ReindexTest, GmmIdentityIsLayoutFree)
{
    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    Schedule sch(op.func, 1);
    meta::ReindexBlocks rb =
        meta::applyReindexAndLayout(sch, candidates[0]);
    // GMM layouts already match: all three stages are marked free.
    for (const std::string& copy :
         {rb.a_copy, rb.b_copy, rb.c_writeback}) {
        BlockPtr block = sch.getBlock(copy);
        EXPECT_TRUE(block->annotations.count("layout_free"))
            << copy << " should be an identity reshape";
    }
}

TEST(ReindexTest, ConvImageGatherIsNotFree)
{
    workloads::OpSpec op = workloads::conv2d(1, 8, 8, 16, 16, 3, 1, 1);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    Schedule sch(op.func, 1);
    meta::ReindexBlocks rb =
        meta::applyReindexAndLayout(sch, candidates[0]);
    // The im2col gather of the padded image must be materialized.
    BlockPtr a_block = sch.getBlock(rb.a_copy);
    EXPECT_FALSE(a_block->annotations.count("layout_free"));
    // The weight reshape ([rh,rw,ci,co] -> [k,y]) is contiguous: free.
    BlockPtr b_block = sch.getBlock(rb.b_copy);
    EXPECT_TRUE(b_block->annotations.count("layout_free"));
}

TEST(ReindexTest, PreservesSemantics)
{
    workloads::OpSpec op = workloads::conv2d(
        1, 6, 6, 8, 16, 3, 1, 1, 1, DataType::f16(), DataType::f16());
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "C", {"wmma_16x16x16_f16"});
    ASSERT_FALSE(candidates.empty());
    Schedule sch(op.func, 1);
    meta::applyReindexAndLayout(sch, candidates[0]);
    sch.validateAffineBindings();
    testutil::expectSameResults(sch.func(), op.func, 1, 1e-6);
}

TEST(FeatureTest, VectorShapeAndSensitivity)
{
    PrimFunc func = testutil::matmul(32, 32, 32);
    meta::FeatureVec features = meta::extractFeatures(func);
    EXPECT_EQ(features.size(), 17u);
    // Scheduling changes features.
    Schedule sch(func);
    std::vector<Var> loops = sch.getLoops("C");
    sch.bind(loops[0], "blockIdx.x");
    sch.bind(loops[1], "threadIdx.x");
    meta::FeatureVec after = meta::extractFeatures(sch.func());
    EXPECT_NE(features, after);
    EXPECT_EQ(after.back(), 1.0); // uses_gpu_threads flag
}

TEST(SearchTest, FindsValidScheduleAndImproves)
{
    workloads::OpSpec op = workloads::gmm(256, 256, 256);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions options;
    options.population = 8;
    options.generations = 4;
    options.seed = 5;
    meta::TuneResult result =
        meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR);
    ASSERT_TRUE(result.best_func);
    EXPECT_TRUE(std::isfinite(result.best_latency_us));
    EXPECT_GT(result.trials_measured, 0);
    // The running best never regresses across generations.
    for (size_t g = 1; g < result.history.size(); ++g) {
        EXPECT_LE(result.history[g], result.history[g - 1]);
    }
}

TEST(SearchTest, DeterministicForFixedSeed)
{
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions options;
    options.population = 6;
    options.generations = 2;
    options.seed = 77;
    meta::TuneResult a =
        meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR);
    meta::TuneResult b =
        meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR);
    EXPECT_DOUBLE_EQ(a.best_latency_us, b.best_latency_us);
    EXPECT_EQ(a.trials_measured, b.trials_measured);
}

TEST(SearchTest, TuningCostAccumulates)
{
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions options;
    options.population = 4;
    options.generations = 1;
    options.measure_overhead_us = 1000;
    meta::TuneResult result =
        meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR);
    EXPECT_GE(result.tuning_cost_us,
              result.trials_measured * options.measure_overhead_us);
}

TEST(SearchTest, BareSearchAppliesEvalStepLimit)
{
    // evolutionarySearch installs TuneOptions::eval_step_limit itself
    // (journalIdentity records it), so a bare search's numeric checks
    // and runner requests run under the configured fuel, not the
    // ambient default.
    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    hwsim::GpuDevice gpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier("C", /*gpu=*/true);
    meta::TuneOptions options;
    options.population = 4;
    options.generations = 1;
    options.children_per_generation = 4;
    options.measured_per_generation = 2;
    options.parallelism = 1;
    options.eval_step_limit = 123456789;
    const uint64_t ambient = runtime::Interpreter::defaultStepLimit();
    std::vector<uint64_t> seen;
    options.progress = [&seen](const meta::TuneProgress&) {
        seen.push_back(runtime::Interpreter::defaultStepLimit());
    };
    meta::evolutionarySearch(op.func, sketch, gpu, options);
    ASSERT_FALSE(seen.empty());
    for (uint64_t limit : seen) EXPECT_EQ(limit, options.eval_step_limit);
    EXPECT_EQ(runtime::Interpreter::defaultStepLimit(), ambient);
}

TEST(SearchTest, AmosStyleIsNeverFasterThanFullSystem)
{
    workloads::OpSpec op = workloads::gmm(512, 512, 512);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions options;
    options.population = 8;
    options.generations = 3;
    meta::TuneResult amos =
        meta::autoTune(task, gpu, options, meta::TunerStyle::kAmosLike);
    meta::TuneResult full =
        meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR);
    EXPECT_LE(full.best_latency_us, amos.best_latency_us * 1.05);
}

/** Parameterized end-to-end correctness: autoTune every small-suite op
 *  on the GPU persona and compare against the reference numerically. */
class AutoTuneNumericTest : public ::testing::TestWithParam<int>
{};

TEST_P(AutoTuneNumericTest, TunedProgramMatchesReference)
{
    workloads::OpSpec op =
        workloads::gpuSuiteSmall()[static_cast<size_t>(GetParam())];
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, op.einsum_block, "gpu",
                        {"wmma_16x16x16_f16"}};
    meta::TuneOptions options;
    options.population = 4;
    options.generations = 1;
    options.children_per_generation = 6;
    options.measured_per_generation = 3;
    options.seed = 1000 + GetParam();
    meta::TuneResult result =
        meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR);
    ASSERT_TRUE(result.best_func);
    testutil::expectSameResults(result.best_func, op.func, 1, 1e-6,
                                2000 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSmallOps, AutoTuneNumericTest,
                         ::testing::Range(0, 8));

/** Same sweep for the CPU persona with the sdot intrinsics. */
class AutoTuneCpuNumericTest : public ::testing::TestWithParam<int>
{};

TEST_P(AutoTuneCpuNumericTest, TunedProgramMatchesReference)
{
    int index = GetParam();
    workloads::OpSpec op =
        index == 0
            ? workloads::gmm(48, 48, 32, DataType::i8(), DataType::i32())
            : workloads::conv2d(1, 6, 6, 8, 8, 3, 1, 1, 1,
                                DataType::i8(), DataType::i32());
    hwsim::CpuDevice cpu;
    meta::TuneTask task{op.func, op.einsum_block, "cpu",
                        {"arm_sdot_1x1x4", "arm_gemm_8x12x4"}};
    meta::TuneOptions options;
    options.population = 4;
    options.generations = 1;
    options.seed = 3000 + index;
    meta::TuneResult result =
        meta::autoTune(task, cpu, options, meta::TunerStyle::kTensorIR);
    ASSERT_TRUE(result.best_func);
    testutil::expectSameResults(result.best_func, op.func, 1, 0.0,
                                4000 + index);
}

INSTANTIATE_TEST_SUITE_P(ArmOps, AutoTuneCpuNumericTest,
                         ::testing::Range(0, 2));

} // namespace
} // namespace tir
