/**
 * @file
 * Auto-scheduler tests (§4): tensorization candidate generation with
 * characteristic vectors, ReIndex + layout application, sketch
 * generation, the evolutionary search, and the end-to-end autoTune on
 * every workload of the small suite (parameterized, numerically
 * verified against the unscheduled reference).
 */
#include <gtest/gtest.h>

#include "ir/structural_equal.h"
#include "ir/structural_hash.h"
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

// --- Shared sketch prologue ---------------------------------------------

struct SketchCase
{
    const char* name;
    workloads::OpSpec op;
    bool gpu;
};

/** GEMM, C2D and batched GEMM for the gpu (wmma) and cpu (sdot) tensor
 *  sketches. */
std::vector<SketchCase>
tensorSketchCases()
{
    DataType i8 = DataType::i8();
    DataType i32 = DataType::i32();
    return {
        {"gmm_gpu", workloads::gmm(64, 64, 64), true},
        {"c2d_gpu", workloads::conv2d(1, 8, 8, 16, 32, 3, 1, 1), true},
        {"bmm_gpu", workloads::batchMatmul(2, 32, 32, 32), true},
        {"gmm_cpu", workloads::gmm(64, 64, 64, i8, i32), false},
        {"c2d_cpu",
         workloads::conv2d(1, 8, 8, 16, 32, 3, 1, 1, 1, i8, i32), false},
        {"bmm_cpu", workloads::batchMatmul(2, 32, 32, 32, i8, i32),
         false},
    };
}

meta::TensorizeCandidate
bestCandidate(const SketchCase& c)
{
    std::vector<meta::TensorizeCandidate> cands =
        meta::generateTensorizeCandidates(
            c.op.func, c.op.einsum_block,
            {c.gpu ? "wmma_16x16x16_f16" : "arm_sdot_1x1x4"});
    if (cands.empty()) return {};
    return cands[meta::selectTensorizeCandidate(cands)];
}

/** The sketch the factory's applier stands for, on a fresh Schedule:
 *  the prologue and the sampled body, nothing shared. */
void
freshTensorSketch(Schedule& sch, const meta::TensorizeCandidate& cand,
                  bool gpu)
{
    meta::ReindexBlocks rb = meta::applyReindexAndLayout(sch, cand);
    if (gpu) {
        meta::applyGpuTensorSketch(sch, cand, rb, {});
    } else {
        meta::applyCpuTensorSketch(sch, cand, rb, {});
    }
}

/** Run `apply` on `sch`; false when it rejects the decisions. */
template <typename F>
bool
completes(Schedule& sch, F&& apply)
{
    try {
        apply(sch);
        return true;
    } catch (const FatalError&) {
        return false;
    }
}

TEST(SketchPrologueTest, SharedPrologueMatchesAFreshSketch)
{
    for (const SketchCase& c : tensorSketchCases()) {
        SCOPED_TRACE(c.name);
        meta::TensorizeCandidate cand = bestCandidate(c);
        ASSERT_FALSE(cand.intrin.empty()) << "no tensorize candidate";
        meta::SketchApplier applier =
            meta::makeTensorSketchApplier(cand, c.gpu, {});
        int completed = 0;
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            SCOPED_TRACE(seed);
            // A seeded trace, sampled through the applier (whose
            // prologue is cached after the first seed).
            Schedule sampled(c.op.func, seed);
            if (!completes(sampled, applier)) continue;
            ++completed;
            // The trace replayed through the applier and through the
            // unshared sketch on a fresh Schedule.
            Schedule replayed(c.op.func, seed + 1000);
            replayed.setDecisionOverrides(sampled.decisions());
            ASSERT_TRUE(completes(replayed, applier));
            Schedule fresh(c.op.func, seed + 2000);
            fresh.setDecisionOverrides(sampled.decisions());
            ASSERT_TRUE(completes(fresh, [&](Schedule& sch) {
                freshTensorSketch(sch, cand, c.gpu);
            }));
            EXPECT_TRUE(structuralEqual(replayed.func(), fresh.func()));
            EXPECT_TRUE(structuralEqual(sampled.func(), fresh.func()));
            EXPECT_EQ(replayed.decisions(), fresh.decisions());
        }
        EXPECT_GT(completed, 0) << "no seed produced a valid sketch";
    }
}

TEST(SketchPrologueTest, CompletedTraceReplaysWithoutDrawingFromTheRng)
{
    // The invariant the search's trace-keyed reuse rests on: given a
    // completed trace as its overrides, a Schedule seeded differently
    // makes the same decisions and the same program, and never draws
    // from its RNG.
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    std::vector<meta::TensorizeCandidate> cands =
        meta::generateTensorizeCandidates(op.func, "C",
                                          {"wmma_16x16x16_f16"});
    ASSERT_FALSE(cands.empty());
    std::vector<meta::SketchApplier> appliers = {
        meta::makeTensorSketchApplier(cands[0], /*gpu=*/true, {}),
        meta::makeLoopSketchApplier("C", /*gpu=*/true),
    };
    for (size_t a = 0; a < appliers.size(); ++a) {
        SCOPED_TRACE(a);
        int completed = 0;
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            Schedule first(op.func, seed);
            if (!completes(first, appliers[a])) continue;
            ++completed;
            const uint64_t other_seed = seed * 7919 + 13;
            Schedule again(op.func, other_seed);
            again.setDecisionOverrides(first.decisions());
            ASSERT_TRUE(completes(again, appliers[a]));
            EXPECT_EQ(again.decisions(), first.decisions());
            EXPECT_EQ(structuralHash(again.func()),
                      structuralHash(first.func()));
            Rng untouched(other_seed);
            EXPECT_EQ(again.rng().next(), untouched.next());
        }
        EXPECT_GT(completed, 0);
    }
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
