/**
 * @file
 * Lowering and C-backend tests: the block-eraser must preserve
 * semantics at every schedule stage (checked via the interpreter), and
 * the generated C must compile with the system compiler and print the
 * same checksum the interpreter computes.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "codegen/c_codegen.h"
#include "ir/transform.h"
#include "intrin/tensor_intrin.h"
#include "lower/lower.h"
#include "runtime/interpreter.h"
#include "tir/schedule.h"

#include "test_util.h"

namespace tir {
namespace {

using testutil::expectSameResults;
using testutil::matmul;

TEST(LowerTest, RemovesAllBlocks)
{
    PrimFunc func = matmul(8, 8, 8);
    EXPECT_FALSE(isBlockFree(func->body));
    PrimFunc lowered = lowerToLoops(func);
    EXPECT_TRUE(isBlockFree(lowered->body));
}

TEST(LowerTest, PreservesSemanticsUnscheduled)
{
    PrimFunc func = matmul(6, 7, 8);
    expectSameResults(lowerToLoops(func), func);
}

TEST(LowerTest, PreservesSemanticsAfterScheduling)
{
    PrimFunc original = matmul(16, 16, 16);
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    std::vector<Var> i_split = sch.split(loops[0], {-1, 4});
    sch.reorder({i_split[1], loops[2]});
    sch.decomposeReduction("C", loops[2]);
    PrimFunc lowered = lowerToLoops(sch.func());
    EXPECT_TRUE(isBlockFree(lowered->body));
    expectSameResults(lowered, original);
}

TEST(LowerTest, PreservesSemanticsAfterTensorize)
{
    registerBuiltinIntrinsics();
    PrimFunc original = matmul(16, 16, 16);
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
    PrimFunc lowered = lowerToLoops(sch.func());
    EXPECT_TRUE(isBlockFree(lowered->body));
    expectSameResults(lowered, original);
}

TEST(LowerTest, ImperfectSplitPredicateBecomesIf)
{
    PrimFunc original = matmul(10, 8, 8);
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    sch.split(loops[0], {3, 4}); // 12 > 10
    PrimFunc lowered = lowerToLoops(sch.func());
    EXPECT_TRUE(isBlockFree(lowered->body));
    expectSameResults(lowered, original);
    bool has_if = false;
    preOrderVisit(lowered->body, [&](const StmtNode* node) {
        has_if |= (node->kind == StmtKind::kIfThenElse);
    });
    EXPECT_TRUE(has_if);
}

/** Occurrences of `needle` in `text`. */
size_t
countOf(const std::string& text, const std::string& needle)
{
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size())) {
        ++n;
    }
    return n;
}

TEST(CodegenTest, EmitsCompilableLookingC)
{
    PrimFunc func = matmul(8, 8, 8);
    codegen::JitSource src = codegen::emitJitC(func);
    EXPECT_NE(src.code.find("int64_t\ntir_entry(double** tir_bufs, "
                            "int64_t tir_limit)"),
              std::string::npos);
    EXPECT_EQ(src.entry_symbol, "tir_entry");
    EXPECT_EQ(src.num_params, func->params.size());
    EXPECT_NE(src.code.find("for (int64_t"), std::string::npos);
    EXPECT_NE(src.code.find("tir_floordiv"), std::string::npos);
}

TEST(CodegenTest, EmitsMmaHelperForIntrinsics)
{
    registerBuiltinIntrinsics();
    PrimFunc original = matmul(16, 16, 16);
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    std::vector<Var> i_split = sch.split(loops[0], {-1, 4});
    std::vector<Var> j_split = sch.split(loops[1], {-1, 4});
    std::vector<Var> k_split = sch.split(loops[2], {-1, 4});
    sch.reorder({i_split[0], j_split[0], k_split[0], i_split[1],
                 j_split[1], k_split[1]});
    sch.decomposeReduction("C", k_split[0]);
    sch.tensorize(sch.blockize(i_split[1]), "accel_dot_4x4x4");
    std::string code = codegen::emitJitC(sch.func()).code;
    // One helper definition per intrinsic tile, however many call
    // sites the tiled loop nest has.
    EXPECT_EQ(countOf(code, "static void tir_mma_4x4x4("), 1u);
    EXPECT_GE(countOf(code, "tir_mma_4x4x4("), 2u);
}

TEST(CodegenTest, RejectsGpuFunctions)
{
    PrimFunc func = matmul(8, 8, 8);
    Schedule sch(func);
    std::vector<Var> loops = sch.getLoops("C");
    sch.bind(loops[0], "threadIdx.x");
    EXPECT_THROW(codegen::emitJitC(sch.func()), FatalError);
}

TEST(CodegenTest, CompiledProgramMatchesInterpreter)
{
    // Full pipeline proof: schedule, lower, emit C, compile with the
    // system compiler, run, and compare checksums with the interpreter.
    registerBuiltinIntrinsics();
    PrimFunc original = matmul(8, 8, 8);
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    std::vector<Var> i_split = sch.split(loops[0], {-1, 4});
    std::vector<Var> j_split = sch.split(loops[1], {-1, 4});
    std::vector<Var> k_split = sch.split(loops[2], {-1, 4});
    sch.reorder({i_split[0], j_split[0], k_split[0], i_split[1],
                 j_split[1], k_split[1]});
    sch.decomposeReduction("C", k_split[0]);
    sch.tensorize(sch.blockize(i_split[1]), "accel_dot_4x4x4");

    std::string code = codegen::emitStandaloneC(sch.func(), 1);
    testutil::ScopedTempDir dir;
    std::string src = dir.file("codegen_test.c");
    std::string bin = dir.file("codegen_test.bin");
    {
        std::ofstream out(src);
        out << code;
    }
    std::string compile = "cc -O1 -o " + bin + " " + src + " -lm";
    ASSERT_EQ(std::system(compile.c_str()), 0) << code;
    FILE* pipe = popen(bin.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    double compiled_sum = 0;
    ASSERT_EQ(fscanf(pipe, "%lf", &compiled_sum), 1);
    pclose(pipe);

    // Reproduce the standalone program's deterministic inputs in the
    // interpreter.
    std::vector<runtime::NDArray> args;
    for (const Buffer& p : original->params) {
        std::vector<int64_t> shape;
        for (size_t d = 0; d < p->ndim(); ++d) {
            shape.push_back(p->shapeInt(d));
        }
        runtime::NDArray array(p->dtype, shape);
        args.push_back(std::move(array));
    }
    for (size_t i = 0; i + 1 < args.size(); ++i) {
        for (int64_t e = 0; e < args[i].numel(); ++e) {
            args[i].at(e) = static_cast<double>((e % 7) - 3);
        }
    }
    std::vector<runtime::NDArray*> ptrs;
    for (auto& a : args) ptrs.push_back(&a);
    runtime::Interpreter interp;
    interp.run(original, ptrs);
    double expect = 0;
    for (int64_t e = 0; e < args.back().numel(); ++e) {
        expect += args.back().at(e);
    }
    EXPECT_NEAR(compiled_sum, expect, 1e-3);
}

} // namespace
} // namespace tir
