/**
 * @file
 * Workload-generator tests: every operator in the §5.1 suite must
 * compute the same values as a straightforward reference implementation
 * written directly against the input arrays.
 */
#include <gtest/gtest.h>

#include "codegen/c_codegen.h"
#include "lower/lower.h"
#include "runtime/interpreter.h"
#include "meta/search.h"
#include "tir/schedule.h"

#include "test_util.h"
#include "ir/transform.h"
#include "workloads/workloads.h"

namespace tir {
namespace {

using runtime::Interpreter;
using runtime::NDArray;

/** Run a workload's func on random inputs; returns all buffers. */
std::vector<NDArray>
runOp(const workloads::OpSpec& op, uint64_t seed = 3)
{
    Rng rng(seed);
    std::vector<NDArray> args;
    for (const Buffer& param : op.func->params) {
        std::vector<int64_t> shape;
        for (size_t d = 0; d < param->ndim(); ++d) {
            shape.push_back(param->shapeInt(d));
        }
        NDArray array(param->dtype, shape);
        array.fillRandom(rng, -2, 2);
        args.push_back(std::move(array));
    }
    std::vector<NDArray*> ptrs;
    for (auto& a : args) ptrs.push_back(&a);
    Interpreter interp;
    interp.run(op.func, ptrs);
    return args;
}

TEST(WorkloadTest, GmmMatchesReference)
{
    workloads::OpSpec op = workloads::gmm(5, 7, 9, DataType::f32(),
                                          DataType::f32());
    auto args = runOp(op);
    const NDArray& a = args[0];
    const NDArray& b = args[1];
    const NDArray& c = args[2];
    for (int64_t i = 0; i < 5; ++i) {
        for (int64_t j = 0; j < 7; ++j) {
            double expect = 0;
            for (int64_t k = 0; k < 9; ++k) {
                expect += a.at(i * 9 + k) * b.at(k * 7 + j);
            }
            ASSERT_NEAR(c.at(i * 7 + j), expect, 1e-9);
        }
    }
    EXPECT_EQ(op.macs, 5 * 7 * 9);
}

TEST(WorkloadTest, BatchMatmulMatchesReference)
{
    workloads::OpSpec op = workloads::batchMatmul(
        3, 4, 5, 6, DataType::f32(), DataType::f32());
    auto args = runOp(op);
    const NDArray& a = args[0];
    const NDArray& b = args[1];
    const NDArray& c = args[2];
    for (int64_t bi = 0; bi < 3; ++bi) {
        for (int64_t i = 0; i < 4; ++i) {
            for (int64_t j = 0; j < 5; ++j) {
                double expect = 0;
                for (int64_t k = 0; k < 6; ++k) {
                    expect += a.at((bi * 4 + i) * 6 + k) *
                              b.at((bi * 6 + k) * 5 + j);
                }
                ASSERT_NEAR(c.at((bi * 4 + i) * 5 + j), expect, 1e-9);
            }
        }
    }
}

TEST(WorkloadTest, Conv2dMatchesReference)
{
    const int64_t n = 2, h = 6, w = 6, ci = 3, co = 4, k = 3;
    const int64_t stride = 1, pad = 1;
    workloads::OpSpec op = workloads::conv2d(
        n, h, w, ci, co, k, stride, pad, 1, DataType::f32(),
        DataType::f32());
    auto args = runOp(op);
    const NDArray& a = args[0];
    const NDArray& weight = args[1];
    const NDArray& out = args.back();
    auto a_at = [&](int64_t nn, int64_t hh, int64_t ww, int64_t cc) {
        if (hh < 0 || hh >= h || ww < 0 || ww >= w) return 0.0;
        return a.at(((nn * h + hh) * w + ww) * ci + cc);
    };
    const int64_t ho = h, wo = w; // stride 1, pad 1, k 3
    for (int64_t nn = 0; nn < n; ++nn) {
        for (int64_t oh = 0; oh < ho; ++oh) {
            for (int64_t ow = 0; ow < wo; ++ow) {
                for (int64_t oc = 0; oc < co; ++oc) {
                    double expect = 0;
                    for (int64_t rh = 0; rh < k; ++rh) {
                        for (int64_t rw = 0; rw < k; ++rw) {
                            for (int64_t rc = 0; rc < ci; ++rc) {
                                expect +=
                                    a_at(nn, oh + rh - pad,
                                         ow + rw - pad, rc) *
                                    weight.at(((rh * k + rw) * ci + rc) *
                                                  co +
                                              oc);
                            }
                        }
                    }
                    ASSERT_NEAR(out.at(((nn * ho + oh) * wo + ow) * co +
                                       oc),
                                expect, 1e-9)
                        << "at " << nn << "," << oh << "," << ow << ","
                        << oc;
                }
            }
        }
    }
}

TEST(WorkloadTest, DilatedConvUsesDilation)
{
    // DIL with dilation 2 differs from dilation 1 on the same data.
    workloads::OpSpec dil = workloads::conv2d(
        1, 8, 8, 2, 2, 3, 1, 2, 2, DataType::f32(), DataType::f32());
    workloads::OpSpec plain = workloads::conv2d(
        1, 8, 8, 2, 2, 3, 1, 2, 1, DataType::f32(), DataType::f32());
    EXPECT_EQ(dil.name, std::string("DIL"));
    EXPECT_EQ(plain.name, std::string("C2D"));
    auto dil_out = runOp(dil).back();
    auto plain_out = runOp(plain).back();
    // Outputs have different shapes (effective kernel size differs), so
    // just check both computed something non-trivial.
    double dil_norm = 0;
    for (int64_t i = 0; i < dil_out.numel(); ++i) {
        dil_norm += std::fabs(dil_out.at(i));
    }
    EXPECT_GT(dil_norm, 0);
    EXPECT_NE(dil_out.numel(), 0);
    EXPECT_NE(plain_out.numel(), 0);
}

TEST(WorkloadTest, DepthwiseMatchesReference)
{
    const int64_t n = 1, h = 5, w = 5, c = 3, k = 3;
    workloads::OpSpec op = workloads::depthwiseConv2d(
        n, h, w, c, k, 1, 1, DataType::f32(), DataType::f32());
    auto args = runOp(op);
    const NDArray& a = args[0];
    const NDArray& weight = args[1];
    const NDArray& out = args.back();
    auto a_at = [&](int64_t hh, int64_t ww, int64_t cc) {
        if (hh < 0 || hh >= h || ww < 0 || ww >= w) return 0.0;
        return a.at((hh * w + ww) * c + cc);
    };
    for (int64_t oh = 0; oh < h; ++oh) {
        for (int64_t ow = 0; ow < w; ++ow) {
            for (int64_t cc = 0; cc < c; ++cc) {
                double expect = 0;
                for (int64_t rh = 0; rh < k; ++rh) {
                    for (int64_t rw = 0; rw < k; ++rw) {
                        expect += a_at(oh + rh - 1, ow + rw - 1, cc) *
                                  weight.at((rh * k + rw) * c + cc);
                    }
                }
                ASSERT_NEAR(out.at((oh * w + ow) * c + cc), expect,
                            1e-9);
            }
        }
    }
}

TEST(WorkloadTest, GroupConvRespectsGroups)
{
    // With 2 groups, output channels in group 0 must not depend on
    // input channels in group 1.
    const int64_t groups = 2, cig = 2, cog = 2;
    workloads::OpSpec op = workloads::groupConv2d(
        1, 4, 4, groups * cig, groups * cog, groups, 3, 1, 1,
        DataType::f32(), DataType::f32());
    Rng rng(5);
    std::vector<NDArray> args;
    for (const Buffer& param : op.func->params) {
        std::vector<int64_t> shape;
        for (size_t d = 0; d < param->ndim(); ++d) {
            shape.push_back(param->shapeInt(d));
        }
        NDArray array(param->dtype, shape);
        array.fillRandom(rng);
        args.push_back(std::move(array));
    }
    // Zero group 1 of the input; run; outputs of group 0 unchanged vs a
    // run with random group 1.
    std::vector<NDArray> poked = args;
    for (int64_t i = 0; i < poked[0].numel(); ++i) {
        // layout [n,h,w,g,cig]: group = (i / cig) % groups
        if ((i / cig) % groups == 1) poked[0].at(i) = 99.0;
    }
    std::vector<NDArray*> p1, p2;
    for (auto& a : args) p1.push_back(&a);
    for (auto& a : poked) p2.push_back(&a);
    runtime::Interpreter interp;
    interp.run(op.func, p1);
    interp.run(op.func, p2);
    const NDArray& out1 = args.back();
    const NDArray& out2 = poked.back();
    for (int64_t i = 0; i < out1.numel(); ++i) {
        if ((i / cog) % groups == 0) {
            ASSERT_EQ(out1.at(i), out2.at(i))
                << "group 0 output depended on group 1 input";
        }
    }
}

TEST(WorkloadTest, TransposedConvShapeAndEnergy)
{
    const int64_t h = 4, w = 4, stride = 2, k = 4;
    workloads::OpSpec op = workloads::transposedConv2d(
        1, h, w, 2, 2, k, stride, DataType::f32(), DataType::f32());
    // Output spatial extent: (h-1)*stride + k = 10.
    const Buffer& out_buf = op.func->params.back();
    EXPECT_EQ(out_buf->shapeInt(1), (h - 1) * stride + k);
    auto out = runOp(op).back();
    double norm = 0;
    for (int64_t i = 0; i < out.numel(); ++i) norm += std::fabs(out.at(i));
    EXPECT_GT(norm, 0);
}

TEST(WorkloadTest, Conv1dMatchesReference)
{
    const int64_t n = 1, l = 8, ci = 2, co = 3, k = 3;
    const int64_t stride = 2, pad = 1;
    workloads::OpSpec op = workloads::conv1d(
        n, l, ci, co, k, stride, pad, DataType::f32(), DataType::f32());
    auto args = runOp(op);
    const NDArray& a = args[0];
    const NDArray& weight = args[1];
    const NDArray& out = args.back();
    const int64_t lo = (l + 2 * pad - k) / stride + 1;
    auto a_at = [&](int64_t pos, int64_t cc) {
        if (pos < 0 || pos >= l) return 0.0;
        return a.at(pos * ci + cc);
    };
    for (int64_t ol = 0; ol < lo; ++ol) {
        for (int64_t oc = 0; oc < co; ++oc) {
            double expect = 0;
            for (int64_t rk = 0; rk < k; ++rk) {
                for (int64_t rc = 0; rc < ci; ++rc) {
                    expect += a_at(ol * stride + rk - pad, rc) *
                              weight.at((rk * ci + rc) * co + oc);
                }
            }
            ASSERT_NEAR(out.at(ol * co + oc), expect, 1e-9);
        }
    }
}

TEST(WorkloadTest, Conv3dComputesSomething)
{
    workloads::OpSpec op = workloads::conv3d(
        1, 4, 4, 4, 2, 2, 3, 1, 1, DataType::f32(), DataType::f32());
    auto out = runOp(op).back();
    double norm = 0;
    for (int64_t i = 0; i < out.numel(); ++i) norm += std::fabs(out.at(i));
    EXPECT_GT(norm, 0);
    EXPECT_GT(op.macs, 0);
}

TEST(WorkloadSuiteTest, GpuSuiteHasAllEightOps)
{
    std::vector<workloads::OpSpec> suite = workloads::gpuSuite();
    ASSERT_EQ(suite.size(), 8u);
    std::vector<std::string> expected = {"C1D", "C2D", "C3D", "DEP",
                                         "DIL", "GMM", "GRP", "T2D"};
    for (size_t i = 0; i < suite.size(); ++i) {
        EXPECT_EQ(suite[i].name, expected[i]);
        EXPECT_GT(suite[i].macs, 0);
        EXPECT_TRUE(hasBlock(suite[i].func->body,
                             suite[i].einsum_block));
    }
}

TEST(WorkloadSuiteTest, SmallSuiteMirrorsLarge)
{
    std::vector<workloads::OpSpec> small = workloads::gpuSuiteSmall();
    std::vector<workloads::OpSpec> large = workloads::gpuSuite();
    ASSERT_EQ(small.size(), large.size());
    for (size_t i = 0; i < small.size(); ++i) {
        EXPECT_EQ(small[i].name, large[i].name);
        EXPECT_LT(small[i].macs, large[i].macs);
    }
}

TEST(WorkloadSuiteTest, ArmSuiteIsQuantized)
{
    for (const workloads::OpSpec& op : workloads::armSuite()) {
        EXPECT_EQ(op.func->params[0]->dtype, DataType::i8());
        EXPECT_EQ(op.func->params.back()->dtype, DataType::i32());
    }
}

/** Property sweep: conv2d output shape follows the standard formula. */
class ConvShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(ConvShapeTest, OutputShapeFormula)
{
    auto [k, stride, pad] = GetParam();
    const int64_t h = 12;
    workloads::OpSpec op = workloads::conv2d(
        1, h, h, 2, 2, k, stride, pad, 1, DataType::f32(),
        DataType::f32());
    const Buffer& out = op.func->params.back();
    int64_t expect = (h + 2 * pad - k) / stride + 1;
    EXPECT_EQ(out->shapeInt(1), expect);
    EXPECT_EQ(out->shapeInt(2), expect);
}

INSTANTIATE_TEST_SUITE_P(
    KernelStridePad, ConvShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 0), std::make_tuple(3, 1, 1),
                      std::make_tuple(3, 2, 1), std::make_tuple(5, 1, 2),
                      std::make_tuple(5, 2, 2),
                      std::make_tuple(7, 2, 3)));

} // namespace
} // namespace tir

namespace tir {
namespace {

TEST(SoftmaxTest, MatchesReference)
{
    const int64_t rows = 4, cols = 9;
    workloads::OpSpec op = workloads::softmax(rows, cols);
    auto args = runOp(op, 21);
    const NDArray& x = args[0];
    const NDArray& out = args.back();
    for (int64_t r = 0; r < rows; ++r) {
        double mx = -1e30;
        for (int64_t c = 0; c < cols; ++c) {
            mx = std::max(mx, x.at(r * cols + c));
        }
        double denom = 0;
        for (int64_t c = 0; c < cols; ++c) {
            denom += std::exp(x.at(r * cols + c) - mx);
        }
        double rowsum = 0;
        for (int64_t c = 0; c < cols; ++c) {
            double expect = std::exp(x.at(r * cols + c) - mx) / denom;
            ASSERT_NEAR(out.at(r * cols + c), expect, 1e-9);
            rowsum += out.at(r * cols + c);
        }
        EXPECT_NEAR(rowsum, 1.0, 1e-9);
    }
}

TEST(SoftmaxTest, SchedulableAndLowerable)
{
    workloads::OpSpec op = workloads::softmax(8, 16);
    Schedule sch(op.func);
    // Mixed pipeline: inline the exp stage into the normalizer is not
    // legal (RowSum also consumes it), but loop transforms apply freely.
    std::vector<Var> loops = sch.getLoops("Softmax");
    std::vector<Var> split = sch.split(loops[1], {-1, 4});
    sch.vectorize(split[1]);
    sch.validateAffineBindings();
    testutil::expectSameResults(sch.func(), op.func);
    PrimFunc lowered = lowerToLoops(sch.func());
    EXPECT_TRUE(isBlockFree(lowered->body));
    testutil::expectSameResults(lowered, op.func);
}

TEST(SoftmaxTest, CodegenCompilesConceptually)
{
    workloads::OpSpec op = workloads::softmax(4, 8);
    std::string code = codegen::emitJitC(op.func).code;
    // The kernel body, past the preamble that always defines tir_fmax.
    std::string body = code.substr(code.find("tir_entry("));
    EXPECT_NE(body.find("exp("), std::string::npos);
    EXPECT_NE(body.find(" / "), std::string::npos);
    EXPECT_NE(body.find("tir_fmax("), std::string::npos);
}

} // namespace
} // namespace tir

namespace tir {
namespace {

TEST(AttentionTest, MatchesReference)
{
    const int64_t seq = 6, dim = 4;
    workloads::OpSpec op = workloads::attention(seq, dim);
    auto args = runOp(op, 33);
    const NDArray& q = args[0];
    const NDArray& k = args[1];
    const NDArray& v = args[2];
    const NDArray& out = args.back();
    double scale = 1.0 / std::sqrt(static_cast<double>(dim));
    for (int64_t i = 0; i < seq; ++i) {
        std::vector<double> scores(seq, 0);
        double mx = -1e30;
        for (int64_t j = 0; j < seq; ++j) {
            for (int64_t d = 0; d < dim; ++d) {
                scores[j] += q.at(i * dim + d) * k.at(j * dim + d);
            }
            scores[j] *= scale;
            mx = std::max(mx, scores[j]);
        }
        double denom = 0;
        for (int64_t j = 0; j < seq; ++j) {
            denom += std::exp(scores[j] - mx);
        }
        for (int64_t d = 0; d < dim; ++d) {
            double expect = 0;
            for (int64_t j = 0; j < seq; ++j) {
                expect += std::exp(scores[j] - mx) / denom *
                          v.at(j * dim + d);
            }
            ASSERT_NEAR(out.at(i * dim + d), expect, 1e-7)
                << i << "," << d;
        }
    }
}

TEST(AttentionTest, ScoresBlockIsTensorizable)
{
    // The QK^T einsum inside the attention pipeline matches the
    // synthetic accelerator via candidate generation.
    workloads::OpSpec op = workloads::attention(16, 16);
    auto candidates = meta::generateTensorizeCandidates(
        op.func, "Scores", {"accel_dot_4x4x4"});
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0].padding_waste, 1.0);
}

} // namespace
} // namespace tir
