#include "intrin/tensor_intrin.h"

#include <map>
#include <mutex>

#include "runtime/interpreter.h"

namespace tir {

namespace {

std::map<std::string, TensorIntrin>&
intrinRegistry()
{
    static std::map<std::string, TensorIntrin> registry;
    return registry;
}

} // namespace

void
TensorIntrin::registerIntrin(TensorIntrin intrin)
{
    TIR_CHECK(!intrin.name.empty()) << "intrinsic needs a name";
    intrinRegistry()[intrin.name] = std::move(intrin);
}

const TensorIntrin&
TensorIntrin::get(const std::string& name)
{
    registerBuiltinIntrinsics();
    auto it = intrinRegistry().find(name);
    TIR_CHECK(it != intrinRegistry().end())
        << "no tensor intrinsic named " << name;
    return it->second;
}

bool
TensorIntrin::exists(const std::string& name)
{
    registerBuiltinIntrinsics();
    return intrinRegistry().count(name) > 0;
}

std::vector<std::string>
TensorIntrin::list()
{
    registerBuiltinIntrinsics();
    std::vector<std::string> names;
    for (const auto& [name, intrin] : intrinRegistry()) {
        names.push_back(name);
    }
    return names;
}

TensorIntrin
makeMatmulIntrin(const std::string& name, int64_t m, int64_t n, int64_t k,
                 DataType in_dtype, DataType acc_dtype,
                 const std::string& scope_a, const std::string& scope_b,
                 const std::string& scope_c, const std::string& call_op,
                 const std::string& compute_unit,
                 const std::string& exec_scope)
{
    Buffer a = makeBuffer(name + "_A", {m, k}, in_dtype, scope_a);
    Buffer b = makeBuffer(name + "_B", {k, n}, in_dtype, scope_b);
    Buffer c = makeBuffer(name + "_C", {m, n}, acc_dtype, scope_c);

    // Description: plain loop nest + scalar block (C += A * B).
    Var li = var("i");
    Var lj = var("j");
    Var lk = var("k");
    Var vi = var("vi");
    Var vj = var("vj");
    Var vk = var("vk");
    Expr lhs = bufferLoad(a, {Expr(vi), Expr(vk)});
    Expr rhs = bufferLoad(b, {Expr(vk), Expr(vj)});
    if (in_dtype != acc_dtype) {
        lhs = cast(acc_dtype, lhs);
        rhs = cast(acc_dtype, rhs);
    }
    Stmt update = bufferStore(
        c, bufferLoad(c, {Expr(vi), Expr(vj)}) + lhs * rhs,
        {Expr(vi), Expr(vj)});
    std::vector<Range> point_c = {Range(Expr(vi), intImm(1)),
                                  Range(Expr(vj), intImm(1))};
    BlockPtr block = makeBlock(
        name + "_desc",
        {IterVar(vi, Range::fromExtent(m), IterType::kSpatial),
         IterVar(vj, Range::fromExtent(n), IterType::kSpatial),
         IterVar(vk, Range::fromExtent(k), IterType::kReduce)},
        {BufferRegion(a, {Range(Expr(vi), intImm(1)),
                          Range(Expr(vk), intImm(1))}),
         BufferRegion(b, {Range(Expr(vk), intImm(1)),
                          Range(Expr(vj), intImm(1))})},
        {BufferRegion(c, point_c)}, update);
    Stmt desc = blockRealize({Expr(li), Expr(lj), Expr(lk)},
                             intImm(1, DataType::boolean()), block);
    desc = makeFor(lk, intImm(0), intImm(k), desc);
    desc = makeFor(lj, intImm(0), intImm(n), desc);
    desc = makeFor(li, intImm(0), intImm(m), desc);

    // Implementation: one opaque call on the parameter tiles.
    Stmt impl = evaluate(call(DataType::handle(), call_op,
                              {bufferPtr(c, {intImm(0), intImm(0)}),
                               bufferPtr(a, {intImm(0), intImm(0)}),
                               bufferPtr(b, {intImm(0), intImm(0)})}));

    TensorIntrin intrin;
    intrin.name = name;
    intrin.params = {a, b, c};
    intrin.desc = desc;
    intrin.impl = impl;
    intrin.compute_unit = compute_unit;
    intrin.exec_scope = exec_scope;
    intrin.macs = m * n * k;
    intrin.tile_m = m;
    intrin.tile_n = n;
    intrin.tile_k = k;
    intrin.in_dtype = in_dtype;
    intrin.acc_dtype = acc_dtype;
    return intrin;
}

namespace {

/** Row stride of a 2D tile living inside `ref`'s buffer. */
int64_t
rowStride(const runtime::BufferRef& ref)
{
    TIR_CHECK(ref.buffer->ndim() >= 1);
    return ref.buffer->shapeInt(ref.buffer->ndim() - 1);
}

/** Generic m*n*k tile multiply-accumulate on resolved buffer refs. */
void
tileMma(runtime::ExecContext& interp, const CallNode& call, int64_t m,
        int64_t n, int64_t k)
{
    runtime::BufferRef c = interp.resolvePtr(call.args[0]);
    runtime::BufferRef a = interp.resolvePtr(call.args[1]);
    runtime::BufferRef b = interp.resolvePtr(call.args[2]);
    int64_t sc = rowStride(c);
    int64_t sa = rowStride(a);
    int64_t sb = rowStride(b);
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            double acc = 0;
            for (int64_t kk = 0; kk < k; ++kk) {
                acc += a.array->at(a.offset + i * sa + kk) *
                       b.array->at(b.offset + kk * sb + j);
            }
            c.array->at(c.offset + i * sc + j) += acc;
        }
    }
}

void
registerBuiltinsOnce()
{
    using runtime::ExecContext;
    using runtime::Interpreter;

    // The paper's Figure 8 synthetic accelerator: 4x4x4 fp32 matmul
    // implemented with a dot-product instruction.
    TensorIntrin::registerIntrin(makeMatmulIntrin(
        "accel_dot_4x4x4", 4, 4, 4, DataType::f32(), DataType::f32(),
        "any", "any", "any", "accel.tile_mma_4x4x4", "dot4",
        "thread"));
    Interpreter::registerIntrinsic(
        "accel.tile_mma_4x4x4",
        [](ExecContext& interp, const CallNode& call) {
            tileMma(interp, call, 4, 4, 4);
        });

    // Tensor-Core style warp-level 16x16x16 fp16 mma with dedicated
    // register-file scopes.
    TensorIntrin::registerIntrin(makeMatmulIntrin(
        "wmma_16x16x16_f16", 16, 16, 16, DataType::f16(),
        DataType::f16(), "wmma.matrix_a", "wmma.matrix_b",
        "wmma.accumulator", "wmma.mma_sync_16x16x16", "tensor_core",
        "warp"));
    Interpreter::registerIntrinsic(
        "wmma.mma_sync_16x16x16",
        [](ExecContext& interp, const CallNode& call) {
            tileMma(interp, call, 16, 16, 16);
        });

    // ARM sdot: 4-way u8/i8 dot product accumulating into i32.
    TensorIntrin::registerIntrin(makeMatmulIntrin(
        "arm_sdot_1x1x4", 1, 1, 4, DataType::i8(), DataType::i32(),
        "any", "any", "any", "arm.sdot_1x1x4", "sdot", "thread"));
    Interpreter::registerIntrinsic(
        "arm.sdot_1x1x4",
        [](ExecContext& interp, const CallNode& call) {
            tileMma(interp, call, 1, 1, 4);
        });

    // ARM smmla-style 2x2x8 int8 matrix multiply-accumulate.
    TensorIntrin::registerIntrin(makeMatmulIntrin(
        "arm_smmla_2x2x8", 2, 2, 8, DataType::i8(), DataType::i32(),
        "any", "any", "any", "arm.smmla_2x2x8", "sdot", "thread"));
    Interpreter::registerIntrinsic(
        "arm.smmla_2x2x8",
        [](ExecContext& interp, const CallNode& call) {
            tileMma(interp, call, 2, 2, 8);
        });

    // ACL-style 8x12 micro-kernel built from sdot lanes (the paper's
    // a64_gemm_u8_8x12 example): amortizes loads over a register tile.
    TensorIntrin::registerIntrin(makeMatmulIntrin(
        "arm_gemm_8x12x4", 8, 12, 4, DataType::i8(), DataType::i32(),
        "any", "any", "any", "arm.gemm_8x12x4", "sdot", "thread"));
    Interpreter::registerIntrinsic(
        "arm.gemm_8x12x4",
        [](ExecContext& interp, const CallNode& call) {
            tileMma(interp, call, 8, 12, 4);
        });
}

} // namespace

void
registerBuiltinIntrinsics()
{
    // Once per process, and every caller returns only after the fill
    // finished: concurrent first lookups (parallel searches, the
    // schedule server's first background tunes) must never read a
    // half-filled registry.
    static std::once_flag once;
    std::call_once(once, registerBuiltinsOnce);
}

} // namespace tir
