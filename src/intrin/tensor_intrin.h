/**
 * @file
 * Tensor intrinsics (§4.1). A TensorIntrin pairs a *description* — a loop
 * nest with a scalar block giving the computation semantics — with an
 * *implementation* — an opaque statement invoking the hardware primitive.
 * Data type, storage scope, and shape constraints are carried by the
 * parameter buffers and checked during tensorize.
 */
#ifndef TENSORIR_INTRIN_TENSOR_INTRIN_H
#define TENSORIR_INTRIN_TENSOR_INTRIN_H

#include <string>
#include <vector>

#include "ir/stmt.h"

namespace tir {

/** A registered tensor computation intrinsic. */
class TensorIntrin
{
  public:
    std::string name;
    /** Parameter buffers (inputs first, output last); their scopes encode
     *  the storage-scope constraints of the hardware primitive. */
    std::vector<Buffer> params;
    /** Semantics: loop nest + scalar block over `params`. */
    Stmt desc;
    /** Implementation: statement with opaque calls over `params`. */
    Stmt impl;

    // --- Metadata used by the auto-scheduler and hardware model ---------

    /** Compute unit keyword for the hardware model ("tensor_core",
     *  "dot4", "sdot", ...). */
    std::string compute_unit;
    /** Execution scope requirement ("thread" or "warp"). */
    std::string exec_scope = "thread";
    /** Multiply-accumulate operations performed per invocation. */
    int64_t macs = 0;
    /** Tile shape (m, n, k) for matmul-style intrinsics. */
    int64_t tile_m = 1;
    int64_t tile_n = 1;
    int64_t tile_k = 1;
    /** Input/accumulator dtypes. */
    DataType in_dtype = DataType::f16();
    DataType acc_dtype = DataType::f16();

    /** Register an intrinsic (replacing any previous definition). */
    static void registerIntrin(TensorIntrin intrin);
    /** Look up a registered intrinsic (fatal when missing). */
    static const TensorIntrin& get(const std::string& name);
    /** Whether an intrinsic with this name is registered. */
    static bool exists(const std::string& name);
    /** Names of all registered intrinsics. */
    static std::vector<std::string> list();
};

/**
 * Register the built-in intrinsics (idempotent and thread-safe: the
 * first call registers, and concurrent callers return only once it
 * finished):
 *  - "accel_dot_4x4x4": the paper's Figure 8 synthetic 4x4x4 matmul
 *    backed by a dot-product instruction (fp32).
 *  - "wmma_16x16x16_f16": Tensor-Core style 16x16x16 mma (fp16) with
 *    wmma.matrix_a/b and wmma.accumulator storage scopes, warp scope.
 *  - "arm_sdot_1x1x4": ARM `sdot`-style 4-way int8 dot with int32
 *    accumulation.
 *  - "arm_smmla_2x2x8": ARM `smmla`-style 2x2x8 int8 matrix MAC.
 * Also registers the interpreter semantics for their opaque calls.
 */
void registerBuiltinIntrinsics();

/**
 * Build a matmul TensorIntrin description programmatically: developers
 * declare new hardware primitives with one call (this is the paper's
 * "provide the description of the tensor intrinsic to the system").
 */
TensorIntrin makeMatmulIntrin(const std::string& name, int64_t m,
                              int64_t n, int64_t k, DataType in_dtype,
                              DataType acc_dtype,
                              const std::string& scope_a,
                              const std::string& scope_b,
                              const std::string& scope_c,
                              const std::string& call_op,
                              const std::string& compute_unit,
                              const std::string& exec_scope);

} // namespace tir

#endif // TENSORIR_INTRIN_TENSOR_INTRIN_H
