/**
 * @file
 * Structural hashing of TensorIR fragments, consistent with structural
 * (alpha-) equality: equal programs hash equally regardless of variable
 * and buffer names. Used as the workload key of the tuning database.
 */
#ifndef TENSORIR_IR_STRUCTURAL_HASH_H
#define TENSORIR_IR_STRUCTURAL_HASH_H

#include <cstdint>

#include "ir/stmt.h"

namespace tir {

/** Structural hash of an expression. */
uint64_t structuralHash(const Expr& expr);
/** Structural hash of a statement. */
uint64_t structuralHash(const Stmt& stmt);
/** Structural hash of a function (params + body). Computed on the
 *  first call and memoized on the immutable node, so a repeat call on
 *  the same PrimFunc is two loads. */
uint64_t structuralHash(const PrimFunc& func);

} // namespace tir

#endif // TENSORIR_IR_STRUCTURAL_HASH_H
