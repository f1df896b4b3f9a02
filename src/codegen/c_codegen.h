/**
 * @file
 * C source backend for lowered (block-free) CPU functions.
 *
 * One emitter (`emitJitC`) writes the translation unit behind the
 * native execution tier (runtime/jit.h). Every buffer is a `double*`
 * over the runtime's NDArray storage and all arithmetic happens in the
 * interpreter's two evaluation domains (int64 indices, double values),
 * so a compiled kernel reproduces the tree-walker/VM results on the
 * same inputs (see docs/EXECUTION.md for the exact parity contract).
 * The emitted entry point also carries the engines' fuel accounting.
 * `emitStandaloneC` wraps the same translation unit in a `main()` for
 * the compile-and-run example and tests.
 */
#ifndef TENSORIR_CODEGEN_C_CODEGEN_H
#define TENSORIR_CODEGEN_C_CODEGEN_H

#include <string>
#include <vector>

#include "ir/stmt.h"

namespace tir {
namespace codegen {

/**
 * Emit a standalone C program: emitJitC's translation unit plus a
 * main() that zero-fills one `double` array per buffer slot, fills
 * every input (the leading parameters before the last `num_outputs`)
 * with `(i % 7) - 3`, calls the entry with no step limit, and prints
 * one `%.6e` checksum per output. Used by the compile-and-run example
 * and the codegen tests.
 */
std::string emitStandaloneC(const PrimFunc& func, int num_outputs);

/**
 * A JIT translation unit plus the metadata the runtime needs to call
 * into it (see runtime/jit.h for the consumer).
 */
struct JitSource
{
    /** Complete C11 translation unit. */
    std::string code;
    /** Exported entry symbol to dlsym after compilation. Signature:
     *  `int64_t entry(double** bufs, int64_t step_limit)` — `bufs[i]`
     *  is the storage of `buffers[i]`; returns 0 on completion and 1
     *  when `step_limit` (> 0) statements were exceeded, leaving
     *  partial results behind exactly like the VM's fuel abort. */
    std::string entry_symbol;
    /** Buffer slot table: function parameters first (in signature
     *  order), then every intermediate buffer the lowered body
     *  references, in first-touch order. The runtime allocates the
     *  intermediates zero-filled per run, as the VM does. */
    std::vector<Buffer> buffers;
    /** Number of leading entries of `buffers` that are parameters. */
    size_t num_params = 0;
};

/**
 * Emit the native-tier translation unit for `func` (lowering it
 * first). All storage is `double` and arithmetic mirrors the
 * interpreter's evaluation domains — int64 for indices/predicates with
 * floor division semantics, double for stored values — so the compiled
 * kernel matches the tree-walker and the VM on the same inputs (bit
 * for bit in practice on one libm; docs/EXECUTION.md documents the
 * tolerance contract). Fuel is charged at every statement head, the
 * same accounting points as Interpreter::exec and the VM's kStep.
 *
 * Raises FatalError on constructs the native tier cannot execute (GPU
 * thread bindings, intrinsic calls with no TensorIntrin registration);
 * the JIT engine catches that and falls back to the VM.
 */
JitSource emitJitC(const PrimFunc& func);

} // namespace codegen
} // namespace tir

#endif // TENSORIR_CODEGEN_C_CODEGEN_H
