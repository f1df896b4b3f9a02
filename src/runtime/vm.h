/**
 * @file
 * Bytecode virtual machine for lowered TensorIR numeric execution.
 *
 * The tree-walking `runtime::Interpreter` stays as the reference oracle;
 * this VM is the production path for everything numeric (test
 * validation helpers, the tuner's `numeric_check_topk` spot checks,
 * benchmarks). It preserves the interpreter's observable contract —
 * step/fuel limit -> EvalError, the `interp.run` failpoint site, a trace
 * span per run, the TENSORIR_DEBUG_CHECKS static-analysis gate — and is
 * differential-tested against the oracle for bit-identical outputs
 * (tests/test_properties.cpp).
 *
 * Entry points:
 *  - `execute(func, args)`: compile + run behind the engine-selection
 *    contract of docs/EXECUTION.md — the VM by default, the
 *    tree-walker under TENSORIR_ENGINE=treewalk /
 *    setEngine(Engine::kTreeWalk), and the native JIT tier
 *    (runtime/jit.h) under TENSORIR_ENGINE=jit / setEngine(Engine::kJit),
 *    with graceful VM fallback when native compilation is not
 *    possible.
 *  - `compile(func)` + `VirtualMachine::run` for callers that reuse the
 *    compiled program across many runs (benchmarks, repeated numeric
 *    checks against fresh inputs).
 */
#ifndef TENSORIR_RUNTIME_VM_H
#define TENSORIR_RUNTIME_VM_H

#include <optional>

#include "runtime/bytecode.h"

namespace tir {
namespace runtime {

/** Compile a lowered PrimFunc to bytecode. Resolves opaque intrinsics
 *  against the current registry snapshot; raises FatalError on
 *  constructs the VM cannot execute (same class of error the
 *  tree-walker raises at runtime). */
CompiledFunc compile(const PrimFunc& func);

/** Executes CompiledFuncs. Stateless between runs apart from the
 *  configured step limit; one instance may run many programs. */
class VirtualMachine
{
  public:
    /** Fuel budget per run() (maximum statement executions before
     *  EvalError), overriding the process default. 0 = unlimited. Uses
     *  the same statement-boundary accounting as the interpreter, so a
     *  program exhausts the same budget at the same statement. */
    void setStepLimit(uint64_t limit) { step_limit_ = limit; }

    /** Execute with `args` bound to the function parameters in order.
     *  Validates arguments per dimension (see validateArguments);
     *  intermediate buffers are freshly allocated per run. */
    void run(const CompiledFunc& compiled,
             const std::vector<NDArray*>& args);

  private:
    std::optional<uint64_t> step_limit_;
};

/** Execute `func` numerically on the engine `selectedEngine()`
 *  (runtime/jit.h) resolves: bytecode VM by default, the tree-walking
 *  interpreter or native JIT code when TENSORIR_ENGINE / setEngine
 *  select them — degrading to the VM when no native module can be
 *  built. All three engines share argument
 *  validation, fuel semantics, the `interp.run` failpoint site, and
 *  the debug-checks gate (the full contract is docs/EXECUTION.md). */
void execute(const PrimFunc& func, const std::vector<NDArray*>& args);

} // namespace runtime
} // namespace tir

#endif // TENSORIR_RUNTIME_VM_H
