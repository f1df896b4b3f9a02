/**
 * @file
 * Functional interpreter for TensorIR programs. Executes any stage of the
 * schedule pipeline — including thread-binding loops and opaque tensor
 * intrinsic calls — so tests can check numerically that every schedule
 * transformation preserves semantics, which is the guarantee the paper's
 * validation machinery (§3.3) provides.
 *
 * The tree-walking `Interpreter` is the *reference oracle*: simple enough
 * to audit, and the one engine behind every numeric result (test
 * validation helpers, the tuner's `numeric_check_topk` spot checks).
 * The native JIT tier (runtime/jit.h), which times real kernels,
 * preserves this interpreter's observable contract (fuel limit ->
 * EvalError, `interp.run` failpoint site, debug analysis gate) and is
 * differential-tested against it; docs/EXECUTION.md has the contract.
 */
#ifndef TENSORIR_RUNTIME_INTERPRETER_H
#define TENSORIR_RUNTIME_INTERPRETER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "ir/stmt.h"
#include "runtime/ndarray.h"

namespace tir {
namespace runtime {

/**
 * Structured evaluation failure: the step budget ran out (a pathological
 * program that would otherwise spin forever) or an injected interpreter
 * fault fired. A std::runtime_error — not a FatalError — so the tuning
 * pipeline's per-candidate containment rejects the candidate instead of
 * aborting the session.
 */
class EvalError : public std::runtime_error
{
  public:
    explicit EvalError(const std::string& msg) : std::runtime_error(msg)
    {
    }
};

/** Resolved buffer address: backing array + linear element offset. */
struct BufferRef
{
    NDArray* array = nullptr;
    int64_t offset = 0;
    const BufferNode* buffer = nullptr;
};

/**
 * Execution context handed to opaque-intrinsic callbacks; the
 * tree-walking Interpreter implements it. Callbacks may only query the
 * direct arguments of the call they were invoked for.
 */
class ExecContext
{
  public:
    virtual ~ExecContext() = default;
    /** Evaluate a scalar expression of the current call. */
    virtual double evalValue(const Expr& expr) = 0;
    /** Evaluate an integer expression of the current call. */
    virtual int64_t evalInt(const Expr& expr) = 0;
    /** Resolve a BufferPtr argument to array + linear offset. */
    virtual BufferRef resolvePtr(const Expr& expr) = 0;
    /** Backing storage for a buffer of the executing function. */
    virtual NDArray* getArray(const Buffer& buffer) = 0;
};

/** Semantics callback for an opaque intrinsic call. */
using IntrinsicImpl = std::function<void(ExecContext&, const CallNode&)>;

/** Immutable name -> semantics table (see Interpreter::registerIntrinsic). */
using IntrinsicRegistry = std::unordered_map<std::string, IntrinsicImpl>;

/** Tree-walking evaluator for PrimFuncs (the reference oracle). */
class Interpreter final : public ExecContext
{
  public:
    /**
     * Execute `func` with `args` bound to its parameters in order.
     * Thread-binding and parallel loops run sequentially (valid programs
     * are race-free, so semantics are preserved). Arguments must match
     * the parameter buffers dimension by dimension, not just in total
     * element count.
     */
    void run(const PrimFunc& func, const std::vector<NDArray*>& args);

    /** Evaluate a scalar expression in the current environment. */
    double evalValue(const Expr& expr) override;
    /** Evaluate an integer expression (indices, predicates, bounds). */
    int64_t evalInt(const Expr& expr) override;
    /** Resolve a BufferPtr expression to array + offset. */
    BufferRef resolvePtr(const Expr& expr) override;
    /** Backing storage for a buffer, allocating lazily. */
    NDArray* getArray(const Buffer& buffer) override;

    /**
     * Fuel budget for this interpreter: the maximum number of statements
     * one run() may execute before it aborts with EvalError. 0 means
     * unlimited. Overrides the process-wide default for this instance.
     */
    void setStepLimit(uint64_t limit) { step_limit_ = limit; }

    /** Process-wide default step limit for interpreters without an
     *  explicit setStepLimit (0 = unlimited). */
    static void setDefaultStepLimit(uint64_t limit);
    /** Fall back to the TENSORIR_STEP_LIMIT environment variable. */
    static void clearDefaultStepLimit();
    /** Effective default: an explicit setDefaultStepLimit wins,
     *  otherwise TENSORIR_STEP_LIMIT, otherwise 0 (unlimited). A
     *  non-numeric TENSORIR_STEP_LIMIT value raises FatalError instead
     *  of silently meaning "unlimited". */
    static uint64_t defaultStepLimit();

    /**
     * Register the runtime semantics of an opaque intrinsic. Thread-safe
     * against concurrent registration and concurrent execution:
     * registration builds a new immutable registry snapshot and publishes
     * it atomically, so running interpreters keep reading the snapshot
     * they started with.
     */
    static void registerIntrinsic(const std::string& name,
                                  IntrinsicImpl impl);
    /** Whether an intrinsic implementation is registered. */
    static bool hasIntrinsic(const std::string& name);

    /** Force the pre-execution static memory analysis on or off for
     *  every subsequent run() (overrides the environment); nullopt
     *  hands the choice back to the environment. */
    static void setDebugChecks(std::optional<bool> enabled);
    /** Whether run() asserts the static memory analysis before
     *  executing: an explicit setDebugChecks wins, otherwise the
     *  TENSORIR_DEBUG_CHECKS environment variable, a flag parsed by
     *  support::envFlag ("1"/"on" or "0"/"off"; any other spelling
     *  raises FatalError). Off by default — the analysis re-lowers the
     *  function, which is wasted work in tight test loops. */
    static bool debugChecksEnabled();

  private:
    void exec(const Stmt& stmt);
    int64_t linearOffset(const Buffer& buffer,
                         const std::vector<Expr>& indices);

    /** Instance override of the default step limit (unset = default). */
    std::optional<uint64_t> step_limit_;
    /** Budget resolved at run() entry (0 = unlimited) and fuel used. */
    uint64_t active_limit_ = 0;
    uint64_t steps_ = 0;

    std::unordered_map<const VarNode*, int64_t> env_;
    std::unordered_map<const BufferNode*, std::unique_ptr<NDArray>>
        storage_;
    std::unordered_map<const BufferNode*, NDArray*> bound_;
    /** Registry snapshot acquired at run() entry (snapshot-after-init:
     *  intrinsics registered mid-run become visible on the next run). */
    std::shared_ptr<const IntrinsicRegistry> registry_;
};

/** One array per parameter of `func`, filled from `rng` in parameter
 *  order: integers in [-4, 4), floats in [-1, 1). The seeded inputs of
 *  the search's numeric oracle and of the measurement worker; each
 *  caller derives its own stream. */
std::vector<NDArray> seededArguments(const PrimFunc& func, Rng& rng);

/** Check `args` against `func`'s parameter buffers: count, and shape
 *  dimension by dimension (a 2x6 array must not bind to a 3x4 param).
 *  Shared by the tree-walker and the native tier (JitModule::run). */
void validateArguments(const PrimFunc& func,
                       const std::vector<NDArray*>& args);

/** RAII override of the default step limit (restores the previous
 *  default on destruction). The tuner installs one for the duration of
 *  evolutionarySearch from TuneOptions::eval_step_limit. Per-thread:
 *  concurrent tuning sessions budget their fuel independently. */
class ScopedStepLimit
{
  public:
    explicit ScopedStepLimit(uint64_t limit);
    ~ScopedStepLimit();
    ScopedStepLimit(const ScopedStepLimit&) = delete;
    ScopedStepLimit& operator=(const ScopedStepLimit&) = delete;

  private:
    std::optional<uint64_t> saved_;
};

} // namespace runtime
} // namespace tir

#endif // TENSORIR_RUNTIME_INTERPRETER_H
