/**
 * @file
 * Native JIT execution tier: C codegen -> system compiler -> dlopen.
 *
 * The tier that times real kernels (TuneOptions::measure_backend
 * "jit", benchmark loops); numeric results come from the tree-walking
 * Interpreter, which native code is differential-tested against. For a
 * lowered PrimFunc the tier emits a C translation unit
 * (codegen::emitJitC), shells out to the system compiler (`cc`,
 * overridable with TENSORIR_CC), dlopens the resulting shared object
 * and calls the exported entry point directly over the NDArray
 * storage. Compiled objects are cached twice:
 *
 *  - **In memory**: one dlopened JitModule per structural key for the
 *    life of the process, so repeated jitCompile calls on the same
 *    function pay the compiler exactly once.
 *  - **On disk**: `.so` files under jitCacheDir() (TENSORIR_JIT_CACHE,
 *    default /tmp/tensorir-jit-cache-<uid>), keyed by structural hash
 *    mixed with compiler identity, flags, and the emitter version —
 *    so a compiler upgrade or emitter change invalidates stale
 *    objects. The cache is size-bounded (TENSORIR_JIT_CACHE_MB,
 *    default 64) with oldest-mtime-first eviction, and corrupt
 *    objects are deleted and recompiled transparently.
 *
 * Compilation is single-flight: an in-process mutex + condition
 * variable collapses concurrent requests for one key, and an flock'd
 * lock file serialises compilations of the same key across processes,
 * so concurrent tuning workers compile each kernel once.
 *
 * The tier preserves the tree-walking interpreter's contract documented
 * in docs/EXECUTION.md: argument validation, EvalError on fuel
 * exhaustion, the `interp.run` failpoint site, the debug-checks gate,
 * and a trace span per run. Anything that prevents native execution —
 * no toolchain, compiler failure (failpoint `jit.compile`), dlopen
 * failure (failpoint `jit.dlopen`), unsupported constructs — degrades
 * gracefully: jitCompile returns nullptr and the caller keeps its
 * fallback (the measurement backend serves the analytical estimate).
 */
#ifndef TENSORIR_RUNTIME_JIT_H
#define TENSORIR_RUNTIME_JIT_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/c_codegen.h"
#include "runtime/interpreter.h"

namespace tir {
namespace runtime {

/**
 * A compiled-and-loaded native kernel. Holds the dlopen handle for its
 * lifetime; constructed by jitCompile (which shares instances through
 * the in-memory cache) and safe to run from multiple threads
 * concurrently — each run() binds its own intermediate buffers.
 */
class JitModule
{
  public:
    /** Takes ownership of `handle` (dlclosed on destruction). Used by
     *  jitCompile; not meant to be constructed directly. */
    JitModule(PrimFunc func, codegen::JitSource source, void* handle,
              std::string object_path);
    ~JitModule();
    JitModule(const JitModule&) = delete;
    JitModule& operator=(const JitModule&) = delete;

    /**
     * Execute natively with `args` bound to the function parameters in
     * order. Same observable contract as Interpreter::run:
     * per-dimension argument validation, the `interp.run` failpoint
     * site, the TENSORIR_DEBUG_CHECKS analysis gate, a `jit.run` trace
     * span, and EvalError when the statement budget runs out
     * (`step_limit` overrides Interpreter::defaultStepLimit; 0 =
     * unlimited). Fuel is charged on the *lowered* statement stream —
     * see docs/EXECUTION.md for how that compares to the tree-walker.
     */
    void run(const std::vector<NDArray*>& args,
             std::optional<uint64_t> step_limit = std::nullopt) const;

    /** The function this module was compiled from. */
    const PrimFunc& func() const { return func_; }
    /** Path of the cached shared object backing this module. */
    const std::string& objectPath() const { return object_path_; }
    /** Exported entry symbol in the shared object. Together with
     *  objectPath/buffers/numParams this is what the process-isolated
     *  measurement runner (meta/runner.h) ships to a worker, which
     *  dlopens the object itself instead of sharing this handle. */
    const std::string& entrySymbol() const { return entry_symbol_; }
    /** Buffer slot table: parameters first, then intermediates that
     *  run() allocates per call. */
    const std::vector<Buffer>& buffers() const { return buffers_; }
    /** Leading buffers() slots bound to function parameters. */
    size_t numParams() const { return num_params_; }

  private:
    using EntryFn = int64_t (*)(double**, int64_t);

    PrimFunc func_;
    std::vector<Buffer> buffers_;
    size_t num_params_ = 0;
    void* handle_ = nullptr;
    EntryFn entry_ = nullptr;
    std::string entry_symbol_;
    std::string object_path_;
};

/**
 * Compile `func` for native execution, hitting the in-memory module
 * cache, then the on-disk `.so` cache, then the system compiler.
 * Returns nullptr when native execution is not possible — missing
 * toolchain, compiler/dlopen failure, or a construct the C backend
 * cannot express.
 * Failures are cached per key (cleared by jitResetForTesting), so a
 * broken kernel does not re-invoke the compiler on every request.
 * Thread-safe; concurrent calls for one function compile it once.
 */
std::shared_ptr<const JitModule> jitCompile(const PrimFunc& func);

/** Whether the configured compiler can produce a loadable shared
 *  object: the toolchain probe, which compiles, loads and calls a
 *  trivial TU once per compiler path and caches the verdict.
 *  Concurrent first calls share one probe. */
bool jitAvailable();

/** Monotonic counters describing cache effectiveness since process
 *  start (or the last jitResetForTesting). */
struct JitStats
{
    uint64_t memory_hits = 0;      ///< served from the in-memory cache
    uint64_t disk_hits = 0;        ///< dlopened a previously cached .so
    uint64_t compiles = 0;         ///< compiler invocations attempted
    uint64_t compile_failures = 0; ///< compiler invocations that failed
    uint64_t recompiles = 0;       ///< corrupt/stale .so recoveries
    uint64_t evictions = 0;        ///< .so files evicted for size
};
JitStats jitStats();

/** The on-disk cache directory (TENSORIR_JIT_CACHE, default
 *  /tmp/tensorir-jit-cache-<uid>). Not created until first use. */
std::string jitCacheDir();

/** The on-disk cache size bound in bytes, resolved from
 *  TENSORIR_JIT_CACHE_MB (default 64 MB). Strictly parsed: garbage, a
 *  sign character, or an out-of-range value raise FatalError, and a
 *  megabyte count too large for the byte multiply clamps to
 *  UINT64_MAX. Exposed for the env-parsing regression tests. */
uint64_t jitCacheCapBytes();

/** The `.so` path `func` caches to under the current compiler/flags —
 *  the file the corruption-recovery tests overwrite. */
std::string jitObjectPathFor(const PrimFunc& func);

/** Drop the in-memory module cache, cached failures, toolchain probe
 *  results and statistics. The on-disk cache is left alone (tests use
 *  it to exercise the disk-hit and corruption paths). */
void jitResetForTesting();

} // namespace runtime
} // namespace tir

#endif // TENSORIR_RUNTIME_JIT_H
