/**
 * @file
 * Static memory analysis of lowered TensorIR (the §3.3 correctness
 * story carried past structural validation): a cross-thread race
 * detector and an out-of-bounds access checker built on the access-site
 * extractor (access_extract.h). The analysis is three-valued — a
 * hazard is reported as an *error* only when it is provable on every
 * (or some concrete) execution, as a *warning* when it is possible but
 * unproven, and not at all when the accesses are provably safe — so
 * the evolutionary search can reject candidates on errors without ever
 * discarding a correct-but-hard-to-prove schedule.
 *
 * Known approximations, documented rather than hidden:
 *  - Disjointness across thread coordinates is proven per axis with
 *    the other axes held equal (the mixed-radix layouts produced by
 *    split/fuse are exactly provable this way; cross-axis aliasing
 *    like X[t + u] is excluded upstream by the quasi-affine binding
 *    validation).
 *  - Loop-carried shared-memory WAR hazards (double-buffering) are not
 *    modeled; insertStorageSync places the loop-top barrier for them.
 */
#ifndef TENSORIR_TIR_ANALYSIS_ANALYSIS_H
#define TENSORIR_TIR_ANALYSIS_ANALYSIS_H

#include <string>
#include <vector>

#include "ir/stmt.h"

namespace tir {
namespace analysis {

/** What a diagnostic is about. Every kind has a stable code (see
 *  diagCode) so tools, CI gates, and suppression lists can match on
 *  identity rather than message text. */
enum class DiagKind : uint8_t {
    /** TIR-R001: two writes from distinct thread coordinates hit one
     *  location. */
    kWriteRace,
    /** TIR-R002: cross-thread read-after-write on a shared-scope buffer
     *  with no intervening storage-sync barrier. */
    kRawNoSync,
    /** TIR-B001: access index provably (error) or possibly (warning)
     *  outside the declared buffer shape. */
    kOutOfBounds,
    /** TIR-R003: storage-sync barrier under thread-divergent control
     *  flow. */
    kDivergentSync,
    /** TIR-V001: thread-binding structure violation
     *  (verifyThreadBindings). */
    kThreadBinding,
    /** TIR-V002: producer regions fail to cover a consumer read
     *  (verifyRegionCover). */
    kRegionCover,
    /** TIR-L001: read of an intermediate buffer no write can have
     *  reached first (dataflow.h). */
    kUseBeforeInit,
    /** TIR-L002: store to an intermediate buffer no later (or
     *  loop-carried) read can observe (dataflow.h). */
    kDeadStore,
    /** TIR-L003: storage-sync barrier whose protected pair set is
     *  empty — every access pair it separates is provably ordered or
     *  disjoint without it (dataflow.h). */
    kRedundantSync,
};

/** Stable diagnostic code ("TIR-R001", "TIR-L002", ...). */
const char* diagCode(DiagKind kind);

/** How certain the analysis is. */
enum class Severity : uint8_t {
    /** Provable on the program's actual executions. */
    kError,
    /** Possible but not proven (or proven only non-exactly). */
    kWarning,
};

/** One finding, with enough context to act on it. */
struct Diagnostic
{
    DiagKind kind;
    Severity severity = Severity::kError;
    /** Offending buffer. */
    std::string buffer;
    /** Thread axis the hazard crosses (races), empty otherwise. */
    std::string axis;
    /** Loop nest of the (first) offending access. */
    std::string loop_path;
    /** Regions / index expression / derived interval, rendered. */
    std::string detail;

    /** Stable code of `kind` ("TIR-R001", ...). */
    const char* code() const { return diagCode(kind); }
    /** One-line human-readable rendering (includes the code). */
    std::string message() const;
};

/** Result of analyzing one function. */
struct AnalysisReport
{
    std::vector<Diagnostic> diagnostics;

    /** No error-severity findings (warnings allowed). */
    bool ok() const;
    /** Number of error-severity findings of `kind`. */
    int errorCount(DiagKind kind) const;
    /** True when an error-severity finding of `kind` exists. */
    bool hasError(DiagKind kind) const;
    /** All findings rendered one per line (empty string when clean). */
    std::string summary() const;
};

/** Tuning knobs of the analysis. */
struct AnalysisOptions
{
    /** Budget of concrete thread-coordinate pairs enumerated per axis
     *  when symbolic proofs are inconclusive (catches value-reversal
     *  hazards like S[E-1-t] against S[t]); 0 disables enumeration.
     *  The search filter runs with 0: enumeration is for tests and
     *  debug assertions, where extents are small. */
    int64_t exhaustive_pair_limit = 4096;
    /** Treat CPU kParallel loops as racing concurrency axes. */
    bool check_parallel_loops = true;
    /** Cap on reported diagnostics: a warning found once this many
     *  are reported is dropped. Errors are always reported, because
     *  they decide AnalysisReport::ok(). */
    int max_diagnostics = 32;
};

/**
 * Analyze a function for cross-thread races and out-of-bounds
 * accesses. Accepts scheduled or lowered functions; block-containing
 * bodies are lowered internally first.
 */
AnalysisReport analyzeFunc(const PrimFunc& func,
                           const AnalysisOptions& options = {});

struct AccessSite;
struct FuncAccesses;

/**
 * True when a storage-sync barrier between `earlier` and `later`
 * (program order) would be load-bearing: both sites touch the same
 * shared-scope buffer, at least one writes, and cross-thread overlap
 * between distinct coordinates of some concurrency axis cannot be
 * ruled out by the per-axis proofs of the race analysis. For the
 * write→read direction the full RAW verdict applies (disjointness,
 * pinned coordinates, uniform cooperative copies); for read→write and
 * write→write only order-independence proofs (disjointness, pinned
 * equality, uniform same-byte writes) count. False means removing the
 * barrier cannot introduce cross-thread data flow between the pair.
 */
bool barrierLoadBearing(const AccessSite& earlier,
                        const AccessSite& later, const FuncAccesses& fa,
                        const AnalysisOptions& options = {});

/** A rectangular access piece of one pipeline stage, in program
 *  order, used by the per-region producer-consumer cover check. */
struct RegionPiece
{
    BufferRegion region;
    bool is_write = false;
    /** Bounds are exact and unconditional: every cell of the region is
     *  touched on every execution. Guarded or widened accesses are
     *  inexact and fall back to the conservative hull check. */
    bool exact = false;
};

/**
 * Per-access regions of one pipeline stage (a root-level statement of
 * a scheduled function), thread and serial loops both widened away.
 * Blocks are erased internally. Opaque BufferPtr accesses appear as
 * inexact whole-buffer pieces.
 */
std::vector<RegionPiece> stageRegionPieces(const Stmt& stage);

} // namespace analysis
} // namespace tir

#endif // TENSORIR_TIR_ANALYSIS_ANALYSIS_H
