/**
 * @file
 * Dataflow analysis framework over lowered TensorIR: per-buffer
 * def/use chains and region-level liveness computed on a CFG-like walk
 * of the statement tree (the access-site extractor provides the walk:
 * program-order sequence numbers, serial-loop stacks for loop-carried
 * edges, launches and sync epochs for concurrency structure). Where
 * the race analysis (analysis.h) only *rejects* programs, this layer
 * *explains* them — which write feeds which read, which store no read
 * can observe, which barrier orders nothing — so optimization passes
 * (lower/lower.h: elideRedundantSync, eliminateDeadStores) can emit
 * rewrites the framework proves safe, and the `tensorir-lint` tool can
 * report the findings as stable-coded diagnostics:
 *
 *   TIR-L001  use-before-init read  (error when no write can precede)
 *   TIR-L002  provably dead store   (warning; removable for free)
 *   TIR-L003  redundant barrier     (warning; protected pair set empty)
 *
 * The happens-before model is deliberately simple and conservative:
 * access x may precede access y iff x.seq < y.seq (straight-line
 * order) or x and y share an enclosing serial loop (x's instance in
 * iteration i precedes y's in iteration i+1). Everything downstream —
 * liveness, initialization, barrier protection — is phrased over that
 * relation plus the per-axis disjointness proofs of the race analysis.
 */
#ifndef TENSORIR_TIR_ANALYSIS_DATAFLOW_H
#define TENSORIR_TIR_ANALYSIS_DATAFLOW_H

#include <map>
#include <vector>

#include "tir/analysis/access_extract.h"
#include "tir/analysis/analysis.h"

namespace tir {
namespace analysis {

/** Def/use chain of one buffer across the whole function, in program
 *  order. Opaque (BufferPtr) sites appear in both lists. */
struct BufferChain
{
    Buffer buffer;
    /** Buffer is a function parameter: externally observable, so its
     *  stores are always live and its contents arrive initialized. */
    bool is_param = false;
    /** Write sites, program order (pointers into DataflowInfo's
     *  FuncAccesses::sites). */
    std::vector<const AccessSite*> defs;
    /** Read sites, program order. */
    std::vector<const AccessSite*> uses;
};

/** One storage-sync barrier with the pairs it actually orders. */
struct SyncDataflow
{
    const SyncSite* site = nullptr;
    /** Access pairs (in execution order, loop-carried pairs included)
     *  for which this barrier is the sole remaining orderer of a
     *  possible cross-thread conflict. Empty ⇒ the barrier is
     *  redundant (TIR-L003). Capped at 8 pairs per sync — enough for
     *  a diagnostic, and the elision decision only needs emptiness. */
    std::vector<std::pair<const AccessSite*, const AccessSite*>>
        protected_pairs;
    /** Empty protected set under the greedy left-to-right elision
     *  order: this barrier can be removed while every barrier still
     *  marked kept stays. The elision pass removes exactly these. */
    bool elidable = false;
};

/** Whole-function dataflow summary. */
struct DataflowInfo
{
    /** The analyzed (lowered) function — owns every node the site
     *  pointers below reference. */
    PrimFunc func;
    /** Raw access sites (race-analysis mode: thread vars symbolic). */
    FuncAccesses accesses;
    /** Def/use chains keyed by buffer identity. */
    std::map<const BufferNode*, BufferChain> chains;
    /** Writes no use can observe (forward or loop-carried): provably
     *  dead stores, in program order. Opaque sites and parameter
     *  buffers are never listed. */
    std::vector<const AccessSite*> dead_stores;
    /** Reads of intermediate buffers that no write can precede:
     *  use-before-init, in program order. */
    std::vector<const AccessSite*> uninit_reads;
    /** Per-barrier protection info, in program order. */
    std::vector<SyncDataflow> syncs;
    /** Analysis was skipped (site count beyond the budget); all result
     *  sets are empty and nothing may be optimized. */
    bool truncated = false;
};

/**
 * Compute the dataflow summary of a function. Accepts scheduled or
 * lowered functions; block-containing bodies are lowered internally
 * first (like analyzeFunc). `options` feeds the disjointness proofs
 * used by barrier protection (exhaustive_pair_limit et al.).
 */
DataflowInfo computeDataflow(const PrimFunc& func,
                             const AnalysisOptions& options = {});

/**
 * Lint a function: render the dataflow findings as structured
 * diagnostics (TIR-L001 use-before-init as errors, TIR-L002 dead
 * stores and TIR-L003 redundant barriers as warnings), deduplicated
 * and capped like analyzeFunc diagnostics.
 */
AnalysisReport lintFunc(const PrimFunc& func,
                        const AnalysisOptions& options = {});

} // namespace analysis
} // namespace tir

#endif // TENSORIR_TIR_ANALYSIS_DATAFLOW_H
