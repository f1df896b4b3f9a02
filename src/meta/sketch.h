/**
 * @file
 * Tensorized program sketch generation (§4.3). A sketch fixes program
 * structure (tiling levels, staging points, AutoCopy blocks) while
 * leaving tile sizes and vector widths as sampled decisions. Data
 * movement is first-class: AutoCopy blocks are inserted by the sketch
 * and scheduled separately by the data-movement scheduler
 * (cooperative fetching, vectorization).
 */
#ifndef TENSORIR_META_SKETCH_H
#define TENSORIR_META_SKETCH_H

#include <functional>

#include "meta/auto_tensorize.h"

namespace tir {
namespace meta {

/** Data-movement policy knobs (TensorIR vs the AMOS-like baseline). */
struct SketchOptions
{
    /** Stage operands through shared memory (GPU). */
    bool use_shared_staging = true;
    /** Let the data-movement scheduler vectorize copies. */
    bool vectorize_copies = true;
};

/**
 * Applies a full sketch to a fresh schedule; throws FatalError on
 * invalid sampled decisions (the search filters these out).
 *
 * Thread-safety: appliers returned by the factories below capture only
 * immutable state (candidate descriptors, option structs, block names)
 * plus, for the tensor family, a mutex-guarded cache of the sketch's
 * decision-free prologue, so one applier may be invoked concurrently
 * from many threads, each on its own Schedule. This is what lets the
 * parallel tuning pipeline instantiate a whole generation of candidates
 * at once.
 */
using SketchApplier = std::function<void(Schedule&)>;

/**
 * Rank tensorize candidates by amortized work per intrinsic call
 * (intrinsic MACs divided by padding waste) and return the index of the
 * best one. Requires a non-empty candidate list.
 */
size_t selectTensorizeCandidate(
    const std::vector<TensorizeCandidate>& candidates);

/**
 * Applier for the tensorized sketch family, targeting the GPU or CPU
 * variant. The sketch is a decision-free prologue (ReIndex + layout,
 * applyReindexAndLayout) plus a sampled body (tile + stage +
 * tensorize, apply{Gpu,Cpu}TensorSketch). The applier runs the
 * prologue once per input function and starts every later Schedule
 * of that function from its output.
 */
SketchApplier makeTensorSketchApplier(const TensorizeCandidate& cand,
                                      bool gpu,
                                      const SketchOptions& options);

/** Applier for the non-tensorized loop-nest family (Ansor-style). */
SketchApplier makeLoopSketchApplier(const std::string& einsum_block,
                                    bool gpu);

/**
 * GPU sketch with tensor-core style tensorization: multi-level tiling,
 * blockIdx/threadIdx binding, accumulator staging, shared-memory +
 * fragment AutoCopy blocks, blockize + tensorize, and injective
 * scheduling of all remaining blocks. Throws FatalError when sampled
 * decisions produce an invalid program (the search filters these).
 */
void applyGpuTensorSketch(Schedule& sch, const TensorizeCandidate& cand,
                          const ReindexBlocks& rb,
                          const SketchOptions& options);

/** Ansor-style GPU sketch without tensorization (the TVM baseline). */
void applyGpuLoopSketch(Schedule& sch, const std::string& einsum_block);

/** CPU sketch with sdot-style tensorization (ARM backend, §5.3). */
void applyCpuTensorSketch(Schedule& sch, const TensorizeCandidate& cand,
                          const ReindexBlocks& rb,
                          const SketchOptions& options);

/** CPU loop-nest sketch without tensorization. */
void applyCpuLoopSketch(Schedule& sch, const std::string& einsum_block);

/** Schedule one elementwise/copy block for the GPU (fuse/bind/vector). */
void scheduleInjectiveGpu(Schedule& sch, const std::string& block);

/** Schedule one elementwise/copy block for the CPU (parallel/vector). */
void scheduleInjectiveCpu(Schedule& sch, const std::string& block);

/** Schedule every block not yet bound/parallelized as injective. */
void scheduleRemainingBlocks(Schedule& sch, bool gpu);

} // namespace meta
} // namespace tir

#endif // TENSORIR_META_SKETCH_H
