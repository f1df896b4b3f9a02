/**
 * @file
 * Schedule: the paper's §3.2 transformation primitives. Each primitive is
 * a standalone PrimFunc -> PrimFunc rewrite; the schedule also records the
 * random decisions taken by sampling primitives so the evolutionary search
 * (§4.4) can mutate and replay them.
 */
#ifndef TENSORIR_TIR_SCHEDULE_H
#define TENSORIR_TIR_SCHEDULE_H

#include <optional>

#include "arith/analyzer.h"
#include "ir/stmt.h"
#include "support/rng.h"

namespace tir {

class TensorIntrin;

/** A recorded random decision made by a sampling primitive. */
struct Decision
{
    enum class Kind { kPerfectTile, kCategorical };
    Kind kind;
    /** kPerfectTile: loop extent factored. */
    int64_t extent = 0;
    /** kPerfectTile: number of factors; also max innermost factor. */
    int number = 0;
    int max_innermost = 0;
    /** Chosen factorization (kPerfectTile) or {index} (kCategorical). */
    std::vector<int64_t> values;
    /** kCategorical: number of candidates. */
    int num_candidates = 0;

    bool operator==(const Decision&) const = default;
};

/**
 * A scheduling handle over one PrimFunc.
 *
 * Blocks are addressed by name (kept unique), loops by their loop
 * variable, whose identity is stable across rewrites.
 */
class Schedule
{
  public:
    explicit Schedule(PrimFunc func, uint64_t seed = 42);

    /** The current state of the scheduled function. */
    const PrimFunc& func() const { return func_; }
    /**
     * Continue from `func`, which decision-free primitives produced
     * from the current function on another Schedule (a sketch prologue
     * shared between candidates). The decision trace, the pending
     * overrides and the RNG stay as they are.
     */
    void adoptFunc(PrimFunc func);

    // --- Queries -------------------------------------------------------

    /** Does a block with this name exist? */
    bool hasBlock(const std::string& block) const;
    /** The block node (fatal if absent). */
    BlockPtr getBlock(const std::string& block) const;
    /** Loops above the block, outermost first, within its parent block. */
    std::vector<Var> getLoops(const std::string& block) const;
    /** Constant extent of a loop. */
    int64_t loopExtent(const Var& loop) const;
    /** Names of all blocks except the root, in pre-order. */
    std::vector<std::string> blockNames() const;

    // --- Loop transformations (Figure 6) --------------------------------

    /**
     * Split a loop into nested loops with the given factors (product must
     * be >= extent; over-approximation guarded by block predicates).
     * A single -1 entry is inferred. Returns the new loop vars.
     */
    std::vector<Var> split(const Var& loop,
                           const std::vector<int64_t>& factors);
    /** Fuse perfectly nested adjacent loops into one. */
    Var fuse(const std::vector<Var>& loops);
    /** Reorder loops within a perfect single-chain nest. */
    void reorder(const std::vector<Var>& loops);

    /** Move producer block under `loop`, shrinking to the needed region. */
    void computeAt(const std::string& block, const Var& loop);
    /** Move consumer block under `loop` (e.g. fuse an epilogue). */
    void reverseComputeAt(const std::string& block, const Var& loop);
    /** Inline a spatial producer block into its consumers. */
    void computeInline(const std::string& block);
    /** Inline a spatial consumer block into its producer. */
    void reverseComputeInline(const std::string& block);

    // --- Block transformations (Figure 7, §3.2) --------------------------

    /**
     * Isolate the subtree under `loop` into a new sub-block (Figure 7).
     * Returns the new outer block's name.
     */
    std::string blockize(const Var& loop);
    /** Replace a blockized computation with a tensor intrinsic (§4.1). */
    void tensorize(const std::string& block, const std::string& intrin);
    /** Split a reduction block into init block + update block. */
    std::string decomposeReduction(const std::string& block,
                                   const Var& loop);
    /**
     * Inverse of decomposeReduction: fold a separate init block back
     * into its update block (the paper's "back and forth
     * transformations between a single reduction block and the
     * corresponding init- and update-blocks").
     */
    void mergeReduction(const std::string& init_block,
                        const std::string& update_block);

    /** Stage reads of `block` through a new buffer in `scope`. */
    std::string cacheRead(const std::string& block, int read_index,
                          const std::string& scope);
    /** Stage the write of `block` through a new buffer in `scope`. */
    std::string cacheWrite(const std::string& block,
                           const std::string& scope);

    /**
     * The paper's ReIndex + layout-rewrite step (§4.2): materialize one
     * operand of an einsum block into a buffer laid out by fused iterator
     * groups (padding group extents up to `padded_extents`).
     * `operand` is a read index or -1 for the write operand.
     * Returns the name of the inserted copy block.
     */
    std::string reindexFused(const std::string& block, int operand,
                             const std::vector<std::vector<int>>& groups,
                             const std::vector<int64_t>& padded_extents,
                             const std::vector<int>& operand_groups = {});
    /**
     * Rewrite the block iterator space to the fused groups (each group is
     * a list of old iterator positions); loops binding the old iterators
     * are replaced by one loop per group.
     */
    void transformBlockLayout(const std::string& block,
                              const std::vector<std::vector<int>>& groups,
                              const std::vector<int64_t>& padded_extents);

    // --- Annotations & thread binding ------------------------------------

    /** Bind a loop to a GPU thread axis ("blockIdx.x", "threadIdx.x"...). */
    void bind(const Var& loop, const std::string& thread_tag);
    void parallel(const Var& loop);
    void vectorize(const Var& loop);
    void unroll(const Var& loop);
    /** Attach a key=value annotation to a block. */
    void annotateBlock(const std::string& block, const std::string& key,
                       Expr value);
    /** Attach a key=value annotation to a loop. */
    void annotateLoop(const Var& loop, const std::string& key, Expr value);

    // --- Sampling primitives (recorded into the decision trace) ----------

    /** Sample a perfect tiling of `loop` into n factors. */
    std::vector<int64_t> samplePerfectTile(const Var& loop, int n,
                                           int max_innermost = 64);
    /** Sample an index into `candidates` with the given weights. */
    int64_t sampleCategorical(const std::vector<int64_t>& candidates,
                              const std::vector<double>& probs);

    /** All decisions made so far. */
    const std::vector<Decision>& decisions() const { return decisions_; }
    /** Pre-seed decisions to replay/mutate a schedule. */
    void setDecisionOverrides(std::vector<Decision> overrides);
    /** RNG used by sampling (exposed for search). */
    Rng& rng() { return rng_; }

    // --- Validation -------------------------------------------------------

    /**
     * Run loop-nest validation (§3.3) over the whole function; fatal with
     * a diagnostic when some binding is not quasi-affine or a domain is
     * not covered.
     */
    void validateAffineBindings() const;

    /**
     * Run the static memory analysis (tir/analysis) over the lowered
     * form of the current function; fatal with the full diagnostic list
     * (offending buffer, thread axis, loop nest, regions) when it finds
     * a provable cross-thread race or out-of-bounds access. Warnings do
     * not throw.
     */
    void validateMemoryAnalysis() const;

    /** Diagnostics of the static memory analysis on the current
     *  function, rendered one per line; empty when clean. Non-fatal
     *  companion to validateMemoryAnalysis for inspection flows. */
    std::string analysisDiagnostics() const;

    /** Location of a block: its realize, enclosing loops, parent block. */
    struct BlockSite
    {
        Stmt realize;                 // the BlockRealize
        std::vector<Stmt> loops;      // enclosing Fors, outer-to-inner
        const BlockNode* parent = nullptr; // enclosing block
    };

    /** Locate a block by name (fatal if absent). */
    BlockSite findSite(const std::string& block) const;

  private:
    const ForNode* findLoop(const Var& loop) const;
    /** Replace the subtree rooted at `target` (by pointer) in func_. */
    void replaceNode(const StmtNode* target, Stmt replacement);
    /** Delete the subtree rooted at `target` (must sit inside a Seq). */
    void eraseNode(const StmtNode* target);
    /** Register a buffer in the root block's allocations. */
    void addRootAlloc(const Buffer& buffer);
    /** Remove a buffer from the root block's allocations. */
    void removeRootAlloc(const Buffer& buffer);
    /** Make a block name unique within the function. */
    std::string uniqueName(const std::string& base) const;
    /** Domains of all loops enclosing a statement. */
    arith::Analyzer analyzerAt(const BlockSite& site) const;

    PrimFunc func_;
    Rng rng_;
    std::vector<Decision> decisions_;
    std::vector<Decision> overrides_;
    size_t override_pos_ = 0;
};

} // namespace tir

#endif // TENSORIR_TIR_SCHEDULE_H
