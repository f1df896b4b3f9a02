#include "meta/sketch.h"

#include <memory>
#include <mutex>

#include "intrin/tensor_intrin.h"

namespace tir {
namespace meta {

namespace {

/** Index of the block read touching `buffer`. */
int
readIndexOf(const Schedule& sch, const std::string& block,
            const Buffer& buffer)
{
    BlockPtr b = sch.getBlock(block);
    for (size_t i = 0; i < b->reads.size(); ++i) {
        if (b->reads[i].buffer == buffer) return static_cast<int>(i);
    }
    TIR_FATAL << "block " << block << " does not read " << buffer->name;
}

/** The block's own trailing loops (one per block iterator). */
std::vector<Var>
ownLoops(const Schedule& sch, const std::string& block)
{
    std::vector<Var> loops = sch.getLoops(block);
    size_t ndim = sch.getBlock(block)->iter_vars.size();
    TIR_CHECK(loops.size() >= ndim)
        << "block " << block << " has fewer loops than iterators";
    return {loops.end() - ndim, loops.end()};
}

/**
 * Data-movement scheduler for an AutoCopy block staged inside a kernel:
 * fuse its loops, optionally split off a vector lane, and mark it as a
 * cooperative fetch distributed over `threads` threads.
 */
void
scheduleCooperativeCopy(Schedule& sch, const std::string& block,
                        int64_t threads, bool vectorize)
{
    Var fused = sch.fuse(ownLoops(sch, block));
    if (vectorize) {
        int64_t vec = sch.sampleCategorical({1, 2, 4, 8}, {});
        if (vec > 1 && sch.loopExtent(fused) % vec == 0) {
            std::vector<Var> parts = sch.split(fused, {-1, vec});
            sch.vectorize(parts[1]);
        }
    }
    sch.annotateBlock(block, "cooperative_fetch",
                      intImm(threads, DataType::i64()));
    sch.annotateBlock(block, "auto_copy", intImm(1));
}

/** True when any loop above the block is thread-bound or parallel. */
bool
isScheduled(const Schedule& sch, const std::string& block)
{
    Schedule::BlockSite site = sch.findSite(block);
    for (const Stmt& loop : site.loops) {
        const auto& f = static_cast<const ForNode&>(*loop);
        if (f.for_kind == ForKind::kThreadBinding ||
            f.for_kind == ForKind::kParallel) {
            return true;
        }
    }
    return site.loops.empty();
}

/**
 * The decision-free prologue of a tensor sketch (applyReindexAndLayout)
 * run once per input function and shared by every candidate started
 * from that function. The IR is immutable, so candidates continue from
 * the same output function. Safe to use from many threads at once.
 */
class SharedPrologue
{
  public:
    explicit SharedPrologue(TensorizeCandidate cand) : cand_(std::move(cand))
    {}

    /** Apply the prologue to `sch`, from the cache when its function
     *  is the one the cache was filled from. */
    ReindexBlocks
    apply(Schedule& sch)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // `input_` is held, so its address cannot be reused: a pointer
        // match always means the same function.
        if (sch.func() == input_) {
            sch.adoptFunc(output_);
            return rb_;
        }
        PrimFunc input = sch.func();
        rb_ = applyReindexAndLayout(sch, cand_);
        input_ = std::move(input);
        output_ = sch.func();
        return rb_;
    }

    const TensorizeCandidate& cand() const { return cand_; }

  private:
    const TensorizeCandidate cand_;
    std::mutex mutex_;
    PrimFunc input_;
    PrimFunc output_;
    ReindexBlocks rb_;
};

} // namespace

size_t
selectTensorizeCandidate(const std::vector<TensorizeCandidate>& candidates)
{
    TIR_CHECK(!candidates.empty())
        << "selectTensorizeCandidate needs at least one candidate";
    // Prefer the intrinsic that amortizes the most work per call while
    // wasting the least padding.
    size_t best = 0;
    double best_score = -1;
    for (size_t i = 0; i < candidates.size(); ++i) {
        const TensorizeCandidate& c = candidates[i];
        double score = TensorIntrin::get(c.intrin).macs / c.padding_waste;
        if (score > best_score) {
            best_score = score;
            best = i;
        }
    }
    return best;
}

SketchApplier
makeTensorSketchApplier(const TensorizeCandidate& cand, bool gpu,
                        const SketchOptions& options)
{
    auto prologue = std::make_shared<SharedPrologue>(cand);
    return [prologue, gpu, options](Schedule& sch) {
        ReindexBlocks rb = prologue->apply(sch);
        if (gpu) {
            applyGpuTensorSketch(sch, prologue->cand(), rb, options);
        } else {
            applyCpuTensorSketch(sch, prologue->cand(), rb, options);
        }
    };
}

SketchApplier
makeLoopSketchApplier(const std::string& einsum_block, bool gpu)
{
    return [einsum_block, gpu](Schedule& sch) {
        if (gpu) {
            applyGpuLoopSketch(sch, einsum_block);
        } else {
            applyCpuLoopSketch(sch, einsum_block);
        }
    };
}

void
scheduleInjectiveGpu(Schedule& sch, const std::string& block)
{
    Var fused = sch.fuse(ownLoops(sch, block));
    int64_t threads = sch.sampleCategorical({64, 128, 256}, {});
    int64_t vec = sch.sampleCategorical({1, 2, 4}, {});
    int64_t extent = sch.loopExtent(fused);
    if (extent % vec != 0) vec = 1;
    if (extent / vec < threads) threads = std::max<int64_t>(
        1, extent / vec);
    std::vector<Var> parts = sch.split(fused, {-1, threads, vec});
    sch.bind(parts[0], "blockIdx.x");
    sch.bind(parts[1], "threadIdx.x");
    if (vec > 1) sch.vectorize(parts[2]);
}

void
scheduleInjectiveCpu(Schedule& sch, const std::string& block)
{
    Var fused = sch.fuse(ownLoops(sch, block));
    int64_t vec = sch.sampleCategorical({4, 8, 16}, {});
    int64_t extent = sch.loopExtent(fused);
    if (extent % vec != 0) vec = 1;
    std::vector<Var> parts = sch.split(fused, {-1, vec});
    sch.parallel(parts[0]);
    if (vec > 1) sch.vectorize(parts[1]);
}

void
scheduleRemainingBlocks(Schedule& sch, bool gpu)
{
    for (const std::string& name : sch.blockNames()) {
        if (isScheduled(sch, name)) continue;
        // Only schedule complete top-level spatial blocks.
        BlockPtr b = sch.getBlock(name);
        bool spatial = true;
        for (const IterVar& iv : b->iter_vars) {
            spatial &= (iv.type == IterType::kSpatial);
        }
        if (!spatial || b->iter_vars.empty()) continue;
        if (gpu) {
            scheduleInjectiveGpu(sch, name);
        } else {
            scheduleInjectiveCpu(sch, name);
        }
    }
}

void
applyGpuTensorSketch(Schedule& sch, const TensorizeCandidate& cand,
                     const ReindexBlocks& rb, const SketchOptions& options)
{
    const TensorIntrin& ti = TensorIntrin::get(cand.intrin);
    std::vector<Var> loops = sch.getLoops(cand.block);
    int base = cand.has_batch ? 1 : 0;
    TIR_CHECK(loops.size() == cand.groups.size())
        << "unexpected loop structure after layout transform";

    // Split off the intrinsic tile, then sample the outer tiling.
    std::vector<Var> xs = sch.split(loops[base], {-1, ti.tile_m});
    std::vector<Var> ys = sch.split(loops[base + 1], {-1, ti.tile_n});
    std::vector<Var> ks = sch.split(loops[base + 2], {-1, ti.tile_k});
    std::vector<int64_t> xt = sch.samplePerfectTile(xs[0], 3, 8);
    std::vector<Var> x3 = sch.split(xs[0], xt);
    std::vector<int64_t> yt = sch.samplePerfectTile(ys[0], 3, 8);
    std::vector<Var> y3 = sch.split(ys[0], yt);
    std::vector<int64_t> kt = sch.samplePerfectTile(ks[0], 2, 16);
    std::vector<Var> k2 = sch.split(ks[0], kt);

    sch.reorder({x3[0], y3[0], x3[1], y3[1], k2[0], k2[1], x3[2], y3[2],
                 xs[1], ys[1], ks[1]});
    Var bx = cand.has_batch ? sch.fuse({loops[0], x3[0], y3[0]})
                            : sch.fuse({x3[0], y3[0]});
    sch.bind(bx, "blockIdx.x");
    Var ty = sch.fuse({x3[1], y3[1]});
    sch.bind(ty, "threadIdx.y");
    int64_t warps = xt[1] * yt[1];

    // Stage the accumulator tile in the tensor-core register scope.
    std::string c_frag_copy =
        sch.cacheWrite(cand.block, "wmma.accumulator");
    sch.reverseComputeAt(c_frag_copy, ty);

    // Separate the reduction init from the update.
    sch.decomposeReduction(cand.block, k2[0]);

    // AutoCopy staging: shared memory at the outer reduction level,
    // fragments at the inner one.
    std::vector<std::string> shared_copies;
    if (options.use_shared_staging) {
        std::string a_sh = sch.cacheRead(
            cand.block, readIndexOf(sch, cand.block, rb.a_fused),
            "shared");
        sch.computeAt(a_sh, k2[0]);
        std::string b_sh = sch.cacheRead(
            cand.block, readIndexOf(sch, cand.block, rb.b_fused),
            "shared");
        sch.computeAt(b_sh, k2[0]);
        shared_copies = {a_sh, b_sh};
    }
    // Whatever buffer the block reads now (fused or shared) feeds the
    // fragment copies.
    BlockPtr blk = sch.getBlock(cand.block);
    Buffer a_src = rb.a_fused;
    Buffer b_src = rb.b_fused;
    for (const BufferRegion& r : blk->reads) {
        if (r.buffer->scope == "shared") {
            if (r.buffer->name.rfind(rb.a_fused->name, 0) == 0) {
                a_src = r.buffer;
            } else {
                b_src = r.buffer;
            }
        }
    }
    std::string a_fr = sch.cacheRead(
        cand.block, readIndexOf(sch, cand.block, a_src),
        "wmma.matrix_a");
    sch.computeAt(a_fr, k2[1]);
    std::string b_fr = sch.cacheRead(
        cand.block, readIndexOf(sch, cand.block, b_src),
        "wmma.matrix_b");
    sch.computeAt(b_fr, k2[1]);

    // Isolate and tensorize the intrinsic tile (Figure 7 + §4.1).
    std::string outer = sch.blockize(xs[1]);
    sch.tensorize(outer, cand.intrin);

    // Data-movement scheduling for the shared copies. The copies sit
    // inside the warp (threadIdx.y) loop, so each distributes over the
    // 32 lanes of its warp.
    (void)warps;
    for (const std::string& copy : shared_copies) {
        scheduleCooperativeCopy(sch, copy, 32,
                                options.vectorize_copies);
    }

    // Gather/writeback and padding blocks run as separate kernels.
    scheduleRemainingBlocks(sch, /*gpu=*/true);
    sch.validateAffineBindings();
}

void
applyGpuLoopSketch(Schedule& sch, const std::string& einsum_block)
{
    BlockPtr block = sch.getBlock(einsum_block);
    std::vector<Var> loops = sch.getLoops(einsum_block);
    size_t spatial_count = 0;
    for (const IterVar& iv : block->iter_vars) {
        if (iv.type == IterType::kSpatial) ++spatial_count;
    }
    TIR_CHECK(loops.size() == block->iter_vars.size())
        << "loop sketch expects the initial one-loop-per-iterator form";

    std::vector<Var> spatial(loops.begin(), loops.begin() + spatial_count);
    std::vector<Var> reduce(loops.begin() + spatial_count, loops.end());

    // Ansor-style structure: fused spatial split into
    // [blockIdx, threadIdx, register tile].
    Var fs = sch.fuse(spatial);
    int64_t threads = sch.sampleCategorical({64, 128, 256}, {});
    int64_t reg = sch.sampleCategorical({1, 2, 4, 8}, {});
    int64_t extent = sch.loopExtent(fs);
    if (extent % (threads * reg) != 0) reg = 1;
    std::vector<Var> parts = sch.split(fs, {-1, threads, reg});
    sch.bind(parts[0], "blockIdx.x");
    sch.bind(parts[1], "threadIdx.x");

    // Accumulate the output tile in registers instead of global memory.
    std::string acc_copy = sch.cacheWrite(einsum_block, "local");
    sch.reverseComputeAt(acc_copy, parts[1]);

    if (!reduce.empty()) {
        Var rf = sch.fuse(reduce);
        std::vector<int64_t> rt = sch.samplePerfectTile(rf, 2, 16);
        std::vector<Var> r2 = sch.split(rf, rt);
        sch.reorder({r2[0], r2[1], parts[2]});
        // Shared staging of the inputs at the outer reduction loop.
        BlockPtr blk = sch.getBlock(einsum_block);
        std::vector<Buffer> inputs;
        for (const BufferRegion& r : blk->reads) {
            if (r.buffer->scope == "global") inputs.push_back(r.buffer);
        }
        for (const Buffer& input : inputs) {
            int idx = readIndexOf(sch, einsum_block, input);
            std::string copy = sch.cacheRead(einsum_block, idx, "shared");
            sch.computeAt(copy, r2[0]);
            scheduleCooperativeCopy(sch, copy, threads, true);
        }
    }
    scheduleRemainingBlocks(sch, /*gpu=*/true);
    sch.validateAffineBindings();
}

void
applyCpuTensorSketch(Schedule& sch, const TensorizeCandidate& cand,
                     const ReindexBlocks& rb, const SketchOptions& options)
{
    const TensorIntrin& ti = TensorIntrin::get(cand.intrin);
    std::vector<Var> loops = sch.getLoops(cand.block);
    int base = cand.has_batch ? 1 : 0;

    std::vector<Var> xs = sch.split(loops[base], {-1, ti.tile_m});
    std::vector<Var> ys = sch.split(loops[base + 1], {-1, ti.tile_n});
    std::vector<Var> ks = sch.split(loops[base + 2], {-1, ti.tile_k});
    std::vector<int64_t> xt = sch.samplePerfectTile(xs[0], 2, 32);
    std::vector<Var> x2 = sch.split(xs[0], xt);
    std::vector<int64_t> yt = sch.samplePerfectTile(ys[0], 2, 32);
    std::vector<Var> y2 = sch.split(ys[0], yt);
    std::vector<int64_t> kt = sch.samplePerfectTile(ks[0], 2, 32);
    std::vector<Var> k2 = sch.split(ks[0], kt);

    sch.reorder({x2[0], y2[0], k2[0], x2[1], y2[1], k2[1], xs[1], ys[1],
                 ks[1]});
    Var outer_par = cand.has_batch
                        ? sch.fuse({loops[0], x2[0], y2[0]})
                        : sch.fuse({x2[0], y2[0]});
    sch.parallel(outer_par);

    // Keep the accumulator tile register/cache resident per core.
    std::string acc_copy = sch.cacheWrite(cand.block, "local");
    sch.reverseComputeAt(acc_copy, outer_par);

    sch.decomposeReduction(cand.block, k2[0]);

    if (options.use_shared_staging) {
        // Cache-resident tiles of both operands per L2 tile.
        std::string a_l = sch.cacheRead(
            cand.block, readIndexOf(sch, cand.block, rb.a_fused),
            "local");
        sch.computeAt(a_l, k2[0]);
        std::string b_l = sch.cacheRead(
            cand.block, readIndexOf(sch, cand.block, rb.b_fused),
            "local");
        sch.computeAt(b_l, k2[0]);
        if (options.vectorize_copies) {
            for (const std::string& copy : {a_l, b_l}) {
                Var fused = sch.fuse(ownLoops(sch, copy));
                int64_t vec = sch.sampleCategorical({4, 8, 16}, {});
                if (sch.loopExtent(fused) % vec == 0) {
                    std::vector<Var> parts = sch.split(fused, {-1, vec});
                    sch.vectorize(parts[1]);
                }
            }
        }
    }

    std::string outer = sch.blockize(xs[1]);
    sch.tensorize(outer, cand.intrin);
    sch.unroll(k2[1]);

    scheduleRemainingBlocks(sch, /*gpu=*/false);
    sch.validateAffineBindings();
}

void
applyCpuLoopSketch(Schedule& sch, const std::string& einsum_block)
{
    BlockPtr block = sch.getBlock(einsum_block);
    std::vector<Var> loops = sch.getLoops(einsum_block);
    size_t spatial_count = 0;
    for (const IterVar& iv : block->iter_vars) {
        if (iv.type == IterType::kSpatial) ++spatial_count;
    }
    std::vector<Var> spatial(loops.begin(), loops.begin() + spatial_count);
    std::vector<Var> reduce(loops.begin() + spatial_count, loops.end());

    Var fs = sch.fuse(spatial);
    int64_t vec = sch.sampleCategorical({4, 8, 16}, {});
    int64_t extent = sch.loopExtent(fs);
    if (extent % vec != 0) vec = 1;
    std::vector<Var> parts = sch.split(fs, {-1, vec});
    sch.parallel(parts[0]);

    // Register-resident accumulation per parallel chunk.
    std::string acc_copy = sch.cacheWrite(einsum_block, "local");
    sch.reverseComputeAt(acc_copy, parts[0]);

    if (!reduce.empty()) {
        Var rf = sch.fuse(reduce);
        std::vector<int64_t> rt = sch.samplePerfectTile(rf, 2, 16);
        std::vector<Var> r2 = sch.split(rf, rt);
        sch.reorder({r2[0], r2[1], parts[1]});
        // Cache-resident input tiles at the outer reduction level.
        BlockPtr blk = sch.getBlock(einsum_block);
        std::vector<Buffer> inputs;
        for (const BufferRegion& r : blk->reads) {
            if (r.buffer->scope == "global") inputs.push_back(r.buffer);
        }
        for (const Buffer& input : inputs) {
            int idx = readIndexOf(sch, einsum_block, input);
            std::string copy = sch.cacheRead(einsum_block, idx, "local");
            sch.computeAt(copy, r2[0]);
        }
    }
    if (vec > 1) sch.vectorize(parts[1]);

    scheduleRemainingBlocks(sch, /*gpu=*/false);
    sch.validateAffineBindings();
}

} // namespace meta
} // namespace tir
