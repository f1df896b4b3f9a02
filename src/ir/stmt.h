/**
 * @file
 * TensorIR statement AST: loop nests, blocks (the paper's key abstraction),
 * block realizations, functions and modules.
 */
#ifndef TENSORIR_IR_STMT_H
#define TENSORIR_IR_STMT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "ir/expr.h"

namespace tir {

/** Half-open integer range [min, min + extent). */
struct Range
{
    Expr min;
    Expr extent;

    Range() = default;
    Range(Expr m, Expr e) : min(std::move(m)), extent(std::move(e)) {}
    /** Convenience: [0, extent). */
    static Range fromExtent(int64_t extent)
    {
        return {intImm(0), intImm(extent)};
    }
};

/** A rectangular sub-region of a buffer (one Range per dimension). */
struct BufferRegion
{
    Buffer buffer;
    std::vector<Range> region;

    BufferRegion() = default;
    BufferRegion(Buffer b, std::vector<Range> r)
        : buffer(std::move(b)), region(std::move(r))
    {}
    /** Region covering the whole buffer. */
    static BufferRegion full(const Buffer& b);
};

/** Classification of a block iterator (the paper's spatial/reduce axes). */
enum class IterType : uint8_t { kSpatial, kReduce, kOpaque };

/** A block iterator variable with its domain and classification. */
struct IterVar
{
    Var var;
    Range dom;
    IterType type = IterType::kSpatial;

    IterVar() = default;
    IterVar(Var v, Range d, IterType t)
        : var(std::move(v)), dom(std::move(d)), type(t)
    {}
};

/** Discriminator for every statement node. */
enum class StmtKind : uint8_t {
    kBufferStore,
    kEvaluate,
    kSeq,
    kIfThenElse,
    kFor,
    kBlock,
    kBlockRealize,
};

class StmtNode;
/** Shared immutable statement handle. */
using Stmt = std::shared_ptr<const StmtNode>;

/** Base class of all statement nodes. */
class StmtNode
{
  public:
    const StmtKind kind;
    virtual ~StmtNode() = default;

  protected:
    explicit StmtNode(StmtKind k) : kind(k) {}
};

/** Scalar store into a multi-dimensional buffer. */
class BufferStoreNode : public StmtNode
{
  public:
    const Buffer buffer;
    const Expr value;
    const std::vector<Expr> indices;
    BufferStoreNode(Buffer buf, Expr val, std::vector<Expr> idx)
        : StmtNode(StmtKind::kBufferStore), buffer(std::move(buf)),
          value(std::move(val)), indices(std::move(idx))
    {}
};

/** Evaluate an expression for side effects (opaque intrinsic calls). */
class EvaluateNode : public StmtNode
{
  public:
    const Expr value;
    explicit EvaluateNode(Expr v)
        : StmtNode(StmtKind::kEvaluate), value(std::move(v))
    {}
};

/** Sequence of statements executed in order. */
class SeqStmtNode : public StmtNode
{
  public:
    const std::vector<Stmt> seq;
    explicit SeqStmtNode(std::vector<Stmt> s)
        : StmtNode(StmtKind::kSeq), seq(std::move(s))
    {}
};

/** Conditional; else_case may be null. */
class IfThenElseNode : public StmtNode
{
  public:
    const Expr cond;
    const Stmt then_case;
    const Stmt else_case;
    IfThenElseNode(Expr c, Stmt t, Stmt e)
        : StmtNode(StmtKind::kIfThenElse), cond(std::move(c)),
          then_case(std::move(t)), else_case(std::move(e))
    {}
};

/** Execution strategy of a For loop. */
enum class ForKind : uint8_t {
    kSerial,
    kParallel,
    kVectorized,
    kUnrolled,
    kThreadBinding,
};

/** A single loop over [min, min + extent). */
class ForNode : public StmtNode
{
  public:
    const Var loop_var;
    const Expr min;
    const Expr extent;
    const ForKind for_kind;
    /** Thread axis tag for kThreadBinding, e.g. "blockIdx.x". */
    const std::string thread_tag;
    const std::map<std::string, Expr> annotations;
    const Stmt body;

    ForNode(Var v, Expr mn, Expr ext, ForKind fk, Stmt b,
            std::string tag = "", std::map<std::string, Expr> ann = {})
        : StmtNode(StmtKind::kFor), loop_var(std::move(v)),
          min(std::move(mn)), extent(std::move(ext)), for_kind(fk),
          thread_tag(std::move(tag)), annotations(std::move(ann)),
          body(std::move(b))
    {}
};

class BlockNode;
/** Shared handle to a block node. */
using BlockPtr = std::shared_ptr<const BlockNode>;

/**
 * The paper's central abstraction: a block isolates a (possibly tensorized)
 * computation on buffer sub-regions behind a signature of iterator domains
 * and read/write regions. Outer transformations rely solely on this
 * signature and never inspect the body.
 */
class BlockNode : public StmtNode
{
  public:
    const std::string name;
    /** Block iterator variables with domains and spatial/reduce types. */
    const std::vector<IterVar> iter_vars;
    /** Regions read by one block instance (part of the signature). */
    const std::vector<BufferRegion> reads;
    /** Regions written by one block instance (part of the signature). */
    const std::vector<BufferRegion> writes;
    /** Optional reduction-initialization statement. */
    const Stmt init;
    const Stmt body;
    /** Buffers whose lifetime is scoped to this block. */
    const std::vector<Buffer> alloc_buffers;
    const std::map<std::string, Expr> annotations;

    BlockNode(std::string n, std::vector<IterVar> iters,
              std::vector<BufferRegion> r, std::vector<BufferRegion> w,
              Stmt ini, Stmt b, std::vector<Buffer> allocs = {},
              std::map<std::string, Expr> ann = {})
        : StmtNode(StmtKind::kBlock), name(std::move(n)),
          iter_vars(std::move(iters)), reads(std::move(r)),
          writes(std::move(w)), init(std::move(ini)), body(std::move(b)),
          alloc_buffers(std::move(allocs)), annotations(std::move(ann))
    {}
};

/**
 * Binds the iterators of a block to values of the surrounding loop vars
 * (the paper's "binding values"), optionally guarded by a predicate.
 */
class BlockRealizeNode : public StmtNode
{
  public:
    const std::vector<Expr> iter_values;
    const Expr predicate;
    const BlockPtr block;

    BlockRealizeNode(std::vector<Expr> values, Expr pred, BlockPtr blk)
        : StmtNode(StmtKind::kBlockRealize), iter_values(std::move(values)),
          predicate(std::move(pred)), block(std::move(blk))
    {
        TIR_ICHECK(block->iter_vars.size() == iter_values.size())
            << "block " << block->name << " expects "
            << block->iter_vars.size() << " bindings, got "
            << iter_values.size();
    }
};

class PrimFuncNode;
/** Shared function handle. */
using PrimFunc = std::shared_ptr<const PrimFuncNode>;

/** A schedulable function: parameters (buffers) plus a root block body. */
class PrimFuncNode
{
  public:
    const std::string name;
    const std::vector<Buffer> params;
    const Stmt body;
    const std::map<std::string, Expr> attrs;

    PrimFuncNode(std::string n, std::vector<Buffer> p, Stmt b,
                 std::map<std::string, Expr> a = {})
        : name(std::move(n)), params(std::move(p)), body(std::move(b)),
          attrs(std::move(a))
    {}

  private:
    friend uint64_t structuralHash(const PrimFunc& func);

    /** Memo of structuralHash(*this), valid once `hash_ready_` is set
     *  (release store after the value, acquire load before reading
     *  it). Every field above is const, so the hash never goes stale;
     *  concurrent first calls may each compute it and store the same
     *  value. The atomics also make the node non-copyable, so no copy
     *  can carry a memo over. */
    mutable std::atomic<uint64_t> hash_{0};
    mutable std::atomic<bool> hash_ready_{false};
};
static_assert(!std::is_copy_constructible_v<PrimFuncNode>,
              "a copied PrimFuncNode would inherit its structural-hash "
              "memo");

/** A collection of PrimFuncs keyed by name. */
class IRModule
{
  public:
    IRModule() = default;
    explicit IRModule(std::map<std::string, PrimFunc> funcs)
        : functions_(std::move(funcs))
    {}

    const std::map<std::string, PrimFunc>& functions() const
    {
        return functions_;
    }
    PrimFunc
    lookup(const std::string& name) const
    {
        auto it = functions_.find(name);
        TIR_CHECK(it != functions_.end()) << "no function named " << name;
        return it->second;
    }
    void update(const PrimFunc& func) { functions_[func->name] = func; }

  private:
    std::map<std::string, PrimFunc> functions_;
};

// --- Constructors -----------------------------------------------------

Stmt bufferStore(Buffer buffer, Expr value, std::vector<Expr> indices);
Stmt evaluate(Expr value);
/** Sequence; flattens nested SeqStmt and collapses singletons. */
Stmt seq(std::vector<Stmt> stmts);
Stmt ifThenElse(Expr cond, Stmt then_case, Stmt else_case = nullptr);
Stmt makeFor(Var loop_var, Expr min, Expr extent, Stmt body,
             ForKind kind = ForKind::kSerial, std::string thread_tag = "",
             std::map<std::string, Expr> annotations = {});
BlockPtr makeBlock(std::string name, std::vector<IterVar> iter_vars,
                   std::vector<BufferRegion> reads,
                   std::vector<BufferRegion> writes, Stmt body,
                   Stmt init = nullptr, std::vector<Buffer> allocs = {},
                   std::map<std::string, Expr> annotations = {});
Stmt blockRealize(std::vector<Expr> iter_values, Expr predicate,
                  BlockPtr block);
PrimFunc makeFunc(std::string name, std::vector<Buffer> params, Stmt body,
                  std::map<std::string, Expr> attrs = {});

/** Wrap `body` in the canonical argument-less root block + realize. */
Stmt makeRootBlock(Stmt body, std::vector<Buffer> allocs = {});

/** Intrinsic name of the cross-thread storage barrier (CUDA's
 *  __syncthreads analogue). Represented as Evaluate(Call(handle,
 *  kStorageSyncOp, {StringImm(scope)})); a no-op on the sequential
 *  interpreter but load-bearing for the static race analysis. */
inline constexpr const char kStorageSyncOp[] = "tir.storage_sync";

/** Barrier statement synchronizing all threads of a launch on the
 *  given storage scope. */
Stmt storageSync(std::string scope = "shared");

/** The synchronized scope when `stmt` is a storage-sync barrier,
 *  std::nullopt otherwise. */
std::optional<std::string> asStorageSync(const StmtNode& stmt);

/** The Block of a statement that must be a BlockRealize. */
const BlockNode* asBlockRealize(const Stmt& stmt, std::vector<Expr>* values =
                                nullptr);

} // namespace tir

#endif // TENSORIR_IR_STMT_H
