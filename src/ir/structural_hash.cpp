#include "ir/structural_hash.h"

#include <unordered_map>

namespace tir {

namespace {

/** FNV-1a style combiner. */
uint64_t
combine(uint64_t seed, uint64_t value)
{
    seed ^= value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
    return seed;
}

/** Hashes with de-Bruijn-style variable/buffer numbering. */
class Hasher
{
  public:
    uint64_t
    hashExpr(const Expr& e)
    {
        uint64_t h = combine(0x45d9f3b, static_cast<uint64_t>(e->kind));
        h = combine(h, static_cast<uint64_t>(e->dtype.code()));
        h = combine(h, static_cast<uint64_t>(e->dtype.bits()));
        switch (e->kind) {
          case ExprKind::kIntImm:
            return combine(h, static_cast<uint64_t>(
                                  static_cast<const IntImmNode&>(*e)
                                      .value));
          case ExprKind::kFloatImm: {
            double v = static_cast<const FloatImmNode&>(*e).value;
            uint64_t bits;
            static_assert(sizeof(bits) == sizeof(v));
            __builtin_memcpy(&bits, &v, sizeof(bits));
            return combine(h, bits);
          }
          case ExprKind::kStringImm: {
            const std::string& s =
                static_cast<const StringImmNode&>(*e).value;
            for (char c : s) h = combine(h, static_cast<uint64_t>(c));
            return h;
          }
          case ExprKind::kVar:
            return combine(
                h, varId(static_cast<const VarNode*>(e.get())));
          case ExprKind::kNot:
            return combine(h,
                           hashExpr(static_cast<const NotNode&>(*e).a));
          case ExprKind::kSelect: {
            const auto& n = static_cast<const SelectNode&>(*e);
            h = combine(h, hashExpr(n.cond));
            h = combine(h, hashExpr(n.tval));
            return combine(h, hashExpr(n.fval));
          }
          case ExprKind::kCast:
            return combine(
                h, hashExpr(static_cast<const CastNode&>(*e).value));
          case ExprKind::kBufferLoad: {
            const auto& n = static_cast<const BufferLoadNode&>(*e);
            h = combine(h, bufferId(n.buffer));
            for (const Expr& idx : n.indices) {
                h = combine(h, hashExpr(idx));
            }
            return h;
          }
          case ExprKind::kBufferPtr: {
            const auto& n = static_cast<const BufferPtrNode&>(*e);
            h = combine(h, bufferId(n.buffer));
            for (const Expr& idx : n.indices) {
                h = combine(h, hashExpr(idx));
            }
            return h;
          }
          case ExprKind::kCall: {
            const auto& n = static_cast<const CallNode&>(*e);
            for (char c : n.op) h = combine(h, static_cast<uint64_t>(c));
            for (const Expr& arg : n.args) {
                h = combine(h, hashExpr(arg));
            }
            return h;
          }
          default: {
            const auto& n = static_cast<const BinaryNode&>(*e);
            h = combine(h, hashExpr(n.a));
            return combine(h, hashExpr(n.b));
          }
        }
    }

    uint64_t
    hashStmt(const Stmt& s)
    {
        uint64_t h = combine(0x2545F491,
                             static_cast<uint64_t>(s->kind));
        switch (s->kind) {
          case StmtKind::kBufferStore: {
            const auto& n = static_cast<const BufferStoreNode&>(*s);
            h = combine(h, bufferId(n.buffer));
            h = combine(h, hashExpr(n.value));
            for (const Expr& idx : n.indices) {
                h = combine(h, hashExpr(idx));
            }
            return h;
          }
          case StmtKind::kEvaluate:
            return combine(
                h, hashExpr(static_cast<const EvaluateNode&>(*s).value));
          case StmtKind::kSeq: {
            for (const Stmt& sub :
                 static_cast<const SeqStmtNode&>(*s).seq) {
                h = combine(h, hashStmt(sub));
            }
            return h;
          }
          case StmtKind::kIfThenElse: {
            const auto& n = static_cast<const IfThenElseNode&>(*s);
            h = combine(h, hashExpr(n.cond));
            h = combine(h, hashStmt(n.then_case));
            if (n.else_case) h = combine(h, hashStmt(n.else_case));
            return h;
          }
          case StmtKind::kFor: {
            const auto& n = static_cast<const ForNode&>(*s);
            h = combine(h, static_cast<uint64_t>(n.for_kind));
            for (char c : n.thread_tag) {
                h = combine(h, static_cast<uint64_t>(c));
            }
            defineVar(n.loop_var.get());
            h = combine(h, hashExpr(n.min));
            h = combine(h, hashExpr(n.extent));
            return combine(h, hashStmt(n.body));
          }
          case StmtKind::kBlock:
            return combine(
                h, hashBlock(static_cast<const BlockNode&>(*s)));
          case StmtKind::kBlockRealize: {
            const auto& n = static_cast<const BlockRealizeNode&>(*s);
            // Define block iterators before hashing bindings so the
            // ordering matches comparison semantics.
            for (const IterVar& iv : n.block->iter_vars) {
                defineVar(iv.var.get());
            }
            for (const Expr& v : n.iter_values) {
                h = combine(h, hashExpr(v));
            }
            h = combine(h, hashExpr(n.predicate));
            return combine(h, hashBlock(*n.block));
          }
        }
        TIR_PANIC << "unreachable stmt kind";
    }

    uint64_t
    hashBlock(const BlockNode& block)
    {
        uint64_t h = 0x1000193;
        for (const IterVar& iv : block.iter_vars) {
            defineVar(iv.var.get());
            h = combine(h, static_cast<uint64_t>(iv.type));
            h = combine(h, hashExpr(iv.dom.min));
            h = combine(h, hashExpr(iv.dom.extent));
        }
        auto hash_regions = [&](const std::vector<BufferRegion>& regions) {
            for (const BufferRegion& br : regions) {
                h = combine(h, bufferId(br.buffer));
                for (const Range& r : br.region) {
                    h = combine(h, hashExpr(r.min));
                    h = combine(h, hashExpr(r.extent));
                }
            }
        };
        hash_regions(block.reads);
        hash_regions(block.writes);
        for (const Buffer& alloc : block.alloc_buffers) {
            h = combine(h, bufferId(alloc));
        }
        if (block.init) h = combine(h, hashStmt(block.init));
        return combine(h, hashStmt(block.body));
    }

    uint64_t
    bufferId(const Buffer& buffer)
    {
        auto it = buffer_ids_.find(buffer.get());
        uint64_t id;
        if (it != buffer_ids_.end()) {
            id = it->second;
        } else {
            id = buffer_ids_.size();
            buffer_ids_[buffer.get()] = id;
        }
        uint64_t h = combine(0x811c9dc5, id);
        h = combine(h, static_cast<uint64_t>(buffer->dtype.code()));
        h = combine(h, static_cast<uint64_t>(buffer->dtype.bits()));
        for (const Expr& dim : buffer->shape) {
            h = combine(h, static_cast<uint64_t>(constIntOr(dim, -1)));
        }
        for (char c : buffer->scope) {
            h = combine(h, static_cast<uint64_t>(c));
        }
        return h;
    }

    void
    defineVar(const VarNode* v)
    {
        if (!var_ids_.count(v)) var_ids_[v] = var_ids_.size();
    }

    uint64_t
    varId(const VarNode* v)
    {
        defineVar(v); // free vars get ids in first-use order
        return var_ids_[v];
    }

  private:
    std::unordered_map<const VarNode*, uint64_t> var_ids_;
    std::unordered_map<const BufferNode*, uint64_t> buffer_ids_;
};

} // namespace

uint64_t
structuralHash(const Expr& expr)
{
    Hasher hasher;
    return hasher.hashExpr(expr);
}

uint64_t
structuralHash(const Stmt& stmt)
{
    Hasher hasher;
    return hasher.hashStmt(stmt);
}

uint64_t
structuralHash(const PrimFunc& func)
{
    if (func->hash_ready_.load(std::memory_order_acquire)) {
        return func->hash_.load(std::memory_order_relaxed);
    }
    Hasher hasher;
    uint64_t h = 0x6a09e667;
    for (const Buffer& param : func->params) {
        h = combine(h, hasher.bufferId(param));
    }
    h = combine(h, hasher.hashStmt(func->body));
    func->hash_.store(h, std::memory_order_relaxed);
    func->hash_ready_.store(true, std::memory_order_release);
    return h;
}

} // namespace tir
