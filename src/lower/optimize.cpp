/**
 * @file
 * Analysis-driven optimization passes over lowered TensorIR. Both
 * passes are thin: the dataflow framework (tir/analysis/dataflow.h)
 * decides *what* is removable — redundant barriers by greedy elision
 * over barrierLoadBearing verdicts, dead stores by may-observe
 * liveness — and this file only performs the mechanical rewrite,
 * mapping analysis results back onto AST nodes through the statement
 * pointers the access extractor records. Correctness is pinned by the
 * engine differential parity suite (tests/test_dataflow.cpp):
 * optimized and unoptimized lowerings must agree bit-exactly.
 */
#include "lower/lower.h"

#include <set>

#include "ir/transform.h"
#include "support/trace.h"
#include "tir/analysis/dataflow.h"

namespace tir {

namespace {

/** Rebuild a statement tree with a set of statements removed, pruning
 *  loops and sequences left empty. Returns null when the whole subtree
 *  vanishes; returns the original node when nothing underneath
 *  changed (structural sharing keeps rewrites cheap). */
class StmtStripper
{
  public:
    explicit StmtStripper(std::set<const StmtNode*> kill)
        : kill_(std::move(kill))
    {}

    int removed = 0;

    Stmt
    strip(const Stmt& s)
    {
        if (kill_.count(s.get())) {
            ++removed;
            return Stmt();
        }
        switch (s->kind) {
          case StmtKind::kSeq: {
            const auto& n = static_cast<const SeqStmtNode&>(*s);
            std::vector<Stmt> parts;
            parts.reserve(n.seq.size());
            bool changed = false;
            for (const Stmt& sub : n.seq) {
                Stmt rewritten = strip(sub);
                if (rewritten.get() != sub.get()) changed = true;
                if (rewritten) parts.push_back(std::move(rewritten));
            }
            if (!changed) return s;
            if (parts.empty()) return Stmt();
            return seq(std::move(parts));
          }
          case StmtKind::kFor: {
            const auto& n = static_cast<const ForNode&>(*s);
            Stmt body = strip(n.body);
            if (body.get() == n.body.get()) return s;
            // A loop whose body vanished has no effects left at all:
            // the removed statements were its only contents.
            if (!body) return Stmt();
            return makeFor(n.loop_var, n.min, n.extent, std::move(body),
                           n.for_kind, n.thread_tag, n.annotations);
          }
          case StmtKind::kIfThenElse: {
            const auto& n = static_cast<const IfThenElseNode&>(*s);
            Stmt then_case = strip(n.then_case);
            Stmt else_case =
                n.else_case ? strip(n.else_case) : Stmt();
            if (then_case.get() == n.then_case.get() &&
                else_case.get() == n.else_case.get()) {
                return s;
            }
            if (!then_case && !else_case) return Stmt();
            // IfThenElse requires a then branch; when only the else
            // survives, invert the condition instead of inventing a
            // placeholder statement (no engine-neutral no-op exists
            // besides storage_sync, which would perturb analysis).
            if (!then_case) {
                return ifThenElse(notExpr(n.cond),
                                  std::move(else_case));
            }
            return ifThenElse(n.cond, std::move(then_case),
                              std::move(else_case));
          }
          default:
            return s;
        }
    }

  private:
    std::set<const StmtNode*> kill_;
};

/** Apply one strip round; returns the input function unchanged when
 *  the kill set is empty or nothing matched. */
PrimFunc
stripStmts(const PrimFunc& func, std::set<const StmtNode*> kill,
           int* removed)
{
    *removed = 0;
    if (kill.empty()) return func;
    StmtStripper stripper(std::move(kill));
    Stmt body = stripper.strip(func->body);
    *removed = stripper.removed;
    if (stripper.removed == 0) return func;
    // A function whose whole body was stripped computes nothing; keep
    // one storage_sync — the statement both engines (interpreter, JIT
    // codegen) execute as a no-op — as the body placeholder.
    if (!body) body = storageSync();
    return makeFunc(func->name, func->params, std::move(body),
                    func->attrs);
}

} // namespace

PrimFunc
elideRedundantSync(const PrimFunc& lowered, LowerStats* stats)
{
    TIR_CHECK(isBlockFree(lowered->body))
        << "elideRedundantSync expects a lowered (block-free) function";
    trace::Span span("lower.elide_redundant_sync",
                     trace::arg("func", lowered->name));
    analysis::DataflowInfo info = analysis::computeDataflow(lowered);
    if (info.truncated) return lowered;
    std::set<const StmtNode*> kill;
    for (const analysis::SyncDataflow& sync : info.syncs) {
        if (sync.elidable && sync.site->stmt) {
            kill.insert(sync.site->stmt);
        }
    }
    int removed = 0;
    PrimFunc result = stripStmts(lowered, std::move(kill), &removed);
    if (removed > 0) {
        trace::counterAdd("lower.syncs_elided", removed);
        if (stats) stats->syncs_elided += removed;
    }
    return result;
}

PrimFunc
eliminateDeadStores(const PrimFunc& lowered, LowerStats* stats)
{
    TIR_CHECK(isBlockFree(lowered->body))
        << "eliminateDeadStores expects a lowered (block-free) function";
    trace::Span span("lower.eliminate_dead_stores",
                     trace::arg("func", lowered->name));
    // Fixpoint: removing a store also removes the loads feeding it,
    // which can kill the stores those loads were keeping alive
    // (staging-copy chains die back-to-front). Bounded — each round
    // removes at least one statement or stops.
    constexpr int kMaxRounds = 8;
    PrimFunc func = lowered;
    for (int round = 0; round < kMaxRounds; ++round) {
        analysis::DataflowInfo info = analysis::computeDataflow(func);
        if (info.truncated) break;
        std::set<const StmtNode*> kill;
        for (const analysis::AccessSite* d : info.dead_stores) {
            if (d->stmt) kill.insert(d->stmt);
        }
        int removed = 0;
        func = stripStmts(func, std::move(kill), &removed);
        if (removed == 0) break;
        trace::counterAdd("lower.stores_eliminated", removed);
        if (stats) stats->stores_eliminated += removed;
    }
    return func;
}

PrimFunc
lowerWithOptions(const PrimFunc& func, const LowerOptions& options,
                 LowerStats* stats)
{
    PrimFunc lowered =
        isBlockFree(func->body) ? func : lowerToLoops(func);
    if (options.insert_storage_sync) {
        lowered = insertStorageSync(lowered);
    }
    if (options.elide_redundant_sync) {
        lowered = elideRedundantSync(lowered, stats);
    }
    if (options.eliminate_dead_stores) {
        lowered = eliminateDeadStores(lowered, stats);
    }
    return lowered;
}

} // namespace tir
