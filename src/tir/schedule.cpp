#include "tir/schedule.h"

#include <algorithm>

#include "arith/iter_map.h"
#include "ir/functor.h"
#include "ir/printer.h"
#include "ir/transform.h"
#include "tir/analysis/analysis.h"

namespace tir {

Schedule::Schedule(PrimFunc func, uint64_t seed)
    : func_(std::move(func)), rng_(seed)
{
    TIR_CHECK(func_) << "null function";
}

namespace {

/** Recursive site search tracking enclosing loops and parent block. */
struct SiteFinder
{
    static bool
    find(const Stmt& stmt, const std::string& name,
         std::vector<Stmt>& loop_stack, const BlockNode* parent,
         Schedule::BlockSite* out)
    {
        switch (stmt->kind) {
          case StmtKind::kSeq: {
            for (const Stmt& s :
                 static_cast<const SeqStmtNode&>(*stmt).seq) {
                size_t depth = loop_stack.size();
                if (find(s, name, loop_stack, parent, out)) return true;
                loop_stack.resize(depth);
            }
            return false;
          }
          case StmtKind::kFor: {
            const auto& n = static_cast<const ForNode&>(*stmt);
            loop_stack.push_back(stmt);
            if (find(n.body, name, loop_stack, parent, out)) return true;
            loop_stack.pop_back();
            return false;
          }
          case StmtKind::kIfThenElse: {
            const auto& n = static_cast<const IfThenElseNode&>(*stmt);
            size_t depth = loop_stack.size();
            if (find(n.then_case, name, loop_stack, parent, out)) {
                return true;
            }
            loop_stack.resize(depth);
            if (n.else_case &&
                find(n.else_case, name, loop_stack, parent, out)) {
                return true;
            }
            loop_stack.resize(depth);
            return false;
          }
          case StmtKind::kBlockRealize: {
            const auto& n = static_cast<const BlockRealizeNode&>(*stmt);
            if (n.block->name == name) {
                out->realize = stmt;
                out->loops = loop_stack;
                out->parent = parent;
                return true;
            }
            std::vector<Stmt> inner_stack;
            if (n.block->init &&
                find(n.block->init, name, inner_stack, n.block.get(),
                     out)) {
                return true;
            }
            inner_stack.clear();
            return find(n.block->body, name, inner_stack, n.block.get(),
                        out);
          }
          default:
            return false;
        }
    }
};

} // namespace

Schedule::BlockSite
Schedule::findSite(const std::string& block) const
{
    BlockSite site;
    std::vector<Stmt> stack;
    TIR_CHECK(SiteFinder::find(func_->body, block, stack, nullptr,
                                    &site))
        << "no block named '" << block << "' in " << func_->name;
    return site;
}

bool
Schedule::hasBlock(const std::string& block) const
{
    BlockSite site;
    std::vector<Stmt> stack;
    return SiteFinder::find(func_->body, block, stack, nullptr,
                                 &site);
}

BlockPtr
Schedule::getBlock(const std::string& block) const
{
    BlockSite site = findSite(block);
    return static_cast<const BlockRealizeNode&>(*site.realize).block;
}

std::vector<Var>
Schedule::getLoops(const std::string& block) const
{
    BlockSite site = findSite(block);
    std::vector<Var> result;
    result.reserve(site.loops.size());
    for (const Stmt& loop : site.loops) {
        result.push_back(static_cast<const ForNode&>(*loop).loop_var);
    }
    return result;
}

int64_t
Schedule::loopExtent(const Var& loop) const
{
    const ForNode* node = findLoop(loop);
    int64_t extent = constIntOr(node->extent, -1);
    TIR_CHECK(extent >= 0) << "loop " << loop->name
                           << " has symbolic extent";
    return extent;
}

std::vector<std::string>
Schedule::blockNames() const
{
    std::vector<std::string> names;
    for (const BlockPtr& block : collectBlocks(func_->body)) {
        if (block->name != "root") names.push_back(block->name);
    }
    return names;
}

namespace {

/** The loop over `var`, or null. Walks statements only (no expression
 *  holds a loop) and stops at the first match. */
const ForNode*
findLoopIn(const Stmt& stmt, const VarNode* var)
{
    switch (stmt->kind) {
      case StmtKind::kSeq:
        for (const Stmt& s : static_cast<const SeqStmtNode&>(*stmt).seq) {
            if (const ForNode* f = findLoopIn(s, var)) return f;
        }
        return nullptr;
      case StmtKind::kFor: {
        const auto& n = static_cast<const ForNode&>(*stmt);
        if (n.loop_var.get() == var) return &n;
        return findLoopIn(n.body, var);
      }
      case StmtKind::kIfThenElse: {
        const auto& n = static_cast<const IfThenElseNode&>(*stmt);
        if (const ForNode* f = findLoopIn(n.then_case, var)) return f;
        return n.else_case ? findLoopIn(n.else_case, var) : nullptr;
      }
      case StmtKind::kBlock: {
        const auto& n = static_cast<const BlockNode&>(*stmt);
        if (n.init) {
            if (const ForNode* f = findLoopIn(n.init, var)) return f;
        }
        return findLoopIn(n.body, var);
      }
      case StmtKind::kBlockRealize:
        return findLoopIn(static_cast<const BlockRealizeNode&>(*stmt).block,
                          var);
      default:
        return nullptr;
    }
}

} // namespace

const ForNode*
Schedule::findLoop(const Var& loop) const
{
    const ForNode* found = findLoopIn(func_->body, loop.get());
    TIR_CHECK(found) << "no loop with var '" << loop->name << "'";
    return found;
}

namespace {

/** Replaces (or erases, when replacement is null) one subtree. Walks
 *  statements only: no expression can hold a statement, so every
 *  expression is kept as it is. */
class NodeReplacer : public StmtExprMutator
{
  public:
    NodeReplacer(const StmtNode* target, Stmt replacement)
        : target_(target), replacement_(std::move(replacement))
    {}

    bool hit() const { return hit_; }

    Stmt
    mutateStmt(const Stmt& s) override
    {
        if (s.get() == target_) {
            hit_ = true;
            return replacement_;
        }
        return StmtExprMutator::mutateStmt(s);
    }

    Expr mutateExpr(const Expr& e) override { return e; }

  protected:
    Stmt mutateBufferStore(const Stmt& s) override { return s; }

    Stmt
    mutateFor(const Stmt& s) override
    {
        const auto& n = static_cast<const ForNode&>(*s);
        Stmt body = mutateStmt(n.body);
        if (!body) return nullptr; // erased subtree swallows the loop
        if (body == n.body) return s;
        return makeFor(n.loop_var, n.min, n.extent, body, n.for_kind,
                       n.thread_tag, n.annotations);
    }

    BlockPtr
    mutateBlockNode(const BlockPtr& block) override
    {
        const BlockNode& n = *block;
        Stmt init = n.init ? mutateStmt(n.init) : nullptr;
        Stmt body = mutateStmt(n.body);
        if (init == n.init && body == n.body) return block;
        return makeBlock(n.name, n.iter_vars, n.reads, n.writes, body, init,
                         n.alloc_buffers, n.annotations);
    }

    Stmt
    mutateBlockRealize(const Stmt& s) override
    {
        const auto& n = static_cast<const BlockRealizeNode&>(*s);
        BlockPtr block = mutateBlockNode(n.block);
        if (block == n.block) return s;
        return blockRealize(n.iter_values, n.predicate, block);
    }

  private:
    const StmtNode* target_;
    Stmt replacement_;
    bool hit_ = false;
};

} // namespace

void
Schedule::replaceNode(const StmtNode* target, Stmt replacement)
{
    NodeReplacer replacer(target, std::move(replacement));
    Stmt body = replacer.mutateStmt(func_->body);
    TIR_ICHECK(replacer.hit()) << "replace target not found in tree";
    TIR_ICHECK(body) << "replacement erased the whole function body";
    func_ = makeFunc(func_->name, func_->params, body, func_->attrs);
}

void
Schedule::eraseNode(const StmtNode* target)
{
    replaceNode(target, nullptr);
}

void
Schedule::adoptFunc(PrimFunc func)
{
    TIR_CHECK(func) << "null function";
    func_ = std::move(func);
}

namespace {

/** Rebuild the function with new root-block allocations. */
PrimFunc
withRootAllocs(const PrimFunc& func, std::vector<Buffer> allocs)
{
    const auto& realize =
        static_cast<const BlockRealizeNode&>(*func->body);
    const BlockNode* root = realize.block.get();
    BlockPtr new_root =
        makeBlock(root->name, root->iter_vars, root->reads, root->writes,
                  root->body, root->init, std::move(allocs),
                  root->annotations);
    Stmt new_body = blockRealize(realize.iter_values, realize.predicate,
                                 new_root);
    return makeFunc(func->name, func->params, new_body, func->attrs);
}

} // namespace

void
Schedule::addRootAlloc(const Buffer& buffer)
{
    const BlockNode* root = asBlockRealize(func_->body);
    std::vector<Buffer> allocs = root->alloc_buffers;
    allocs.push_back(buffer);
    func_ = withRootAllocs(func_, std::move(allocs));
}

void
Schedule::removeRootAlloc(const Buffer& buffer)
{
    const BlockNode* root = asBlockRealize(func_->body);
    std::vector<Buffer> allocs;
    for (const Buffer& b : root->alloc_buffers) {
        if (b != buffer) allocs.push_back(b);
    }
    func_ = withRootAllocs(func_, std::move(allocs));
}

std::string
Schedule::uniqueName(const std::string& base) const
{
    if (!hasBlock(base)) return base;
    for (int i = 1;; ++i) {
        std::string candidate = base + "_" + std::to_string(i);
        if (!hasBlock(candidate)) return candidate;
    }
}

arith::Analyzer
Schedule::analyzerAt(const BlockSite& site) const
{
    arith::Analyzer analyzer;
    for (const Stmt& loop : site.loops) {
        const auto& n = static_cast<const ForNode&>(*loop);
        analyzer.bind(n.loop_var, Range(n.min, n.extent));
    }
    return analyzer;
}

// --- Sampling ---------------------------------------------------------

namespace {

std::vector<int64_t>
divisorsOf(int64_t n)
{
    std::vector<int64_t> result;
    for (int64_t d = 1; d * d <= n; ++d) {
        if (n % d == 0) {
            result.push_back(d);
            if (d != n / d) result.push_back(n / d);
        }
    }
    std::sort(result.begin(), result.end());
    return result;
}

} // namespace

std::vector<int64_t>
Schedule::samplePerfectTile(const Var& loop, int n, int max_innermost)
{
    int64_t extent = loopExtent(loop);
    Decision decision;
    decision.kind = Decision::Kind::kPerfectTile;
    decision.extent = extent;
    decision.number = n;
    decision.max_innermost = max_innermost;

    // Use an override when it matches this sampling site.
    if (override_pos_ < overrides_.size()) {
        const Decision& o = overrides_[override_pos_];
        if (o.kind == decision.kind && o.extent == extent &&
            o.number == n) {
            ++override_pos_;
            decision.values = o.values;
            decisions_.push_back(decision);
            return o.values;
        }
        ++override_pos_; // mismatched trace: fall through to sampling
    }

    std::vector<int64_t> factors(n, 1);
    int64_t remaining = extent;
    // Sample inner factors first, then the outermost takes the rest.
    for (int i = n - 1; i >= 1; --i) {
        std::vector<int64_t> divisors = divisorsOf(remaining);
        if (i == n - 1) {
            std::vector<int64_t> limited;
            for (int64_t d : divisors) {
                if (d <= max_innermost) limited.push_back(d);
            }
            divisors = limited;
        }
        int64_t pick =
            divisors[rng_.randInt(static_cast<int64_t>(divisors.size()))];
        factors[i] = pick;
        remaining /= pick;
    }
    factors[0] = remaining;
    decision.values = factors;
    decisions_.push_back(decision);
    return factors;
}

int64_t
Schedule::sampleCategorical(const std::vector<int64_t>& candidates,
                            const std::vector<double>& probs)
{
    TIR_CHECK(!candidates.empty());
    Decision decision;
    decision.kind = Decision::Kind::kCategorical;
    decision.num_candidates = static_cast<int>(candidates.size());

    if (override_pos_ < overrides_.size()) {
        const Decision& o = overrides_[override_pos_];
        if (o.kind == decision.kind &&
            o.num_candidates == decision.num_candidates &&
            !o.values.empty() &&
            o.values[0] < static_cast<int64_t>(candidates.size())) {
            ++override_pos_;
            decision.values = o.values;
            decisions_.push_back(decision);
            return candidates[static_cast<size_t>(o.values[0])];
        }
        ++override_pos_;
    }

    size_t index = probs.empty()
                       ? static_cast<size_t>(rng_.randInt(
                             static_cast<int64_t>(candidates.size())))
                       : rng_.weightedChoice(probs);
    decision.values = {static_cast<int64_t>(index)};
    decisions_.push_back(decision);
    return candidates[index];
}

void
Schedule::setDecisionOverrides(std::vector<Decision> overrides)
{
    overrides_ = std::move(overrides);
    override_pos_ = 0;
}

// --- Validation -------------------------------------------------------

namespace {

void
validateRec(const Stmt& stmt, arith::DomMap doms)
{
    switch (stmt->kind) {
      case StmtKind::kSeq:
        for (const Stmt& s : static_cast<const SeqStmtNode&>(*stmt).seq) {
            validateRec(s, doms);
        }
        return;
      case StmtKind::kFor: {
        const auto& n = static_cast<const ForNode&>(*stmt);
        doms[n.loop_var.get()] = Range(n.min, n.extent);
        validateRec(n.body, doms);
        return;
      }
      case StmtKind::kIfThenElse: {
        const auto& n = static_cast<const IfThenElseNode&>(*stmt);
        validateRec(n.then_case, doms);
        if (n.else_case) validateRec(n.else_case, doms);
        return;
      }
      case StmtKind::kBlockRealize: {
        const auto& n = static_cast<const BlockRealizeNode&>(*stmt);
        if (!n.block->iter_vars.empty()) {
            arith::BindingValidation result =
                arith::validateBlockBindings(n, doms);
            TIR_CHECK(result.affine)
                << "block '" << n.block->name
                << "' fails loop nest validation: " << result.error;
        }
        // Block iterators join the domain context for nested blocks.
        for (const IterVar& iv : n.block->iter_vars) {
            doms[iv.var.get()] = iv.dom;
        }
        if (n.block->init) validateRec(n.block->init, doms);
        validateRec(n.block->body, doms);
        return;
      }
      default:
        return;
    }
}

} // namespace

void
Schedule::validateAffineBindings() const
{
    validateRec(func_->body, {});
}

void
Schedule::validateMemoryAnalysis() const
{
    analysis::AnalysisReport report = analysis::analyzeFunc(func_);
    TIR_CHECK(report.ok())
        << "schedule of " << func_->name
        << " fails static memory analysis:\n"
        << report.summary();
}

std::string
Schedule::analysisDiagnostics() const
{
    return analysis::analyzeFunc(func_).summary();
}

// --- Annotations & loop kinds -------------------------------------------

namespace {

Stmt
withForKind(const ForNode& n, ForKind kind, const std::string& tag)
{
    return makeFor(n.loop_var, n.min, n.extent, n.body, kind, tag,
                   n.annotations);
}

} // namespace

void
Schedule::bind(const Var& loop, const std::string& thread_tag)
{
    const ForNode* node = findLoop(loop);
    replaceNode(node, withForKind(*node, ForKind::kThreadBinding,
                                  thread_tag));
}

void
Schedule::parallel(const Var& loop)
{
    const ForNode* node = findLoop(loop);
    replaceNode(node, withForKind(*node, ForKind::kParallel, ""));
}

void
Schedule::vectorize(const Var& loop)
{
    const ForNode* node = findLoop(loop);
    replaceNode(node, withForKind(*node, ForKind::kVectorized, ""));
}

void
Schedule::unroll(const Var& loop)
{
    const ForNode* node = findLoop(loop);
    replaceNode(node, withForKind(*node, ForKind::kUnrolled, ""));
}

void
Schedule::annotateBlock(const std::string& block, const std::string& key,
                        Expr value)
{
    BlockSite site = findSite(block);
    const BlockNode* b = asBlockRealize(site.realize);
    std::map<std::string, Expr> annotations = b->annotations;
    annotations[key] = std::move(value);
    BlockPtr updated =
        makeBlock(b->name, b->iter_vars, b->reads, b->writes, b->body,
                  b->init, b->alloc_buffers, std::move(annotations));
    const auto& realize =
        static_cast<const BlockRealizeNode&>(*site.realize);
    replaceNode(site.realize.get(),
                blockRealize(realize.iter_values, realize.predicate,
                             updated));
}

void
Schedule::annotateLoop(const Var& loop, const std::string& key, Expr value)
{
    const ForNode* node = findLoop(loop);
    std::map<std::string, Expr> annotations = node->annotations;
    annotations[key] = std::move(value);
    replaceNode(node,
                makeFor(node->loop_var, node->min, node->extent,
                        node->body, node->for_kind, node->thread_tag,
                        std::move(annotations)));
}

} // namespace tir
