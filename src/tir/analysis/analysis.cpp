#include "tir/analysis/analysis.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "arith/interval.h"
#include "ir/printer.h"
#include "ir/transform.h"
#include "lower/lower.h"
#include "support/trace.h"
#include "tir/analysis/access_extract.h"

namespace tir {
namespace analysis {

namespace {

const char*
kindName(DiagKind kind)
{
    switch (kind) {
      case DiagKind::kWriteRace: return "write-write race";
      case DiagKind::kRawNoSync: return "read-after-write without sync";
      case DiagKind::kOutOfBounds: return "out-of-bounds access";
      case DiagKind::kDivergentSync: return "thread-divergent barrier";
      case DiagKind::kThreadBinding: return "thread-binding violation";
      case DiagKind::kRegionCover: return "region cover violation";
      case DiagKind::kUseBeforeInit: return "use before initialization";
      case DiagKind::kDeadStore: return "dead store";
      case DiagKind::kRedundantSync: return "redundant barrier";
    }
    return "unknown";
}

// --- small proof helpers over the shared analyzer -------------------

/** expr provably <= 0 under the analyzer's variable bounds. */
bool
proveLeq0(const Expr& expr, const arith::Analyzer& analyzer)
{
    return analyzer.evalInterval(analyzer.simplify(expr)).hi <= 0;
}

/** expr provably >= value. */
bool
proveGeq(const Expr& expr, int64_t value,
         const arith::Analyzer& analyzer)
{
    return analyzer.evalInterval(analyzer.simplify(expr)).lo >= value;
}

/** Substitute t := t + 1. */
Expr
shiftByOne(const Expr& expr, const Var& t)
{
    VarMap vmap;
    vmap[t.get()] = Expr(t) + 1;
    return substitute(expr, vmap);
}

/** Substitute t := constant. */
Expr
substConst(const Expr& expr, const Var& t, int64_t value)
{
    VarMap vmap;
    vmap[t.get()] = intImm(value);
    return substitute(expr, vmap);
}

/** Every dimension has interval-expressible bounds. */
bool
boundsKnown(const AccessSite& site)
{
    if (site.opaque) return false;
    for (const arith::SymBound& b : site.bounds) {
        if (!b.lo || !b.hi) return false;
    }
    return true;
}

/** Bounds exact and unconditional: the footprint is touched on every
 *  execution, corner cells included. */
bool
siteExact(const AccessSite& site)
{
    if (site.opaque || site.opaque_guard || !site.guards.empty()) {
        return false;
    }
    for (const arith::SymBound& b : site.bounds) {
        if (!b.lo || !b.hi || !b.exact) return false;
    }
    return true;
}

/** Whether any footprint bound of `site` mentions the axis var. */
bool
footprintUsesAxis(const AccessSite& site, const Var& t)
{
    for (const arith::SymBound& b : site.bounds) {
        if (b.lo && usesVar(b.lo, t.get())) return true;
        if (b.hi && usesVar(b.hi, t.get())) return true;
    }
    return false;
}

/** Coordinate of `t` pinned by an equality guard, if any. */
std::optional<int64_t>
pinnedCoord(const AccessSite& site, const Var& t)
{
    for (const GuardConstraint& g : site.guards) {
        if (g.rel != ExprKind::kEQ) continue;
        int64_t value = 0;
        if (g.lhs.get() == static_cast<const ExprNode*>(t.get()) &&
            isConstInt(g.rhs, &value)) {
            return value;
        }
        if (g.rhs.get() == static_cast<const ExprNode*>(t.get()) &&
            isConstInt(g.lhs, &value)) {
            return value;
        }
    }
    return std::nullopt;
}

/** Buffers loaded anywhere inside an expression. */
void
collectLoadedBuffers(const Expr& expr,
                     std::set<const BufferNode*>* out);

class LoadCollector : public ExprVisitor
{
  public:
    explicit LoadCollector(std::set<const BufferNode*>* out) : out_(out)
    {}

  protected:
    void
    visitBufferLoad(const BufferLoadNode& node) override
    {
        out_->insert(node.buffer.get());
        ExprVisitor::visitBufferLoad(node);
    }

  private:
    std::set<const BufferNode*>* out_;
};

void
collectLoadedBuffers(const Expr& expr, std::set<const BufferNode*>* out)
{
    LoadCollector collector(out);
    collector.visitExpr(expr);
}

/** Render a footprint like `S[0..7, tx..tx]`. */
std::string
renderFootprint(const AccessSite& site,
                const arith::Analyzer& analyzer)
{
    std::string text = site.buffer->name + "[";
    for (size_t d = 0; d < site.bounds.size(); ++d) {
        if (d) text += ", ";
        const arith::SymBound& b = site.bounds[d];
        text += b.lo ? exprToString(analyzer.simplify(b.lo)) : "?";
        text += "..";
        text += b.hi ? exprToString(analyzer.simplify(b.hi)) : "?";
    }
    return text + "]";
}

// --- per-axis race verdicts -----------------------------------------

enum class AxisVerdict : uint8_t { kSafe, kOverlap, kUnknown };

/** Per-launch view the pair checks operate on. */
struct LaunchSites
{
    /** Buffers written anywhere in the launch, with all write sites. */
    std::map<const BufferNode*, std::vector<const AccessSite*>> writes;
};

/**
 * A write is *uniform* along `t` when its footprint and stored value
 * are independent of `t` and the value reads only launch-stable data
 * (buffers not written in the launch, or written purely uniformly).
 * Every coordinate then stores identical bytes — the cooperative-copy
 * pattern where each thread redundantly materializes a whole staged
 * tile.
 */
bool
writeUniform(const AccessSite& site, const Var& t,
             const LaunchSites& launch)
{
    if (site.opaque || !site.is_write || !site.value) return false;
    if (footprintUsesAxis(site, t)) return false;
    if (usesVar(site.value, t.get())) return false;
    for (const Expr& idx : site.indices) {
        if (usesVar(idx, t.get())) return false;
    }
    std::set<const BufferNode*> loaded;
    collectLoadedBuffers(site.value, &loaded);
    for (const BufferNode* buffer : loaded) {
        auto it = launch.writes.find(buffer);
        if (it == launch.writes.end()) continue;
        for (const AccessSite* w : it->second) {
            if (w == &site) continue;
            if (w->opaque || footprintUsesAxis(*w, t) ||
                (w->value && usesVar(w->value, t.get()))) {
                return false;
            }
        }
    }
    return true;
}

/**
 * Prove footprints of A(c) and B(c') disjoint for every pair of
 * distinct coordinates c != c' of axis `t` (other axes held equal):
 * along some dimension all four bound expressions are monotone in `t`
 * and adjacent coordinates are separated by at least one element, in
 * both pair orderings.
 */
bool
separatedAlongAxis(const AccessSite& a, const AccessSite& b,
                   const ThreadAxis& axis,
                   const arith::Analyzer& base)
{
    const Var& t = axis.var;
    arith::Analyzer analyzer = base;
    analyzer.bind(t, arith::Interval(0, axis.extent - 2));
    auto monotone = [&](const Expr& e, bool increasing) {
        Expr delta = shiftByOne(e, t) - e;
        return increasing ? proveGeq(delta, 0, analyzer)
                          : proveLeq0(delta, analyzer);
    };
    for (size_t d = 0; d < a.bounds.size(); ++d) {
        const arith::SymBound& ba = a.bounds[d];
        const arith::SymBound& bb = b.bounds[d];
        const Expr exprs[4] = {ba.lo, ba.hi, bb.lo, bb.hi};
        auto all_monotone = [&](bool increasing) {
            for (const Expr& e : exprs) {
                if (!monotone(e, increasing)) return false;
            }
            return true;
        };
        // Increasing along t: footprints of higher coordinates start
        // past where lower coordinates end, in both orderings.
        if (all_monotone(true) &&
            proveGeq(shiftByOne(bb.lo, t) - ba.hi, 1, analyzer) &&
            proveGeq(shiftByOne(ba.lo, t) - bb.hi, 1, analyzer)) {
            return true;
        }
        if (all_monotone(false) &&
            proveGeq(bb.lo - shiftByOne(ba.hi, t), 1, analyzer) &&
            proveGeq(ba.lo - shiftByOne(bb.hi, t), 1, analyzer)) {
            return true;
        }
    }
    return false;
}

/** Concrete per-dimension point footprint of `site` with t := value,
 *  or nullopt when a dimension does not collapse to one constant. */
std::optional<std::vector<int64_t>>
concretePoint(const AccessSite& site, const Var& t, int64_t value,
              const arith::Analyzer& analyzer)
{
    std::vector<int64_t> point;
    point.reserve(site.bounds.size());
    for (const arith::SymBound& b : site.bounds) {
        Expr lo = analyzer.simplify(substConst(b.lo, t, value));
        Expr hi = analyzer.simplify(substConst(b.hi, t, value));
        int64_t lo_c = 0;
        int64_t hi_c = 0;
        if (!isConstInt(lo, &lo_c) || !isConstInt(hi, &hi_c) ||
            lo_c != hi_c) {
            return std::nullopt;
        }
        point.push_back(lo_c);
    }
    return point;
}

/**
 * Enumerate concrete coordinate pairs of one axis looking for two
 * distinct coordinates provably touching the same cell. Only applies
 * to exact point accesses whose footprints collapse to constants once
 * `t` is fixed (e.g. S[t] vs S[E-1-t]); returns the colliding pair.
 */
std::optional<std::pair<int64_t, int64_t>>
enumerateCollision(const AccessSite& a, const AccessSite& b,
                   const ThreadAxis& axis,
                   const arith::Analyzer& analyzer, int64_t budget)
{
    if (axis.extent < 2 || axis.extent * axis.extent > budget) {
        return std::nullopt;
    }
    if (!siteExact(a) || !siteExact(b)) return std::nullopt;
    std::vector<std::vector<int64_t>> points_a;
    std::vector<std::vector<int64_t>> points_b;
    points_a.reserve(axis.extent);
    points_b.reserve(axis.extent);
    for (int64_t c = 0; c < axis.extent; ++c) {
        auto pa = concretePoint(a, axis.var, c, analyzer);
        auto pb = concretePoint(b, axis.var, c, analyzer);
        if (!pa || !pb) return std::nullopt;
        points_a.push_back(std::move(*pa));
        points_b.push_back(std::move(*pb));
    }
    for (int64_t ca = 0; ca < axis.extent; ++ca) {
        for (int64_t cb = 0; cb < axis.extent; ++cb) {
            if (ca == cb) continue;
            if (points_a[ca] == points_b[cb]) return {{ca, cb}};
        }
    }
    return std::nullopt;
}

struct PairContext
{
    const FuncAccesses& fa;
    const AnalysisOptions& opts;
    const LaunchSites& launch;
};

/** Verdict for one concurrency axis of a write-write pair. */
AxisVerdict
writePairAxisVerdict(const AccessSite& a, const AccessSite& b,
                     const ThreadAxis& axis, const PairContext& ctx,
                     std::string* detail)
{
    const Var& t = axis.var;
    if (axis.extent >= 0 && axis.extent <= 1) return AxisVerdict::kSafe;

    auto pin_a = pinnedCoord(a, t);
    auto pin_b = pinnedCoord(b, t);
    if (pin_a && pin_b) {
        if (*pin_a == *pin_b) return AxisVerdict::kSafe;
        if (boundsKnown(a) && boundsKnown(b)) {
            // Two fixed, different coordinates: disjoint when some
            // dimension separates the substituted footprints.
            for (size_t d = 0; d < a.bounds.size(); ++d) {
                Expr hi_a = substConst(a.bounds[d].hi, t, *pin_a);
                Expr lo_b = substConst(b.bounds[d].lo, t, *pin_b);
                Expr hi_b = substConst(b.bounds[d].hi, t, *pin_b);
                Expr lo_a = substConst(a.bounds[d].lo, t, *pin_a);
                if (proveLeq0(hi_a - lo_b + 1, ctx.fa.full) ||
                    proveLeq0(hi_b - lo_a + 1, ctx.fa.full)) {
                    return AxisVerdict::kSafe;
                }
            }
        }
        return AxisVerdict::kUnknown;
    }

    if (axis.extent < 0 || !boundsKnown(a) || !boundsKnown(b)) {
        return AxisVerdict::kUnknown;
    }

    if (separatedAlongAxis(a, b, axis, ctx.fa.full)) {
        return AxisVerdict::kSafe;
    }

    bool a_uses = footprintUsesAxis(a, t);
    bool b_uses = footprintUsesAxis(b, t);
    if (!a_uses && !b_uses) {
        if (&a == &b) {
            // Every coordinate writes the same footprint: benign only
            // when all of them store identical bytes.
            if (writeUniform(a, t, ctx.launch)) {
                return AxisVerdict::kSafe;
            }
            if (siteExact(a)) {
                *detail = "every coordinate of " + axis.tag +
                          " writes " +
                          renderFootprint(a, ctx.fa.full) +
                          " with a coordinate-dependent value";
                return AxisVerdict::kOverlap;
            }
            return AxisVerdict::kUnknown;
        }
        // Distinct sites, both with coordinate-independent footprints:
        // a provably shared corner cell makes the clash definite.
        if (siteExact(a) && siteExact(b)) {
            bool corner_equal = true;
            for (size_t d = 0; d < a.bounds.size(); ++d) {
                if (!ctx.fa.full.provablyEqual(a.bounds[d].lo,
                                               b.bounds[d].lo)) {
                    corner_equal = false;
                    break;
                }
            }
            if (corner_equal) {
                *detail = "write regions " +
                          renderFootprint(a, ctx.fa.full) + " and " +
                          renderFootprint(b, ctx.fa.full) +
                          " collide for distinct " + axis.tag +
                          " coordinates";
                return AxisVerdict::kOverlap;
            }
        }
        return AxisVerdict::kUnknown;
    }

    if (auto collision = enumerateCollision(
            a, b, axis, ctx.fa.full, ctx.opts.exhaustive_pair_limit)) {
        *detail = axis.tag + "=" + std::to_string(collision->first) +
                  " and " + axis.tag + "=" +
                  std::to_string(collision->second) +
                  " both write cell " +
                  renderFootprint(a, ctx.fa.full);
        return AxisVerdict::kOverlap;
    }
    return AxisVerdict::kUnknown;
}

/** Verdict for one concurrency axis of a (write, later read) pair on
 *  a shared-scope buffer with no barrier in between. */
AxisVerdict
rawPairAxisVerdict(const AccessSite& write, const AccessSite& read,
                   const ThreadAxis& axis, const PairContext& ctx,
                   std::string* detail)
{
    const Var& t = axis.var;
    if (axis.extent >= 0 && axis.extent <= 1) return AxisVerdict::kSafe;

    auto pin_w = pinnedCoord(write, t);
    auto pin_r = pinnedCoord(read, t);
    if (pin_w && pin_r && *pin_w == *pin_r) return AxisVerdict::kSafe;

    if (axis.extent < 0 || !boundsKnown(write) || !boundsKnown(read)) {
        return AxisVerdict::kUnknown;
    }

    // No cross-coordinate flow at all: each coordinate reads only what
    // it wrote itself.
    if (separatedAlongAxis(write, read, axis, ctx.fa.full)) {
        return AxisVerdict::kSafe;
    }

    // Cooperative-copy pattern: the write is uniform along the axis
    // and the reader's own (identical) copy covers the read region.
    if (writeUniform(write, t, ctx.launch)) {
        bool covered = true;
        for (size_t d = 0; d < read.bounds.size(); ++d) {
            if (!proveGeq(read.bounds[d].lo - write.bounds[d].lo, 0,
                          ctx.fa.full) ||
                !proveLeq0(read.bounds[d].hi - write.bounds[d].hi,
                           ctx.fa.full)) {
                covered = false;
                break;
            }
        }
        if (covered) return AxisVerdict::kSafe;
    }

    if (auto collision = enumerateCollision(
            write, read, axis, ctx.fa.full,
            ctx.opts.exhaustive_pair_limit)) {
        *detail = axis.tag + "=" + std::to_string(collision->second) +
                  " reads cell " +
                  renderFootprint(read, ctx.fa.full) + " written by " +
                  axis.tag + "=" + std::to_string(collision->first) +
                  " with no storage_sync in between";
        return AxisVerdict::kOverlap;
    }
    return AxisVerdict::kUnknown;
}

// --- race detection driver ------------------------------------------

bool
scopeParticipates(const std::string& scope)
{
    // local and wmma fragments are per-thread/per-warp private.
    return scope == "global" || scope == "shared";
}

bool
axisRelevant(const ThreadAxis& axis, const std::string& scope,
             const AnalysisOptions& opts)
{
    if (!opts.check_parallel_loops &&
        axis.tag.rfind("parallel:", 0) == 0) {
        return false;
    }
    if (scope == "shared") return !axis.isBlockAxis();
    return true;
}

/** Union of the concurrency axes of two sites, filtered by scope. */
std::vector<ThreadAxis>
relevantAxes(const AccessSite& a, const AccessSite& b,
             const std::string& scope, const AnalysisOptions& opts)
{
    std::vector<ThreadAxis> axes;
    std::set<std::string> seen;
    for (const std::vector<ThreadAxis>* list : {&a.threads, &b.threads}) {
        for (const ThreadAxis& axis : *list) {
            if (!axisRelevant(axis, scope, opts)) continue;
            if (!seen.insert(axis.tag).second) continue;
            axes.push_back(axis);
        }
    }
    return axes;
}

class DiagnosticSink
{
  public:
    explicit DiagnosticSink(const AnalysisOptions& opts,
                            std::vector<Diagnostic>* out)
        : opts_(opts), out_(out)
    {}

    void
    emit(Diagnostic diag)
    {
        std::string key = std::to_string(static_cast<int>(diag.kind)) +
                          "|" +
                          std::to_string(static_cast<int>(diag.severity)) +
                          "|" + diag.buffer + "|" + diag.axis + "|" +
                          diag.loop_path;
        if (!seen_.insert(key).second) return;
        // The cap drops warnings only: errors decide ok(), so a capped
        // error would let a provable hazard pass the search's filter.
        if (diag.severity != Severity::kError &&
            static_cast<int>(out_->size()) >= opts_.max_diagnostics) {
            return;
        }
        out_->push_back(std::move(diag));
    }

  private:
    const AnalysisOptions& opts_;
    std::vector<Diagnostic>* out_;
    std::set<std::string> seen_;
};

void
checkPair(const AccessSite& a, const AccessSite& b, bool raw_pair,
          const PairContext& ctx, DiagnosticSink* sink)
{
    const std::string& scope = a.buffer->scope;
    std::vector<ThreadAxis> axes = relevantAxes(a, b, scope, ctx.opts);
    bool unknown = false;
    std::string unknown_axis;
    for (const ThreadAxis& axis : axes) {
        std::string detail;
        AxisVerdict verdict =
            raw_pair
                ? rawPairAxisVerdict(a, b, axis, ctx, &detail)
                : writePairAxisVerdict(a, b, axis, ctx, &detail);
        if (verdict == AxisVerdict::kOverlap) {
            Diagnostic diag;
            diag.kind = raw_pair ? DiagKind::kRawNoSync
                                 : DiagKind::kWriteRace;
            diag.severity = Severity::kError;
            diag.buffer = a.buffer->name;
            diag.axis = axis.tag;
            diag.loop_path = a.loop_path;
            diag.detail = detail;
            sink->emit(std::move(diag));
            return;
        }
        if (verdict == AxisVerdict::kUnknown) {
            unknown = true;
            if (unknown_axis.empty()) unknown_axis = axis.tag;
        }
    }
    if (unknown) {
        Diagnostic diag;
        diag.kind =
            raw_pair ? DiagKind::kRawNoSync : DiagKind::kWriteRace;
        diag.severity = Severity::kWarning;
        diag.buffer = a.buffer->name;
        diag.axis = unknown_axis;
        diag.loop_path = a.loop_path;
        diag.detail =
            "possible hazard between " +
            renderFootprint(a, ctx.fa.full) + " and " +
            renderFootprint(b, ctx.fa.full) +
            " (disjointness not provable)";
        sink->emit(std::move(diag));
    }
}

void
checkRaces(const FuncAccesses& fa, const AnalysisOptions& opts,
           DiagnosticSink* sink)
{
    for (int launch = 0; launch < fa.num_launches; ++launch) {
        std::map<const BufferNode*, std::vector<const AccessSite*>>
            by_buffer;
        LaunchSites launch_sites;
        for (const AccessSite& site : fa.sites) {
            if (site.launch != launch) continue;
            if (!scopeParticipates(site.buffer->scope)) continue;
            by_buffer[site.buffer.get()].push_back(&site);
            if (site.is_write) {
                launch_sites.writes[site.buffer.get()].push_back(&site);
            }
        }
        PairContext ctx{fa, opts, launch_sites};
        for (const auto& [buffer, sites] : by_buffer) {
            std::vector<const AccessSite*> writes;
            std::vector<const AccessSite*> reads;
            for (const AccessSite* site : sites) {
                if (site->is_write) writes.push_back(site);
                // Opaque accesses count in both directions.
                if (!site->is_write || site->opaque) {
                    reads.push_back(site);
                }
            }
            for (size_t i = 0; i < writes.size(); ++i) {
                for (size_t j = i; j < writes.size(); ++j) {
                    checkPair(*writes[i], *writes[j],
                              /*raw_pair=*/false, ctx, sink);
                }
            }
            if (buffer->scope != "shared") continue;
            for (const AccessSite* write : writes) {
                for (const AccessSite* read : reads) {
                    if (read->seq <= write->seq) continue;
                    if (read->sync_epoch > write->sync_epoch) continue;
                    checkPair(*write, *read, /*raw_pair=*/true, ctx,
                              sink);
                }
            }
        }
    }
    for (const SyncSite& sync : fa.syncs) {
        if (!sync.divergent) continue;
        Diagnostic diag;
        diag.kind = DiagKind::kDivergentSync;
        diag.severity = Severity::kWarning;
        diag.loop_path = sync.loop_path;
        diag.detail = "storage_sync under a thread-dependent "
                      "conditional: part of the block never reaches "
                      "the barrier";
        sink->emit(std::move(diag));
    }
}

// --- out-of-bounds checking -----------------------------------------

/**
 * Affine expression in which every variable occurs at most once (plus
 * floordiv by a positive constant): interval evaluation is then tight
 * and both interval endpoints are attained by real executions.
 */
bool
affineTightRec(const Expr& expr, std::set<const VarNode*>* used)
{
    switch (expr->kind) {
      case ExprKind::kIntImm:
        return true;
      case ExprKind::kVar:
        return used->insert(static_cast<const VarNode*>(expr.get()))
            .second;
      case ExprKind::kAdd:
      case ExprKind::kSub: {
        const auto& n = static_cast<const BinaryNode&>(*expr);
        return affineTightRec(n.a, used) && affineTightRec(n.b, used);
      }
      case ExprKind::kMul: {
        const auto& n = static_cast<const BinaryNode&>(*expr);
        if (isConstInt(n.a)) return affineTightRec(n.b, used);
        if (isConstInt(n.b)) return affineTightRec(n.a, used);
        return false;
      }
      case ExprKind::kFloorDiv: {
        const auto& n = static_cast<const BinaryNode&>(*expr);
        int64_t divisor = 0;
        return isConstInt(n.b, &divisor) && divisor > 0 &&
               affineTightRec(n.a, used);
      }
      case ExprKind::kCast:
        return affineTightRec(
            static_cast<const CastNode&>(*expr).value, used);
      default:
        return false;
    }
}

bool
affineTight(const Expr& expr)
{
    std::set<const VarNode*> used;
    return affineTightRec(expr, &used);
}

/** Prove `goal <= 0` from the site's guard constraints: each guard
 *  normalizes to facts `f <= 0`, and goal - f <= 0 by intervals
 *  closes the implication. */
bool
guardsProveLeq0(const AccessSite& site, const Expr& goal,
                const arith::Analyzer& analyzer)
{
    std::vector<Expr> facts;
    for (const GuardConstraint& g : site.guards) {
        switch (g.rel) {
          case ExprKind::kLT:
            facts.push_back(g.lhs - g.rhs + 1);
            break;
          case ExprKind::kLE:
            facts.push_back(g.lhs - g.rhs);
            break;
          case ExprKind::kGT:
            facts.push_back(g.rhs - g.lhs + 1);
            break;
          case ExprKind::kGE:
            facts.push_back(g.rhs - g.lhs);
            break;
          case ExprKind::kEQ:
            facts.push_back(g.lhs - g.rhs);
            facts.push_back(g.rhs - g.lhs);
            break;
          default:
            break;
        }
    }
    for (const Expr& fact : facts) {
        if (proveLeq0(goal - fact, analyzer)) return true;
    }
    return false;
}

void
checkBounds(const FuncAccesses& fa, const AnalysisOptions& opts,
            DiagnosticSink* sink)
{
    (void)opts;
    for (const AccessSite& site : fa.sites) {
        if (site.opaque) continue;
        if (site.indices.size() != site.buffer->shape.size()) continue;
        for (size_t d = 0; d < site.indices.size(); ++d) {
            const Expr& index = site.indices[d];
            const Expr& shape = site.buffer->shape[d];
            Expr simplified = fa.full.simplify(index);
            arith::Interval interval =
                fa.full.evalInterval(simplified);
            int64_t shape_c = -1;
            bool shape_const = isConstInt(shape, &shape_c);

            bool low_ok = interval.lo >= 0;
            if (!low_ok) {
                low_ok = guardsProveLeq0(site, intImm(0) - index,
                                         fa.full);
            }
            bool high_ok =
                shape_const ? interval.hi <= shape_c - 1
                            : proveLeq0(index - shape + 1, fa.full);
            if (!high_ok) {
                high_ok = guardsProveLeq0(site, index - shape + 1,
                                          fa.full);
            }
            if (low_ok && high_ok) continue;

            bool attained = site.guards.empty() &&
                            !site.opaque_guard &&
                            affineTight(simplified);
            bool low_definite = !low_ok && attained &&
                                interval.lo > arith::Interval::kNegInf &&
                                interval.lo < 0;
            bool high_definite = !high_ok && attained && shape_const &&
                                 interval.hi <
                                     arith::Interval::kPosInf &&
                                 interval.hi > shape_c - 1;
            bool low_possible = !low_ok &&
                                interval.lo > arith::Interval::kNegInf &&
                                interval.lo < 0;
            bool high_possible =
                !high_ok && shape_const &&
                interval.hi < arith::Interval::kPosInf &&
                interval.hi > shape_c - 1;
            if (!low_definite && !high_definite && !low_possible &&
                !high_possible) {
                // Unbounded data-dependent index: nothing useful to
                // report (gather patterns would drown the output).
                continue;
            }
            Diagnostic diag;
            diag.kind = DiagKind::kOutOfBounds;
            diag.severity = (low_definite || high_definite)
                                ? Severity::kError
                                : Severity::kWarning;
            diag.buffer = site.buffer->name;
            diag.loop_path = site.loop_path;
            diag.detail =
                std::string(site.is_write ? "write" : "read") +
                " index " + exprToString(simplified) + " in dim " +
                std::to_string(d) + " has range [" +
                std::to_string(interval.lo) + ", " +
                std::to_string(interval.hi) + "] but the extent is " +
                exprToString(shape);
            sink->emit(std::move(diag));
        }
    }
}

} // namespace

// --- public API ------------------------------------------------------

const char*
diagCode(DiagKind kind)
{
    switch (kind) {
      case DiagKind::kWriteRace: return "TIR-R001";
      case DiagKind::kRawNoSync: return "TIR-R002";
      case DiagKind::kDivergentSync: return "TIR-R003";
      case DiagKind::kOutOfBounds: return "TIR-B001";
      case DiagKind::kThreadBinding: return "TIR-V001";
      case DiagKind::kRegionCover: return "TIR-V002";
      case DiagKind::kUseBeforeInit: return "TIR-L001";
      case DiagKind::kDeadStore: return "TIR-L002";
      case DiagKind::kRedundantSync: return "TIR-L003";
    }
    return "TIR-X000";
}

std::string
Diagnostic::message() const
{
    std::string text = severity == Severity::kError ? "[error] "
                                                    : "[warning] ";
    text += diagCode(kind);
    text += " ";
    text += kindName(kind);
    if (!buffer.empty()) text += " on buffer '" + buffer + "'";
    if (!axis.empty()) text += " across " + axis;
    if (!loop_path.empty()) text += " at " + loop_path;
    if (!detail.empty()) text += ": " + detail;
    return text;
}

bool
AnalysisReport::ok() const
{
    for (const Diagnostic& diag : diagnostics) {
        if (diag.severity == Severity::kError) return false;
    }
    return true;
}

int
AnalysisReport::errorCount(DiagKind kind) const
{
    int count = 0;
    for (const Diagnostic& diag : diagnostics) {
        if (diag.kind == kind && diag.severity == Severity::kError) {
            ++count;
        }
    }
    return count;
}

bool
AnalysisReport::hasError(DiagKind kind) const
{
    return errorCount(kind) > 0;
}

std::string
AnalysisReport::summary() const
{
    std::string text;
    for (const Diagnostic& diag : diagnostics) {
        if (!text.empty()) text += "\n";
        text += diag.message();
    }
    return text;
}

AnalysisReport
analyzeFunc(const PrimFunc& func, const AnalysisOptions& options)
{
    trace::Span span("analysis.analyze_func",
                     trace::arg("func", func->name));
    PrimFunc lowered =
        isBlockFree(func->body) ? func : lowerToLoops(func);
    FuncAccesses fa = extractAccesses(lowered->body,
                                      /*widen_threads=*/false);
    AnalysisReport report;
    DiagnosticSink sink(options, &report.diagnostics);
    checkRaces(fa, options, &sink);
    checkBounds(fa, options, &sink);
    // Errors first so truncated renderings stay actionable.
    std::stable_sort(report.diagnostics.begin(),
                     report.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                         return static_cast<int>(a.severity) <
                                static_cast<int>(b.severity);
                     });
    return report;
}

namespace {

/** Distinct coordinates of `axis` provably touch disjoint cells
 *  (order-independence without any value reasoning): trivial axis,
 *  both coordinates pinned equal, or footprints separated along the
 *  axis. The direction-agnostic core shared by the WAR/WAW legs of
 *  barrierLoadBearing. */
bool
axisCrossDisjoint(const AccessSite& a, const AccessSite& b,
                  const ThreadAxis& axis, const arith::Analyzer& full)
{
    const Var& t = axis.var;
    if (axis.extent >= 0 && axis.extent <= 1) return true;
    auto pin_a = pinnedCoord(a, t);
    auto pin_b = pinnedCoord(b, t);
    if (pin_a && pin_b && *pin_a == *pin_b) return true;
    if (axis.extent < 0 || !boundsKnown(a) || !boundsKnown(b)) {
        return false;
    }
    return separatedAlongAxis(a, b, axis, full);
}

} // namespace

bool
barrierLoadBearing(const AccessSite& earlier, const AccessSite& later,
                   const FuncAccesses& fa,
                   const AnalysisOptions& options)
{
    if (earlier.buffer.get() != later.buffer.get()) return false;
    if (earlier.buffer->scope != "shared") return false;
    if (earlier.launch != later.launch || earlier.launch < 0) {
        return false;
    }
    bool e_write = earlier.is_write || earlier.opaque;
    bool l_write = later.is_write || later.opaque;
    if (!e_write && !l_write) return false;
    bool e_read = !earlier.is_write || earlier.opaque;
    bool l_read = !later.is_write || later.opaque;

    // Uniform-write proofs need the launch's write map (the stored
    // value must read only launch-stable data).
    LaunchSites launch;
    for (const AccessSite& site : fa.sites) {
        if (site.launch == earlier.launch && site.is_write &&
            scopeParticipates(site.buffer->scope)) {
            launch.writes[site.buffer.get()].push_back(&site);
        }
    }
    PairContext ctx{fa, options, launch};
    std::vector<ThreadAxis> axes =
        relevantAxes(earlier, later, "shared", options);
    for (const ThreadAxis& axis : axes) {
        std::string detail;
        // RAW leg: the earlier write flows into the later read unless
        // the full race-analysis verdict proves the axis safe.
        if (e_write && l_read &&
            rawPairAxisVerdict(earlier, later, axis, ctx, &detail) !=
                AxisVerdict::kSafe) {
            return true;
        }
        // WAR leg: the later write may clobber what the earlier read
        // still consumes; only disjointness proofs apply (a uniform
        // overwrite still changes the bytes under the reader).
        if (e_read && l_write &&
            !axisCrossDisjoint(earlier, later, axis, fa.full)) {
            return true;
        }
        // WAW leg: order matters unless disjoint or same-byte uniform.
        if (e_write && l_write &&
            writePairAxisVerdict(earlier, later, axis, ctx, &detail) !=
                AxisVerdict::kSafe) {
            return true;
        }
    }
    return false;
}

std::vector<RegionPiece>
stageRegionPieces(const Stmt& stage)
{
    Stmt lowered = isBlockFree(stage) ? stage : eraseBlocks(stage);
    FuncAccesses fa =
        extractAccesses(lowered, /*widen_threads=*/true);
    std::vector<RegionPiece> pieces;
    pieces.reserve(fa.sites.size());
    for (const AccessSite& site : fa.sites) {
        if (site.opaque || !boundsKnown(site)) {
            RegionPiece piece;
            piece.region = BufferRegion::full(site.buffer);
            piece.exact = false;
            piece.is_write = site.is_write;
            pieces.push_back(piece);
            if (site.opaque) {
                // Opaque pointers read and write; emit the read twin.
                piece.is_write = false;
                pieces.push_back(std::move(piece));
            }
            continue;
        }
        std::vector<Range> ranges;
        ranges.reserve(site.bounds.size());
        for (const arith::SymBound& b : site.bounds) {
            Expr lo = fa.full.simplify(b.lo);
            Expr extent = fa.full.simplify(b.hi - b.lo + 1);
            ranges.emplace_back(std::move(lo), std::move(extent));
        }
        RegionPiece piece;
        piece.region = BufferRegion(site.buffer, std::move(ranges));
        piece.exact = siteExact(site);
        piece.is_write = site.is_write;
        pieces.push_back(std::move(piece));
    }
    return pieces;
}

} // namespace analysis
} // namespace tir
