#include "tir/analysis/dataflow.h"

#include <algorithm>
#include <set>
#include <string>

#include "ir/printer.h"
#include "ir/transform.h"
#include "lower/lower.h"
#include "support/trace.h"

namespace tir {
namespace analysis {

namespace {

/** Whole-function site budget: beyond this the dataflow pass reports
 *  `truncated` and proves nothing (lowered Table 1 kernels sit two
 *  orders of magnitude below it). */
constexpr size_t kMaxDataflowSites = 4096;

/** Per-launch shared-site budget for the sync-protection analysis
 *  (it enumerates site pairs per sync): past this every sync of the
 *  launch is conservatively kept. */
constexpr size_t kMaxSyncAnalysisSites = 160;

/** Cap on recorded protected pairs per sync (diagnostic payload; the
 *  elision decision only needs emptiness). */
constexpr size_t kMaxProtectedPairs = 8;

std::string
renderSite(const AccessSite& site, const arith::Analyzer& analyzer)
{
    if (site.opaque) return site.buffer->name + "[<opaque>]";
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

/** Innermost serial loop enclosing both sites, or null. Serial-loop
 *  stacks are root paths in one tree, so the common loops of two sites
 *  are exactly the shared elements; the deepest one in `a`'s stack is
 *  the innermost. */
const ForNode*
innermostCommonLoop(const std::vector<const ForNode*>& a,
                    const std::vector<const ForNode*>& b)
{
    std::set<const ForNode*> in_b(b.begin(), b.end());
    for (auto it = a.rbegin(); it != a.rend(); ++it) {
        if (in_b.count(*it)) return *it;
    }
    return nullptr;
}

/** The happens-before skeleton: an instance of `d` may execute before
 *  an instance of `u` — straight-line order, or a loop-carried edge
 *  through a common enclosing serial loop (d@i before u@i+1). */
bool
mayPrecede(const AccessSite* d, const AccessSite* u)
{
    if (d->seq < u->seq) return true;
    return innermostCommonLoop(d->serial_loops, u->serial_loops) !=
           nullptr;
}

bool
positiveConstExtent(const ForNode* loop)
{
    return constIntOr(loop->extent, -1) > 0;
}

/** Under-approximation: `sync` provably executes between every
 *  instance of `a` and every later instance of `b` in straight-line
 *  order. Loops enclosing the sync but not both sites must provably
 *  run (zero-trip inner loops skip the barrier), and a conditional
 *  barrier may be skipped entirely. */
bool
separatesLinear(const SyncSite& sync, const AccessSite* a,
                const AccessSite* b)
{
    if (sync.conditional) return false;
    if (sync.launch != a->launch) return false;
    if (!(a->seq < sync.seq && sync.seq < b->seq)) return false;
    std::set<const ForNode*> common;
    std::set<const ForNode*> in_b(b->serial_loops.begin(),
                                  b->serial_loops.end());
    for (const ForNode* loop : a->serial_loops) {
        if (in_b.count(loop)) common.insert(loop);
    }
    for (const ForNode* loop : sync.serial_loops) {
        if (!common.count(loop) && !positiveConstExtent(loop)) {
            return false;
        }
    }
    return true;
}

/** Under-approximation for loop-carried pairs: `sync` provably
 *  executes between `p`'s instance in iteration i of `carry` and `q`'s
 *  instance in iteration i+1. The sync must live inside the carrying
 *  loop, run unconditionally with provably positive deeper trip
 *  counts, and sit after p (same iteration) or before q (next). */
bool
separatesCarried(const SyncSite& sync, const AccessSite* p,
                 const AccessSite* q, const ForNode* carry)
{
    if (sync.conditional) return false;
    if (sync.launch != p->launch) return false;
    if (!(sync.seq > p->seq || sync.seq < q->seq)) return false;
    bool inside = false;
    for (const ForNode* loop : sync.serial_loops) {
        if (loop == carry) {
            inside = true;
            continue;
        }
        // Loops deeper than the carrying loop must provably run;
        // ancestors of `carry` enclose both sites and are irrelevant.
        if (inside && !positiveConstExtent(loop)) return false;
    }
    return inside;
}

/** Over-approximation: some instance of `sync` may execute between an
 *  instance of `p` in iteration i of `carry` and `q` in iteration
 *  i+1 — the pairs a sync could possibly be protecting. */
bool
mayProtectCarried(const SyncSite& sync, const AccessSite* p,
                  const AccessSite* q, const ForNode* carry)
{
    if (sync.launch != p->launch) return false;
    bool inside = std::find(sync.serial_loops.begin(),
                            sync.serial_loops.end(),
                            carry) != sync.serial_loops.end();
    if (!inside) return false;
    return sync.seq > p->seq || sync.seq < q->seq;
}

/** All serial loops enclosing both sites, outermost first. */
std::vector<const ForNode*>
commonLoops(const AccessSite* a, const AccessSite* b)
{
    std::set<const ForNode*> in_b(b->serial_loops.begin(),
                                  b->serial_loops.end());
    std::vector<const ForNode*> out;
    for (const ForNode* loop : a->serial_loops) {
        if (in_b.count(loop)) out.push_back(loop);
    }
    return out;
}

/** Shared-scope sites of one launch, in program order. */
std::vector<const AccessSite*>
sharedSitesOfLaunch(const FuncAccesses& fa, int launch)
{
    std::vector<const AccessSite*> out;
    for (const AccessSite& site : fa.sites) {
        if (site.launch == launch && site.buffer->scope == "shared") {
            out.push_back(&site);
        }
    }
    return out;
}

/** Greedy left-to-right sync classification. A sync is elidable when
 *  every conflicting pair it may protect is either provably hazard-free
 *  (barrierLoadBearing false) or still separated by a barrier marked
 *  kept. Scanning in program order and consulting only kept barriers
 *  makes the result self-consistent: the kept set alone orders every
 *  load-bearing pair, so the elision pass may drop exactly the
 *  elidable set in one shot. */
void
classifySyncs(DataflowInfo* info, const AnalysisOptions& options)
{
    const FuncAccesses& fa = info->accesses;
    info->syncs.reserve(fa.syncs.size());
    std::vector<bool> kept(fa.syncs.size(), true);

    // Launches whose shared-site count exceeds the pair-enumeration
    // budget: keep their barriers untouched.
    std::map<int, std::vector<const AccessSite*>> shared_by_launch;
    std::set<int> over_budget;
    for (int launch = 0; launch < fa.num_launches; ++launch) {
        std::vector<const AccessSite*> sites =
            sharedSitesOfLaunch(fa, launch);
        if (sites.size() > kMaxSyncAnalysisSites) {
            over_budget.insert(launch);
            info->truncated = true;
        }
        shared_by_launch.emplace(launch, std::move(sites));
    }

    for (size_t si = 0; si < fa.syncs.size(); ++si) {
        const SyncSite& s = fa.syncs[si];
        SyncDataflow df;
        df.site = &s;

        // A barrier outside any concurrency scope orders nothing.
        if (s.launch < 0) {
            df.elidable = true;
            kept[si] = false;
            info->syncs.push_back(std::move(df));
            continue;
        }
        if (over_budget.count(s.launch)) {
            info->syncs.push_back(std::move(df));
            continue;
        }

        const std::vector<const AccessSite*>& sites =
            shared_by_launch[s.launch];
        auto coveredElsewhere = [&](auto&& separates) {
            for (size_t sj = 0; sj < fa.syncs.size(); ++sj) {
                if (sj == si || !kept[sj]) continue;
                if (separates(fa.syncs[sj])) return true;
            }
            return false;
        };
        auto addPair = [&](const AccessSite* x, const AccessSite* y) {
            if (df.protected_pairs.size() < kMaxProtectedPairs) {
                df.protected_pairs.emplace_back(x, y);
            }
        };

        // Straight-line pairs spanning the barrier.
        for (const AccessSite* a : sites) {
            if (a->seq > s.seq) break;
            for (const AccessSite* b : sites) {
                if (b->seq < s.seq) continue;
                bool writes = a->is_write || a->opaque ||
                              b->is_write || b->opaque;
                if (!writes) continue;
                if (coveredElsewhere([&](const SyncSite& other) {
                        return separatesLinear(other, a, b);
                    })) {
                    continue;
                }
                if (barrierLoadBearing(*a, *b, fa, options)) {
                    addPair(a, b);
                }
            }
            if (df.protected_pairs.size() >= kMaxProtectedPairs) break;
        }

        // Loop-carried pairs: p in iteration i, q in iteration i+1 of
        // a common serial loop the barrier lives in.
        for (const AccessSite* p : sites) {
            if (df.protected_pairs.size() >= kMaxProtectedPairs) break;
            for (const AccessSite* q : sites) {
                bool writes = p->is_write || p->opaque ||
                              q->is_write || q->opaque;
                if (!writes) continue;
                for (const ForNode* carry : commonLoops(p, q)) {
                    if (!mayProtectCarried(s, p, q, carry)) continue;
                    if (coveredElsewhere([&](const SyncSite& other) {
                            return separatesCarried(other, p, q,
                                                    carry);
                        })) {
                        continue;
                    }
                    if (barrierLoadBearing(*p, *q, fa, options)) {
                        addPair(p, q);
                        break;
                    }
                }
                if (df.protected_pairs.size() >= kMaxProtectedPairs) {
                    break;
                }
            }
        }

        if (df.protected_pairs.empty()) {
            df.elidable = true;
            kept[si] = false;
        }
        info->syncs.push_back(std::move(df));
    }
}

/** Minimal local mirror of the analysis.cpp diagnostic sink: dedup on
 *  (kind, severity, buffer, axis, loop_path), warnings capped. */
class LintSink
{
  public:
    LintSink(const AnalysisOptions& opts, std::vector<Diagnostic>* out)
        : opts_(opts), out_(out)
    {}

    void
    emit(Diagnostic diag)
    {
        std::string key =
            std::to_string(static_cast<int>(diag.kind)) + "|" +
            std::to_string(static_cast<int>(diag.severity)) + "|" +
            diag.buffer + "|" + diag.axis + "|" + diag.loop_path;
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

/** Every enclosing serial loop provably runs at least once — required
 *  before claiming a site's hazard fires on actual executions. */
bool
loopsProvablyRun(const AccessSite& site)
{
    for (const ForNode* loop : site.serial_loops) {
        if (!positiveConstExtent(loop)) return false;
    }
    return true;
}

} // namespace

DataflowInfo
computeDataflow(const PrimFunc& func, const AnalysisOptions& options)
{
    trace::Span span("analysis.dataflow",
                     trace::arg("func", func->name));
    DataflowInfo info;
    info.func = isBlockFree(func->body) ? func : lowerToLoops(func);
    info.accesses =
        extractAccesses(info.func->body, /*widen_threads=*/false);
    const FuncAccesses& fa = info.accesses;
    if (fa.sites.size() > kMaxDataflowSites) {
        info.truncated = true;
        return info;
    }

    std::set<const BufferNode*> params;
    for (const Buffer& p : info.func->params) params.insert(p.get());

    for (const AccessSite& site : fa.sites) {
        BufferChain& chain = info.chains[site.buffer.get()];
        if (!chain.buffer.get()) {
            chain.buffer = site.buffer;
            chain.is_param = params.count(site.buffer.get()) > 0;
        }
        if (site.is_write || site.opaque) chain.defs.push_back(&site);
        if (!site.is_write || site.opaque) chain.uses.push_back(&site);
    }

    for (const auto& [buf, chain] : info.chains) {
        (void)buf;
        if (chain.is_param) continue;
        // Dead stores: no use (forward or loop-carried) may observe
        // the value. Opaque defs have unknown semantics — never dead.
        for (const AccessSite* d : chain.defs) {
            if (d->opaque) continue;
            bool live = false;
            for (const AccessSite* u : chain.uses) {
                if (mayPrecede(d, u)) {
                    live = true;
                    break;
                }
            }
            if (!live) info.dead_stores.push_back(d);
        }
        // Use-before-init: no def may precede the read. Loop-carried
        // defs count as preceding (they feed iterations past the
        // first), keeping the error claim conservative.
        for (const AccessSite* u : chain.uses) {
            bool initialized = false;
            for (const AccessSite* d : chain.defs) {
                if (d == u) continue;
                if (mayPrecede(d, u)) {
                    initialized = true;
                    break;
                }
            }
            if (!initialized) info.uninit_reads.push_back(u);
        }
    }
    auto bySeq = [](const AccessSite* a, const AccessSite* b) {
        return a->seq < b->seq;
    };
    std::sort(info.dead_stores.begin(), info.dead_stores.end(), bySeq);
    std::sort(info.uninit_reads.begin(), info.uninit_reads.end(), bySeq);

    classifySyncs(&info, options);
    return info;
}

AnalysisReport
lintFunc(const PrimFunc& func, const AnalysisOptions& options)
{
    DataflowInfo info = computeDataflow(func, options);
    AnalysisReport report;
    LintSink sink(options, &report.diagnostics);
    const arith::Analyzer& full = info.accesses.full;

    for (const AccessSite* u : info.uninit_reads) {
        Diagnostic diag;
        diag.kind = DiagKind::kUseBeforeInit;
        // Error only when the read provably executes (no guards, no
        // possibly-zero-trip loops); otherwise a warning.
        bool provable = u->guards.empty() && !u->opaque_guard &&
                        !u->opaque && loopsProvablyRun(*u);
        diag.severity =
            provable ? Severity::kError : Severity::kWarning;
        diag.buffer = u->buffer->name;
        diag.loop_path = u->loop_path;
        diag.detail = "read " + renderSite(*u, full) +
                      " has no preceding write to '" +
                      u->buffer->name + "'; the load observes "
                      "uninitialized memory";
        sink.emit(std::move(diag));
    }
    for (const AccessSite* d : info.dead_stores) {
        Diagnostic diag;
        diag.kind = DiagKind::kDeadStore;
        diag.severity = Severity::kWarning;
        diag.buffer = d->buffer->name;
        diag.loop_path = d->loop_path;
        diag.detail = "store " + renderSite(*d, full) +
                      " is observed by no later or loop-carried "
                      "read; the store is dead";
        sink.emit(std::move(diag));
    }
    for (const SyncDataflow& sync : info.syncs) {
        if (!sync.elidable) continue;
        Diagnostic diag;
        diag.kind = DiagKind::kRedundantSync;
        diag.severity = Severity::kWarning;
        diag.loop_path = sync.site->loop_path;
        diag.detail =
            "storage_sync separates no conflicting shared-memory "
            "access pair (every spanned pair is provably ordered, "
            "disjoint, or covered by another barrier)";
        sink.emit(std::move(diag));
    }

    std::stable_sort(report.diagnostics.begin(),
                     report.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                         return static_cast<int>(a.severity) <
                                static_cast<int>(b.severity);
                     });
    return report;
}

} // namespace analysis
} // namespace tir
