/**
 * @file
 * Failpoint framework: named, deterministically seeded fault-injection
 * sites for exercising the tuning pipeline's containment paths (the
 * same technique TiKV's `fail` crate and FreeBSD's FAIL_POINT macros
 * use). A site is a call like
 *
 *     if (failpoint::inject("search.instantiate", key)) { ...error... }
 *
 * sprinkled through search, cost-model fitting, database I/O, the
 * interpreter, journaling, and thread-pool dispatch. With no schedule
 * configured, every site is one relaxed atomic load and a branch — the
 * same zero-cost-when-disabled fast path as trace.h — so sites can
 * live in hot per-candidate code.
 *
 * Configuration is a schedule string, from the `TENSORIR_FAILPOINTS`
 * environment variable or `failpoint::configure()`:
 *
 *     spec    := entry (';' entry)*
 *     entry   := 'seed=' <uint64>  |  <site> '=' action
 *     action  := kind [ '(' p [',' arg] ')' ] [ '@' skip ]
 *     kind    := 'throw' | 'error' | 'delay' | 'corrupt'
 *
 * `p` is the trigger probability in [0, 1] (default 1). `arg`, in
 * [0, INT_MAX], is the delay in milliseconds for `delay` (default 10)
 * and the number of bytes to flip for `corrupt` (default 1). `@skip`
 * suppresses the first `skip` evaluations of a counter-keyed site —
 * the tool behind "crash exactly at the N-th checkpoint" tests.
 *
 * Determinism: whether evaluation `i` of a site fires is a pure
 * function of (schedule seed, site name, i). Counter-keyed sites use a
 * per-site atomic counter for `i` — reproducible for a fixed call
 * sequence. Data-keyed sites (`inject(site, key)`) use a caller-chosen
 * key (a candidate's schedule seed or structural hash) instead, so the
 * *same candidates* fail no matter how work is distributed over
 * threads — that is what keeps the search's parallelism-invariance
 * contract intact under chaos schedules.
 *
 * Actions at a fired site:
 *  - `throw`   — throw failpoint::InjectedFault (a std::runtime_error).
 *  - `error`   — inject() returns true; the caller takes its own error
 *                path (a structured reject, a skipped write, ...).
 *  - `delay`   — sleep `arg` milliseconds, then behave as not-fired
 *                (for timeout and interleaving testing).
 *  - `corrupt` — at injectCorrupt() sites, flip `arg` deterministically
 *                chosen bytes of the caller's buffer; at plain inject()
 *                sites, degrade to `error`.
 */
#ifndef TENSORIR_SUPPORT_FAILPOINT_H
#define TENSORIR_SUPPORT_FAILPOINT_H

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace tir {
namespace failpoint {

namespace detail {
/** Any site configured; the fast path every site checks first. */
extern std::atomic<bool> g_enabled;
bool evaluate(const char* site, bool keyed, uint64_t key);
bool evaluateCorrupt(const char* site, std::string& data);
} // namespace detail

/** Exception thrown by a fired `throw` action. */
class InjectedFault : public std::runtime_error
{
  public:
    explicit InjectedFault(const std::string& msg)
        : std::runtime_error(msg)
    {
    }
};

/** Whether any failpoint schedule is active (one relaxed load). */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Evaluate a counter-keyed site: the i-th call (process-wide, in call
 * order) triggers deterministically for the configured seed. Returns
 * true when an `error`/`corrupt` action fired; throws for `throw`;
 * sleeps for `delay`. Always false when no schedule is active.
 */
inline bool
inject(const char* site)
{
    if (!enabled()) return false;
    return detail::evaluate(site, /*keyed=*/false, 0);
}

/**
 * Evaluate a data-keyed site: triggering is a pure function of
 * (seed, site, key), independent of call order and thread placement.
 * Use the candidate's own identity (schedule seed, structural hash) as
 * the key so chaos schedules preserve the search's determinism
 * contract across `parallelism` settings.
 */
inline bool
inject(const char* site, uint64_t key)
{
    if (!enabled()) return false;
    return detail::evaluate(site, /*keyed=*/true, key);
}

/**
 * Corruption-capable site (counter-keyed): when a `corrupt` action
 * fires, flips deterministically chosen bytes of `data` in place and
 * returns true. `throw`/`error`/`delay` actions behave as in inject().
 */
inline bool
injectCorrupt(const char* site, std::string& data)
{
    if (!enabled()) return false;
    return detail::evaluateCorrupt(site, data);
}

/**
 * Replace the active schedule with `spec` (parsed per the grammar
 * above; throws FatalError on a malformed spec, leaving the previous
 * schedule in place). An empty spec disables all sites. Per-site
 * counters and statistics reset.
 */
void configure(const std::string& spec);

/** Restore the schedule from TENSORIR_FAILPOINTS (empty if unset). */
void reset();

/** The spec string of the active schedule ("" when disabled). */
std::string currentSpec();

/** Evaluation/trigger accounting of one site since configure(). */
struct SiteStats
{
    uint64_t evaluated = 0;
    uint64_t fired = 0;
};

/** Stats for one configured site (zeros for unknown sites). */
SiteStats stats(const std::string& site);

/** Stats for every configured site, in spec order. */
std::vector<std::pair<std::string, SiteStats>> allStats();

/** RAII schedule override for tests: configures `spec`, restores the
 *  previous schedule on destruction. */
class ScopedFailpoints
{
  public:
    explicit ScopedFailpoints(const std::string& spec)
        : saved_(currentSpec())
    {
        configure(spec);
    }
    ~ScopedFailpoints() { configure(saved_); }
    ScopedFailpoints(const ScopedFailpoints&) = delete;
    ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;

  private:
    std::string saved_;
};

} // namespace failpoint
} // namespace tir

#endif // TENSORIR_SUPPORT_FAILPOINT_H
