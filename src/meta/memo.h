/**
 * @file
 * Structural-hash–keyed memo cache for the tuning pipeline. The
 * evolutionary search re-derives the same candidate schedule
 * surprisingly often — mutation moves a tile factor back, two parents
 * produce the same child, the loop-sketch family revisits a prior
 * configuration — and each duplicate used to pay static analysis,
 * feature extraction and a simulated hardware measurement. The memo
 * keys every evaluated structure by structuralHash(func): a hit returns
 * the cached analysis verdict, feature vector and device estimate, so a
 * candidate whose hash has already been evaluated skips the analysis,
 * the stats walk, feature extraction and device-model run entirely —
 * the real wall-clock cost of a "measurement" in this substrate. The
 * *simulated* Table 1 accounting still charges duplicates (the paper's
 * tuners re-profile them; see Search::commitMeasurement in
 * search.cpp), so the cache changes how fast the pipeline runs, never
 * what it reports.
 *
 * Thread-safety: the cache is only read and written from the search's
 * sequential fold phase (the main thread), never from pool workers, so
 * it needs no locking — and hit counts stay deterministic for any
 * `parallelism` setting.
 */
#ifndef TENSORIR_META_MEMO_H
#define TENSORIR_META_MEMO_H

#include <limits>
#include <optional>
#include <unordered_map>

#include "hwsim/device.h"
#include "meta/gbdt.h"
#include "meta/search.h"

namespace tir {
namespace meta {

/** Cached evaluation of one structurally-distinct candidate. */
struct MemoEntry
{
    /** Why static analysis or the opt-in lint rejected this structure
     *  (§3.3): kRace, kBounds or kLint, or kInvalid/kRuntime when the
     *  analysis itself threw. Decided first; a rejected entry carries
     *  nothing below. Empty when the structure passed. */
    std::optional<RejectKind> reject;
    FeatureVec features;
    /** Device-model estimate (latency or constraint violation). */
    hwsim::RunEstimate estimate;
    /** Whether this candidate was already charged as a measurement. */
    bool measured = false;
    /** The latency the measurement backend committed for this
     *  candidate, in microseconds (infinity = rejected at measurement
     *  time); NaN until `measured`. For a wall-clock backend this
     *  cached number is what keeps structural duplicates — and journal
     *  replay — deterministic: a kernel is timed at most once per
     *  search, and every duplicate reuses the committed value. */
    double measured_latency_us =
        std::numeric_limits<double>::quiet_NaN();
    /** The native compile exceeded TuneOptions::compile_budget_ms.
     *  Cached so duplicates reject into compile_timeout_filtered
     *  without re-invoking the compiler. */
    bool compile_timed_out = false;
    /** The isolated measurement worker died running this candidate's
     *  kernel (Measurement::crashed). Cached so structural duplicates
     *  reject into crash_filtered without re-running code that is
     *  known to kill its process — the "never retry a deterministic
     *  crash" rule applied across duplicates. */
    bool crashed = false;
    /** The isolated measurement hit the hard wall-clock timeout and
     *  the worker was SIGKILLed (Measurement::hanged). Cached so
     *  duplicates reject into hang_filtered without hanging another
     *  worker for timeout_ms. */
    bool hanged = false;
    /** Evaluation threw (contained as RejectKind::kRuntime). Cached so
     *  structural duplicates of a failing candidate reject identically
     *  without re-running the failing evaluation. */
    bool eval_failed = false;
};

/** Per-search memo of candidate evaluations, keyed by structural hash. */
class MemoCache
{
  public:
    /** Entry for a hash, or nullptr when unseen. */
    MemoEntry*
    find(uint64_t hash)
    {
        auto it = entries_.find(hash);
        return it == entries_.end() ? nullptr : &it->second;
    }

    /** Insert or replace the entry for a hash; returns the stored
     *  entry. (A journal restore replays an entry's later records over
     *  its earlier ones.) */
    MemoEntry&
    insert(uint64_t hash, MemoEntry entry)
    {
        return entries_.insert_or_assign(hash, std::move(entry))
            .first->second;
    }

    /** Number of structurally-distinct candidates evaluated. */
    size_t size() const { return entries_.size(); }

  private:
    std::unordered_map<uint64_t, MemoEntry> entries_;
};

} // namespace meta
} // namespace tir

#endif // TENSORIR_META_MEMO_H
