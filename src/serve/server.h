/**
 * @file
 * The schedule-serving layer: a long-lived `ScheduleServer` that
 * answers "best schedule for (workload, shape, target)" requests from
 * the persisted tuning database (§5.2's record caching, turned into a
 * service) and tunes what it does not know in the background.
 *
 * Read path: per-target state (serve/shard.h) — a mutex-free hot cache
 * in front of a sharded, reader-writer-locked `meta::TuningDatabase`.
 * A hot hit on a final workload (one with a record that no tune will
 * improve) hashes nothing (the workload's structural hash is memoized
 * on its PrimFunc) and takes no mutex: the target comes from an
 * immutable index, the hot cache yields the record and its final mark
 * in one atomic load. Its two read-modify-writes, the hit counter's
 * and the reference the Response keeps, land on the calling thread's
 * own counter shard and arena anchor (serve/shard.h), so for up to
 * support::kThreadShards client threads concurrent hits write no
 * memory another thread writes. Every other query — a hit not yet
 * marked final, a database hit, a miss — also checks the in-flight
 * registry under its mutex.
 *
 * Miss path: misses coalesce single-flight per (target, workload hash)
 * onto one background `autoTune` job on the shared `ThreadPool`
 * (support/thread_pool.h). Every client that missed gets the same
 * `PendingTune` handle (serve/request.h); the job streams its
 * best-so-far schedule into the handle — and commits it to the
 * database — after every search checkpoint via
 * `TuneOptions::progress`, so waiting clients receive a usable (if
 * improving) schedule long before the search finishes.
 *
 * Shutdown contract: `shutdown()` (also run by the destructor) stops
 * accepting queries, drains the pool (every submitted tune finishes),
 * asserts that no tasks leaked and no tune is still registered
 * in-flight, then optionally publishes one atomic database snapshot
 * per target. Call it after client threads have stopped querying.
 */
#ifndef TENSORIR_SERVE_SERVER_H
#define TENSORIR_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "meta/database.h"
#include "meta/search.h"
#include "serve/request.h"
#include "serve/shard.h"
#include "support/sharded_counter.h"
#include "support/thread_pool.h"

namespace tir {
namespace serve {

/** Server configuration. */
struct ServeOptions
{
    /** Background tuning workers. The server's pool is created with
     *  tune_workers + 1 threads (the pool counts its owner), so this
     *  many tunes run concurrently. Must be >= 1. */
    int tune_workers = 2;
    /** Search budget for each background tune (the TensorIR persona).
     *  Its `progress` callback slot is owned by the server (overwritten
     *  per job); everything else passes through to autoTune. Keep
     *  parallelism = 1 unless tune_workers is small: each job may spawn
     *  its own nested pool. */
    meta::TuneOptions tune;
    /**
     * When non-empty: warm-start and persistence. At first use of a
     * target, records are loaded (tolerantly) from
     * "<prefix>.<target>.db" if that file exists; at shutdown every
     * target's database is atomically snapshotted back to the same
     * path.
     */
    std::string snapshot_prefix;
};

/** Monotonic counters describing server activity (one consistent
 *  snapshot via ScheduleServer::stats). */
struct ServerStats
{
    uint64_t queries = 0;
    /** Queries served by the mutex-free hot cache. */
    uint64_t hot_hits = 0;
    /** Queries served by the sharded database (then promoted). */
    uint64_t shard_hits = 0;
    /** Queries with no schedule available at query time. */
    uint64_t misses = 0;
    /** Misses that joined an already-running tune instead of starting
     *  one (the single-flight collapse). */
    uint64_t coalesced = 0;
    uint64_t tunes_started = 0;
    uint64_t tunes_completed = 0;
    /** Tunes that threw or ended without any valid schedule. */
    uint64_t tunes_failed = 0;
    /** Checkpoint records streamed to clients across all tunes. */
    uint64_t records_streamed = 0;
};

/** Answers schedule queries from the database; tunes misses in the
 *  background. All public methods are thread-safe. */
class ScheduleServer
{
  public:
    explicit ScheduleServer(ServeOptions options = {});
    ~ScheduleServer();

    ScheduleServer(const ScheduleServer&) = delete;
    ScheduleServer& operator=(const ScheduleServer&) = delete;

    /** What a query learned. */
    struct Response
    {
        /** Best schedule known right now; nullptr on a cold miss. */
        std::shared_ptr<const meta::TuneRecord> record;
        /** True when `record` is present and no tune will publish a
         *  better record: none is in flight for this workload, or the
         *  one in flight has made its final commit and only has to
         *  unregister. False means a background tune is (or just
         *  started) running — `pending` is set and may stream something
         *  better. */
        bool final = false;
        /** Whether the hot cache served `record` (fast path). */
        bool from_hot_cache = false;
        /** Handle on the in-flight tune; nullptr when none. */
        std::shared_ptr<PendingTune> pending;
    };

    /**
     * Non-blocking query: look up the best known schedule for
     * task.func on task.target. On a miss, starts (or joins — single
     * flight) a background tune and returns its PendingTune handle
     * immediately.
     */
    Response query(const meta::TuneTask& task);

    /**
     * Blocking convenience: query, and on a miss wait up to `timeout`
     * for the first streamed schedule. Returns the best record
     * available within the deadline, or nullopt.
     */
    std::optional<meta::TuneRecord>
    getBest(const meta::TuneTask& task, std::chrono::milliseconds timeout);

    /** Drain background tunes, assert nothing leaked, snapshot each
     *  target database if configured. Idempotent; queries after
     *  shutdown raise FatalError. */
    void shutdown();

    /** One consistent snapshot of the activity counters. */
    ServerStats stats() const;

    /** Tunes currently registered in flight. */
    size_t pendingTunes() const;

    /** Pool tasks not yet finished (0 after shutdown — the "no leaked
     *  pool tasks" assertion the CI smoke job checks). */
    size_t pendingPoolTasks() const { return pool_.pendingTasks(); }

    /** Per-target state, created on first use (exposed for tests and
     *  for pre-seeding a database by hand). */
    TargetShard& target(const std::string& name);

  private:
    using FlightKey = std::pair<std::string, uint64_t>;
    /** Every target created so far, by name. Immutable once published:
     *  creating a target publishes a grown copy. */
    using TargetIndex = std::vector<std::pair<std::string, TargetShard*>>;

    /** The published index's shard for `name`, or nullptr. */
    TargetShard* findTarget(const std::string& name) const;

    void runTune(std::string target_name, TargetShard* shard,
                 meta::TuneTask task, uint64_t workload_hash,
                 std::shared_ptr<PendingTune> pending);

    ServeOptions options_;

    /** Serializes target creation; lookups read `target_index_`. */
    mutable std::mutex targets_mutex_;
    std::vector<std::unique_ptr<TargetShard>> targets_;
    /** Every index ever published, kept so that a pointer a reader
     *  loaded stays valid for the server's lifetime. */
    std::vector<std::unique_ptr<const TargetIndex>> target_indexes_;
    std::atomic<const TargetIndex*> target_index_{nullptr};

    mutable std::mutex inflight_mutex_;
    std::map<FlightKey, std::shared_ptr<PendingTune>> inflight_;

    std::atomic<bool> accepting_{true};
    std::mutex shutdown_mutex_;
    bool shut_down_ = false;

    // Counters are individually relaxed-atomic; stats() copies them
    // into one ServerStats (each value exact, the set approximately
    // simultaneous — fine for monitoring and test assertions made
    // after drain()). Hot hits count per thread; every query is one
    // hot hit, shard hit or miss, so stats() derives `queries`.
    support::ShardedCounter hot_hits_;
    std::atomic<uint64_t> shard_hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> coalesced_{0};
    std::atomic<uint64_t> tunes_started_{0};
    std::atomic<uint64_t> tunes_completed_{0};
    std::atomic<uint64_t> tunes_failed_{0};
    std::atomic<uint64_t> records_streamed_{0};

    /** Last member: workers die before the state they touch. */
    support::ThreadPool pool_;
};

} // namespace serve
} // namespace tir

#endif // TENSORIR_SERVE_SERVER_H
