/**
 * @file
 * Per-target serving state: the authoritative sharded tuning database
 * plus a mutex-free hot cache in front of it.
 *
 * The hot cache is the read-side fast path of the schedule server: a
 * fixed, power-of-two array of set-associative slots whose payloads are
 * published as plain std::atomic<const TuneRecord*> loads, so a hit is
 * one wait-free atomic load, a hash compare, and a reference-count bump
 * on the shared ownership anchor — no mutex, no reader-writer lock, no
 * contention with concurrent inserts. (std::atomic<std::shared_ptr> was
 * deliberately avoided: libstdc++'s _Sp_atomic takes a packed-bit
 * spinlock on every load, so it is not actually lock-free, and TSan
 * cannot model that lock protocol.) Recency is tracked with a relaxed
 * global touch clock; inserts and evictions (the cold path) serialize
 * on a small mutex and evict the least-recently-touched slot of the
 * probe set.
 *
 * Ownership: every record ever published is retired into an append-only
 * arena rather than freed on displacement, so a raw slot pointer read
 * by a racing get() stays valid without readers touching per-record
 * reference counts. The arena is reclaimed when the cache (and the last
 * outstanding hit) goes away. Puts are low-rate — database promotions
 * and tuning improvements, not queries — so retaining O(#puts) small
 * records is the price of a wait-free read path.
 */
#ifndef TENSORIR_SERVE_SHARD_H
#define TENSORIR_SERVE_SHARD_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "hwsim/device.h"
#include "meta/database.h"

namespace tir {
namespace serve {

/**
 * Lossy, bounded, mutex-free-on-read cache of TuneRecords keyed by
 * workload structural hash. A miss here is not authoritative — the
 * sharded database behind it is; the cache only keeps popular records
 * one atomic load away.
 */
class HotCache
{
  public:
    /** `slots` is rounded up to a power of two (minimum one probe
     *  set of kWays slots). */
    explicit HotCache(size_t slots = 256);

    HotCache(const HotCache&) = delete;
    HotCache& operator=(const HotCache&) = delete;

    /** Hit: the cached record (shared, immutable; aliases the arena
     *  anchor, so it stays valid after eviction or cache teardown).
     *  Miss: nullptr. Wait-free — safe against concurrent put() at
     *  full speed. */
    std::shared_ptr<const meta::TuneRecord> get(uint64_t hash) const;

    /** Insert or replace the record for its workload hash, evicting the
     *  least-recently-touched slot of the probe set when full. Callers
     *  must only put records that improve on (or match) the database's
     *  best for that hash — the cache itself is last-writer-wins. */
    void put(std::shared_ptr<const meta::TuneRecord> record);

    size_t capacity() const { return slots_.size(); }

    /** Records displaced to make room (monotonic; for tests/stats). */
    uint64_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

  private:
    struct Slot
    {
        /** Payload, atomically published; points into the arena, which
         *  never frees a record while the cache lives. The workload
         *  hash lives inside the record itself, so one load yields a
         *  consistent (key, value) pair — no torn key/payload mix. */
        std::atomic<const meta::TuneRecord*> record{nullptr};
        /** Touch stamp from the global clock (relaxed; approximate
         *  recency is all eviction needs). */
        std::atomic<uint64_t> stamp{0};
    };

    /** Owns every record ever published through a slot (append-only
     *  under insert_mutex_). Hits alias its shared anchor, so a
     *  record outlives both its eviction and the cache itself for as
     *  long as any client still holds it. */
    using Arena = std::vector<std::shared_ptr<const meta::TuneRecord>>;

    /** Probe-set width: a record for hash H may live in any of the
     *  kWays consecutive slots starting at H & mask. */
    static constexpr size_t kWays = 4;

    size_t slotIndex(uint64_t hash) const;

    std::vector<Slot> slots_;
    /** Never reassigned after construction, so readers may copy it
     *  (the aliasing-anchor refcount bump) without synchronization. */
    std::shared_ptr<Arena> arena_;
    /** Global touch clock (relaxed increments; ordering between two
     *  touches of different slots is irrelevant). */
    mutable std::atomic<uint64_t> clock_{1};
    std::atomic<uint64_t> evictions_{0};
    /** Serializes put() only; get() never takes it. */
    std::mutex insert_mutex_;
};

/**
 * Everything the server keeps per target ("gpu", "cpu"): the device
 * model tunes run against, the sharded authoritative database, and the
 * hot cache. Lookup checks the hot cache first and promotes database
 * hits into it; commit writes the database first (improve-only), then
 * refreshes the cache with the database's winner so a slower record can
 * never shadow a faster one in the fast path.
 */
class TargetShard
{
  public:
    explicit TargetShard(std::unique_ptr<hwsim::DeviceModel> device);

    struct Hit
    {
        std::shared_ptr<const meta::TuneRecord> record;
        /** Whether the fast path served it (vs. a database read). */
        bool from_hot_cache = false;
    };

    /** Best known record for the workload hash, or nullopt. */
    std::optional<Hit> lookup(uint64_t workload_hash);

    /** Improve-only insert into the database, then hot-cache refresh. */
    void commit(meta::TuneRecord record);

    const hwsim::DeviceModel& device() const { return *device_; }
    meta::TuningDatabase& database() { return database_; }
    const meta::TuningDatabase& database() const { return database_; }
    HotCache& hotCache() { return hot_; }

  private:
    std::unique_ptr<hwsim::DeviceModel> device_;
    meta::TuningDatabase database_;
    HotCache hot_;
};

} // namespace serve
} // namespace tir

#endif // TENSORIR_SERVE_SHARD_H
