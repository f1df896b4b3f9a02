/**
 * @file
 * Tuning database (§5.2: "TensorIR can eliminate search time further by
 * caching historical cost models and search records. So no search is
 * needed to build a model for an operator already tuned."). Records map
 * a workload's structural hash to the best decision trace found; the
 * tuner replays a hit instead of searching. Records round-trip through
 * a plain-text format for persistence.
 */
#ifndef TENSORIR_META_DATABASE_H
#define TENSORIR_META_DATABASE_H

#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "tir/schedule.h"

namespace tir {
namespace meta {

/** One tuning record: the winning decisions for a workload. */
struct TuneRecord
{
    uint64_t workload_hash = 0;
    std::string workload_name;
    std::vector<Decision> decisions;
    double latency_us = 0;
    /** Which sketch family produced it ("tensor" or "loop"). */
    std::string sketch;
};

/** Outcome of a tolerant parse: how much survived, how much did not. */
struct LoadReport
{
    /** Records recovered intact. */
    int loaded = 0;
    /** Records dropped because they were malformed or truncated (the
     *  crash-mid-write case: a torn trailing record loses itself, never
     *  the complete records before it). */
    int dropped = 0;
};

/** In-memory store of tuning records keyed by workload hash. */
class TuningDatabase
{
  public:
    /** Insert (or improve) the record for a workload. */
    void commit(TuneRecord record);

    /** Best known record, or nullopt when the workload is unseen. */
    std::optional<TuneRecord> lookup(const PrimFunc& workload) const;
    std::optional<TuneRecord> lookup(uint64_t workload_hash) const;

    size_t size() const { return records_.size(); }

    /** All records, keyed by workload hash (read-only iteration; used
     *  by the sharded database to absorb offline snapshots). */
    const std::map<uint64_t, TuneRecord>&
    records() const
    {
        return records_;
    }

    /**
     * Serialize all records to a line-oriented text format. Latencies
     * are written as their IEEE-754 bit pattern (the journal's
     * convention, support/double_bits.h) with a human-readable decimal
     * alongside, so a save/load round-trip is byte-identical and never
     * perturbs the `commit()` improve-comparison; workload names sit at
     * end-of-line, so names containing spaces round-trip too.
     */
    std::string serialize() const;
    /**
     * Parse records produced by serialize(). Without a report this is
     * strict: any malformed line aborts with FatalError (an in-memory
     * round-trip that fails is a bug, not damage). With a report the
     * parse is tolerant — corrupt or truncated records are skipped and
     * counted, and parsing resyncs at the next `record` line — which is
     * the mode for data that crossed a crash or a disk.
     */
    static TuningDatabase deserialize(const std::string& text,
                                      LoadReport* report = nullptr);

    /** Save to / load from a file. load() parses tolerantly (a crash
     *  mid-save leaves a truncated trailing record; the session keeps
     *  every intact record instead of aborting), filling `report` with
     *  the recovered/dropped counts when given. */
    void save(const std::string& path) const;
    static TuningDatabase load(const std::string& path,
                               LoadReport* report = nullptr);

  private:
    std::map<uint64_t, TuneRecord> records_;
};

/**
 * Thread-safe, sharded tuning database: records are partitioned over N
 * independent shards by workload hash, each guarded by its own
 * reader-writer lock, so concurrent lookups on different workloads
 * never contend and a commit only blocks readers of its own shard.
 * This is the authoritative store behind the schedule-serving layer
 * (serve/server.h); the single-threaded TuningDatabase remains the
 * offline format owner (serialize/deserialize) and the two exchange
 * records via snapshot()/absorb().
 *
 * Consistency contract: every individual operation is atomic, and
 * commit keeps the per-workload improve-only invariant under any
 * interleaving (a worse record never overwrites a better one).
 * snapshot() and saveSnapshot() are per-shard consistent — a snapshot
 * taken while commits race may mix shard states from slightly
 * different instants, but every record it contains was committed and
 * intact.
 */
class ShardedTuningDatabase
{
  public:
    explicit ShardedTuningDatabase(int shards = 16);

    ShardedTuningDatabase(const ShardedTuningDatabase&) = delete;
    ShardedTuningDatabase& operator=(const ShardedTuningDatabase&) =
        delete;

    /** Insert (or improve) the record for a workload. Thread-safe. */
    void commit(TuneRecord record);

    /** Best known record, or nullopt. Takes a shared (reader) lock on
     *  one shard only. Thread-safe. */
    std::optional<TuneRecord> lookup(uint64_t workload_hash) const;
    std::optional<TuneRecord> lookup(const PrimFunc& workload) const;

    /** Total records across all shards (per-shard consistent). */
    size_t size() const;

    int shardCount() const { return static_cast<int>(shards_.size()); }

    /** Copy every record into a plain TuningDatabase. */
    TuningDatabase snapshot() const;

    /** Merge every record of `db` (improve-only per workload). */
    void absorb(const TuningDatabase& db);

    /**
     * Atomically publish a snapshot to `path`: the records are
     * serialized to a temporary file in the same directory, flushed and
     * checked, then renamed over `path`. A reader (or a crash) never
     * observes a torn file — it sees either the previous snapshot or
     * the new one, complete. Safe to call while commits and lookups
     * race.
     */
    void saveSnapshot(const std::string& path) const;

  private:
    struct Shard
    {
        mutable std::shared_mutex mutex;
        std::map<uint64_t, TuneRecord> records;
    };

    Shard& shardFor(uint64_t hash) const;

    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace meta
} // namespace tir

#endif // TENSORIR_META_DATABASE_H
