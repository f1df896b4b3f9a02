/**
 * @file
 * Tuning database (§5.2: "TensorIR can eliminate search time further by
 * caching historical cost models and search records. So no search is
 * needed to build a model for an operator already tuned."). Records map
 * a workload's structural hash to the best decision trace found; the
 * tuner replays a hit instead of searching, and the schedule server
 * (serve/server.h) answers queries from it.
 *
 * File format: one CRC frame (support/frame.h) per record, records in
 * workload-hash order. A record body is a header line
 *
 *     record <hash> <latency bits> <latency decimal> <sketch> [name]
 *
 * followed by one decision line per decision (decisionText()). The
 * latency's IEEE-754 bit pattern (support/double_bits.h) is the parsed
 * value, the decimal is for human readers, and the name runs to end of
 * line so names with spaces round-trip.
 */
#ifndef TENSORIR_META_DATABASE_H
#define TENSORIR_META_DATABASE_H

#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "tir/schedule.h"

namespace tir {
namespace meta {

/** One decision as text: "tile <extent> <number> <max_innermost>
 *  <num_candidates> <values...>" or the same with "cat". The one
 *  Decision codec, shared by database records and journal checkpoints. */
std::string decisionText(const Decision& d);

/** Parse the rest of `is` as one decisionText(); false when it is not
 *  exactly that. */
bool readDecision(std::istream& is, Decision* d);

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

/** Outcome of a parse: how much survived, how much did not. */
struct LoadReport
{
    /** Records recovered intact. */
    int loaded = 0;
    /** Records lost: a damaged frame or body, or a torn trailing
     *  record. Bytes between frames cost nothing. */
    int dropped = 0;
};

/**
 * Thread-safe store of tuning records keyed by workload hash. Records
 * are partitioned over N shards by hash, each guarded by its own
 * reader-writer lock, so lookups of different workloads never contend
 * and a commit blocks readers of its own shard only.
 *
 * Every operation is atomic, and commit keeps the per-workload
 * improve-only invariant under any interleaving (a worse record never
 * overwrites a better one). serialize() and save() are per-shard
 * consistent: taken while commits race, they may mix shard states from
 * slightly different instants, but every record in them was committed
 * and is intact.
 */
class TuningDatabase
{
  public:
    explicit TuningDatabase(int shards = 16);

    TuningDatabase(const TuningDatabase&) = delete;
    TuningDatabase& operator=(const TuningDatabase&) = delete;

    /** Insert (or improve) the record for a workload. */
    void commit(TuneRecord record);

    /** Best known record, or nullopt when the workload is unseen.
     *  Takes a shared lock on one shard. */
    std::optional<TuneRecord> lookup(const PrimFunc& workload) const;
    std::optional<TuneRecord> lookup(uint64_t workload_hash) const;

    /** Total records across all shards. */
    size_t size() const;

    int shardCount() const { return static_cast<int>(shards_.size()); }

    /** Every record as frames, in workload-hash order, so the text does
     *  not depend on the shard count and a parse/serialize round trip
     *  is byte-identical. */
    std::string serialize() const;

    /** Commit every intact record of serialize() text (improve-only).
     *  Always tolerant: a damaged or torn record is skipped and
     *  counted, never fatal, and intact records on either side of it
     *  still load. */
    LoadReport parse(std::string_view text);

    /**
     * Write serialize() to `path` atomically: a temporary file in the
     * same directory, flushed and checked, then renamed over `path`. A
     * reader or a crash sees the previous file or the new one, never a
     * torn mix; a failed write leaves the previous file in place. Safe
     * while commits and lookups race.
     */
    void save(const std::string& path) const;

    /** parse() the file at `path`; FatalError when it cannot be read. */
    LoadReport load(const std::string& path);

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
