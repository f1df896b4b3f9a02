/**
 * @file
 * Crash-safe tuning-session journal: an append-only, checksummed,
 * line-oriented log of search state written at generation granularity,
 * so a crash mid-search loses at most the generation in flight.
 *
 * A journal file holds a sequence of *sections*, one per
 * `evolutionarySearch` run, each identified by its identity line
 * (journalIdentity: a format tag, the workload hash, seed, label and
 * search options). A section's records are state checkpoints: record
 * index 0 is the state after the initial random population, index g+1
 * the state after evolution generation g. Each record is one CRC frame
 * (support/frame.h), so a record torn by a crash mid-write — or
 * corrupted on disk — is detected and dropped on load rather than
 * poisoning the session.
 *
 * Recovery semantics: `readJournal` recovers every intact record up to
 * the first damaged one and reports how many record frames it dropped.
 * `JournalContents::valid_bytes` is the byte offset where appending
 * must resume; `JournalWriter` truncates any torn tail away before
 * reopening in append mode, which is what makes resume-after-crash
 * produce a well-formed file again.
 *
 * Checkpoints store the search's own types: the TuneCounters block,
 * best, history, the survivor population's decision traces, and
 * per-generation deltas of the training set and of the structural-hash
 * memo (every MemoEntry added or changed since the last checkpoint).
 * Because the search is deterministic for a fixed seed, restoring that
 * state and re-running the remaining generations yields a `TuneResult`
 * byte-identical to an uninterrupted run; programs are re-derived from
 * decision traces instead of being serialized.
 *
 * Doubles are stored as 16-hex-digit IEEE-754 bit patterns
 * (support/double_bits.h) so values round-trip exactly (latency
 * comparisons and cost-model targets must not drift by a ULP across a
 * resume); decisions use the database's codec (meta/database.h).
 */
#ifndef TENSORIR_META_JOURNAL_H
#define TENSORIR_META_JOURNAL_H

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "meta/gbdt.h"
#include "meta/memo.h"
#include "meta/search.h"
#include "tir/schedule.h"

namespace tir {
namespace meta {

/**
 * Identity line of the section a search journals into: a format tag,
 * the workload hash, seed, label (TuneOptions::journal_label, a single
 * token) and every option that shapes the trajectory, doubles as exact
 * bit patterns. Resume replays only a section whose identity matches
 * byte for byte — a changed option or seed would make the journaled
 * trajectory meaningless, and a journal of another format never
 * matches, so its search starts fresh.
 */
std::string journalIdentity(uint64_t workload_hash,
                            const TuneOptions& options);

/** One survivor of the search's population, as the search holds it
 *  and the journal stores it: the decision trace (read by mutation)
 *  and the measured latency (read by survival). */
struct JournalIndividual
{
    double latency_us = 0;
    std::vector<Decision> decisions;
};

/** One cost-model training sample committed during a generation. */
struct JournalSample
{
    FeatureVec features;
    double target = 0;
};

/** State checkpoint after one completed generation. Counters are
 *  absolute (the search state at the end of the generation); samples
 *  and memo entries are per-generation deltas. */
struct JournalGeneration
{
    /** 0 = after the initial population; g+1 = after generation g. */
    int index = 0;
    TuneCounters counters;
    double tuning_cost_us = 0;
    double best_latency_us = std::numeric_limits<double>::infinity();
    std::vector<Decision> best_decisions;
    std::vector<double> history;
    std::vector<JournalIndividual> population;
    std::vector<JournalSample> new_samples;
    /** Memo entries added or changed this generation, by structural
     *  hash. An entry measured generations after it was added appears
     *  again with its measurement; restore keeps the last record. */
    std::vector<std::pair<uint64_t, MemoEntry>> memo;
};

/** One search's records, in append order. */
struct JournalSection
{
    /** The journalIdentity line that opened the section. */
    std::string identity;
    std::vector<JournalGeneration> generations;
};

/** Parsed journal file plus recovery metadata. */
struct JournalContents
{
    std::vector<JournalSection> sections;
    /** End of the last intact record; appending resumes here (any torn
     *  trailing bytes are truncated away by JournalWriter). */
    uint64_t valid_bytes = 0;
    /** Record frames dropped (checksum mismatch or truncation). */
    int records_dropped = 0;

    /** Last section with this identity (appends win), or nullptr. */
    const JournalSection* findSection(const std::string& identity) const;
};

/** Read `path` tolerantly; a missing file yields empty contents. */
JournalContents readJournal(const std::string& path);

/** Truncate `path` to an empty journal (fresh, non-resumed session). */
void resetJournal(const std::string& path);

/** Append-only record writer. Every record is flushed and checked, so
 *  a record either lands intact or is detectably torn. */
class JournalWriter
{
  public:
    /** Truncate to `resume_at` (= JournalContents::valid_bytes, to
     *  drop a torn tail), then open for appending (creating the file
     *  if missing). */
    JournalWriter(const std::string& path, uint64_t resume_at);

    /** Start a new section with a journalIdentity line. */
    void beginSection(const std::string& identity);
    /** Append one generation checkpoint to the open section. */
    void appendGeneration(const JournalGeneration& gen);

  private:
    void appendRecord(std::string_view body);

    std::string path_;
    std::ofstream out_;
};

} // namespace meta
} // namespace tir

#endif // TENSORIR_META_JOURNAL_H
