#include "meta/journal.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>

#include "support/crc32.h"
#include "support/double_bits.h"
#include "support/failpoint.h"
#include "support/logging.h"

namespace tir {
namespace meta {

namespace {

// CRC-32 lives in support/crc32.h, shared with the measurement
// runner's pipe framing so both protocols checksum identically.
using support::crc32;

// --- exact double round-trip (support/double_bits.h, shared with the
// tuning database so both formats encode latencies identically) -------

using support::doubleBitsHex;

std::string
bitsOf(double value)
{
    return doubleBitsHex(value);
}

double
doubleOf(const std::string& hex, bool* ok)
{
    // Sticky-false accumulation: callers parse several fields into one
    // `ok` flag, so a successful parse must not clear an earlier
    // failure.
    bool field_ok = false;
    double value = support::doubleFromBitsHex(hex, &field_ok);
    if (!field_ok) *ok = false;
    return value;
}

// --- decision (de)serialization, same shape as database.cpp ------------

void
writeDecision(std::ostringstream& os, const char* tag, const Decision& d)
{
    os << tag << " "
       << (d.kind == Decision::Kind::kPerfectTile ? "tile" : "cat") << " "
       << d.extent << " " << d.number << " " << d.max_innermost << " "
       << d.num_candidates;
    for (int64_t v : d.values) os << " " << v;
    os << "\n";
}

bool
readDecision(std::istringstream& ls, Decision* d)
{
    std::string kind;
    ls >> kind;
    if (kind == "tile") {
        d->kind = Decision::Kind::kPerfectTile;
    } else if (kind == "cat") {
        d->kind = Decision::Kind::kCategorical;
    } else {
        return false;
    }
    ls >> d->extent >> d->number >> d->max_innermost >> d->num_candidates;
    if (ls.fail()) return false;
    int64_t v;
    while (ls >> v) d->values.push_back(v);
    return true;
}

// --- record bodies ------------------------------------------------------

/** Format tag of the identity line; bump it whenever a record's layout
 *  changes, so older journals never match and their searches start
 *  fresh. */
constexpr const char* kFormatTag = "v2";

std::string
generationBody(const JournalGeneration& g)
{
    std::ostringstream os;
    os << "gen " << g.index << " " << bitsOf(g.tuning_cost_us);
    for (const TuneCounters::Field& f : TuneCounters::kFields) {
        os << " " << g.counters.*f.member;
    }
    os << "\n";
    os << "best " << bitsOf(g.best_latency_us) << "\n";
    for (const Decision& d : g.best_decisions) writeDecision(os, "bd", d);
    os << "history";
    for (double h : g.history) os << " " << bitsOf(h);
    os << "\n";
    for (const JournalIndividual& ind : g.population) {
        os << "indiv " << bitsOf(ind.latency_us) << " "
           << ind.decisions.size() << "\n";
        for (const Decision& d : ind.decisions) writeDecision(os, "id", d);
    }
    for (const JournalSample& s : g.new_samples) {
        os << "sample " << bitsOf(s.target);
        for (double f : s.features) os << " " << bitsOf(f);
        os << "\n";
    }
    for (const auto& [hash, e] : g.memo) {
        os << "memo " << hash << " " << e.measured << " " << e.eval_failed
           << " " << e.compile_timed_out << " " << e.crashed << " "
           << e.hanged << " " << bitsOf(e.estimate.latency_us) << " "
           << bitsOf(e.measured_latency_us);
        for (double f : e.features) os << " " << bitsOf(f);
        // The violation text can hold spaces; keep it last, behind an
        // unambiguous separator, so the feature list stays parseable.
        if (!e.estimate.violation.empty()) {
            os << " | " << e.estimate.violation;
        }
        os << "\n";
    }
    return os.str();
}

// --- record parsing -----------------------------------------------------

/** Parse one record body into `out`. Returns false on any malformed
 *  line (the caller treats the record as damaged). */
bool
parseRecord(const std::string& body, JournalContents* out)
{
    std::istringstream is(body);
    std::string line;
    std::optional<std::string> identity;
    JournalGeneration gen;
    bool is_gen = false;
    JournalIndividual* open_indiv = nullptr;
    size_t open_indiv_decisions = 0;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        bool ok = true;
        if (tag == "section") {
            identity = line;
        } else if (tag == "gen") {
            std::string cost;
            ls >> gen.index >> cost;
            for (const TuneCounters::Field& f : TuneCounters::kFields) {
                ls >> gen.counters.*f.member;
            }
            if (ls.fail()) return false;
            gen.tuning_cost_us = doubleOf(cost, &ok);
            if (!ok) return false;
            is_gen = true;
        } else if (tag == "best") {
            std::string lat;
            ls >> lat;
            gen.best_latency_us = doubleOf(lat, &ok);
            if (ls.fail() || !ok) return false;
        } else if (tag == "bd") {
            Decision d;
            if (!readDecision(ls, &d)) return false;
            gen.best_decisions.push_back(std::move(d));
        } else if (tag == "history") {
            std::string h;
            while (ls >> h) {
                gen.history.push_back(doubleOf(h, &ok));
                if (!ok) return false;
            }
        } else if (tag == "indiv") {
            std::string lat;
            ls >> lat;
            JournalIndividual ind;
            ind.latency_us = doubleOf(lat, &ok);
            size_t n_decisions = 0;
            ls >> n_decisions;
            if (ls.fail() || !ok) return false;
            gen.population.push_back(std::move(ind));
            open_indiv = &gen.population.back();
            open_indiv_decisions = n_decisions;
        } else if (tag == "id") {
            if (!open_indiv ||
                open_indiv->decisions.size() >= open_indiv_decisions) {
                return false;
            }
            Decision d;
            if (!readDecision(ls, &d)) return false;
            open_indiv->decisions.push_back(std::move(d));
        } else if (tag == "sample") {
            JournalSample s;
            std::string word;
            ls >> word;
            s.target = doubleOf(word, &ok);
            if (ls.fail() || !ok) return false;
            while (ls >> word) {
                s.features.push_back(doubleOf(word, &ok));
                if (!ok) return false;
            }
            gen.new_samples.push_back(std::move(s));
        } else if (tag == "memo") {
            uint64_t hash = 0;
            MemoEntry e;
            std::string word, mword;
            ls >> hash >> e.measured >> e.eval_failed >>
                e.compile_timed_out >> e.crashed >> e.hanged >> word >>
                mword;
            if (ls.fail()) return false;
            e.estimate.latency_us = doubleOf(word, &ok);
            e.measured_latency_us = doubleOf(mword, &ok);
            if (!ok) return false;
            while (ls >> word) {
                if (word == "|") {
                    std::getline(ls, e.estimate.violation);
                    if (!e.estimate.violation.empty() &&
                        e.estimate.violation.front() == ' ') {
                        e.estimate.violation.erase(0, 1);
                    }
                    break;
                }
                e.features.push_back(doubleOf(word, &ok));
                if (!ok) return false;
            }
            gen.memo.emplace_back(hash, std::move(e));
        } else if (!tag.empty()) {
            return false;
        }
    }
    if (identity) out->sections.push_back({*identity, {}});
    if (is_gen) {
        if (out->sections.empty()) return false;
        JournalSection& section = out->sections.back();
        // Checkpoints append in index order within a section; anything
        // else means frames from different runs interleaved.
        if (gen.index != static_cast<int>(section.generations.size())) {
            return false;
        }
        section.generations.push_back(std::move(gen));
    }
    return true;
}

} // namespace

std::string
journalIdentity(uint64_t workload_hash, const TuneOptions& options)
{
    auto token = [](const std::string& s) { return s.empty() ? "-" : s; };
    std::ostringstream os;
    os << "section " << kFormatTag << " " << workload_hash << " "
       << options.seed << " " << token(options.journal_label) << " "
       << options.population << " " << options.generations << " "
       << options.children_per_generation << " "
       << options.measured_per_generation << " "
       << options.use_cost_model << " "
       << bitsOf(options.measure_overhead_us) << " "
       << bitsOf(options.measure_repeats) << " "
       // The measurement configuration is part of the identity: a
       // journaled wall-clock trajectory must not be replayed into a
       // run configured for a different backend or discipline.
       << token(options.measure_backend) << " " << options.measure_warmup
       << " " << options.measure_repeats_real << " "
       << bitsOf(options.compile_budget_ms) << " "
       << options.measure_pin_cpu;
    return os.str();
}

const JournalSection*
JournalContents::findSection(const std::string& identity) const
{
    for (auto it = sections.rbegin(); it != sections.rend(); ++it) {
        if (it->identity == identity) return &*it;
    }
    return nullptr;
}

JournalContents
readJournal(const std::string& path)
{
    JournalContents out;
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) return out;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    // Records are framed by a trailing "crc <8 hex>" line. Walk frame
    // by frame; the first damaged frame (bad checksum, torn tail,
    // malformed body) ends recovery — everything after it may depend on
    // the lost state.
    size_t pos = 0;
    while (pos < text.size()) {
        size_t scan = pos;
        size_t frame_end = std::string::npos;
        std::string body;
        while (scan < text.size()) {
            size_t nl = text.find('\n', scan);
            if (nl == std::string::npos) break; // torn: no newline
            std::string line = text.substr(scan, nl - scan);
            if (line.rfind("crc ", 0) == 0) {
                body = text.substr(pos, scan - pos);
                frame_end = nl + 1;
                uint32_t stored =
                    static_cast<uint32_t>(std::strtoul(
                        line.c_str() + 4, nullptr, 16));
                if (line.size() != 12 || stored != crc32(body)) {
                    frame_end = std::string::npos; // damaged frame
                }
                break;
            }
            scan = nl + 1;
        }
        if (frame_end == std::string::npos) {
            ++out.records_dropped;
            break;
        }
        if (!parseRecord(body, &out)) {
            ++out.records_dropped;
            break;
        }
        pos = frame_end;
        out.valid_bytes = pos;
    }
    return out;
}

void
resetJournal(const std::string& path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    TIR_CHECK(out.good()) << "cannot open journal " << path;
}

JournalWriter::JournalWriter(const std::string& path, uint64_t resume_at)
    : path_(path)
{
    // Drop any torn tail left by the crash before appending: the bytes
    // past the last intact record are unparseable garbage.
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
        std::filesystem::resize_file(path, resume_at, ec);
        TIR_CHECK(!ec) << "cannot truncate journal " << path << ": "
                       << ec.message();
    }
    out_.open(path, std::ios::binary | std::ios::app);
    TIR_CHECK(out_.good()) << "cannot open journal " << path;
}

void
JournalWriter::beginSection(const std::string& identity)
{
    appendRecord(identity + "\n");
}

void
JournalWriter::appendGeneration(const JournalGeneration& gen)
{
    appendRecord(generationBody(gen));
}

void
JournalWriter::appendRecord(std::string body)
{
    char crc_line[16];
    std::snprintf(crc_line, sizeof(crc_line), "crc %08x\n", crc32(body));
    std::string framed = std::move(body);
    framed += crc_line;
    // Chaos hook: flip bytes of the framed record before it hits disk,
    // so recovery of a corrupted-on-disk journal is testable.
    failpoint::injectCorrupt("journal.append", framed);
    out_ << framed;
    out_.flush();
    TIR_CHECK(out_.good())
        << "journal write to " << path_
        << " failed (disk full or I/O error)";
}

} // namespace meta
} // namespace tir
