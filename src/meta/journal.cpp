#include "meta/journal.h"

#include <filesystem>
#include <optional>
#include <sstream>

#include "meta/database.h"
#include "support/double_bits.h"
#include "support/failpoint.h"
#include "support/frame.h"
#include "support/logging.h"

namespace tir {
namespace meta {

namespace {

using support::doubleBitsHex;

/** Read one doubleBitsHex() token into `*value`; false when the token
 *  is missing or malformed. */
bool
readBits(std::istream& is, double* value)
{
    std::string hex;
    return static_cast<bool>(is >> hex) &&
           support::doubleFromBitsHex(hex, value);
}

/** Append the remaining doubleBitsHex() tokens of `is` to `out`, up to
 *  the end or a "|" separator; false on a malformed token. */
bool
readBitsList(std::istream& is, std::vector<double>* out)
{
    std::string hex;
    while (is >> hex && hex != "|") {
        double value = 0;
        if (!support::doubleFromBitsHex(hex, &value)) return false;
        out->push_back(value);
    }
    return true;
}

// --- record bodies ------------------------------------------------------

/** Format tag of the identity line; bump it whenever a record's layout
 *  or the identity's field set changes, so older journals never match
 *  and their searches start fresh. */
constexpr const char* kFormatTag = "v5";

std::string
generationBody(const JournalGeneration& g)
{
    std::ostringstream os;
    os << "gen " << g.index << " " << doubleBitsHex(g.tuning_cost_us);
    for (const TuneCounters::Field& f : TuneCounters::kFields) {
        os << " " << g.counters.*f.member;
    }
    os << "\n";
    os << "best " << doubleBitsHex(g.best_latency_us) << "\n";
    for (const Decision& d : g.best_decisions) {
        os << "bd " << decisionText(d) << "\n";
    }
    os << "history";
    for (double h : g.history) os << " " << doubleBitsHex(h);
    os << "\n";
    for (const JournalIndividual& ind : g.population) {
        os << "indiv " << doubleBitsHex(ind.latency_us) << " "
           << ind.decisions.size() << "\n";
        for (const Decision& d : ind.decisions) {
            os << "id " << decisionText(d) << "\n";
        }
    }
    for (const JournalSample& s : g.new_samples) {
        os << "sample " << doubleBitsHex(s.target);
        for (double f : s.features) os << " " << doubleBitsHex(f);
        os << "\n";
    }
    for (const auto& [hash, e] : g.memo) {
        // The analysis verdict is a RejectKind index, -1 when it passed.
        os << "memo " << hash << " "
           << (e.reject ? static_cast<int>(*e.reject) : -1) << " "
           << e.measured << " " << e.eval_failed
           << " " << e.compile_timed_out << " " << e.crashed << " "
           << e.hanged << " " << doubleBitsHex(e.estimate.latency_us)
           << " " << doubleBitsHex(e.measured_latency_us);
        for (double f : e.features) os << " " << doubleBitsHex(f);
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
parseRecord(std::string_view body, JournalContents* out)
{
    std::istringstream is{std::string(body)};
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
        if (tag == "section") {
            identity = line;
        } else if (tag == "gen") {
            ls >> gen.index;
            if (!readBits(ls, &gen.tuning_cost_us)) return false;
            for (const TuneCounters::Field& f : TuneCounters::kFields) {
                ls >> gen.counters.*f.member;
            }
            if (ls.fail()) return false;
            is_gen = true;
        } else if (tag == "best") {
            if (!readBits(ls, &gen.best_latency_us)) return false;
        } else if (tag == "bd") {
            Decision d;
            if (!readDecision(ls, &d)) return false;
            gen.best_decisions.push_back(std::move(d));
        } else if (tag == "history") {
            if (!readBitsList(ls, &gen.history)) return false;
        } else if (tag == "indiv") {
            JournalIndividual ind;
            if (!readBits(ls, &ind.latency_us)) return false;
            ls >> open_indiv_decisions;
            if (ls.fail()) return false;
            gen.population.push_back(std::move(ind));
            open_indiv = &gen.population.back();
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
            if (!readBits(ls, &s.target) ||
                !readBitsList(ls, &s.features)) {
                return false;
            }
            gen.new_samples.push_back(std::move(s));
        } else if (tag == "memo") {
            uint64_t hash = 0;
            int verdict = 0;
            MemoEntry e;
            ls >> hash >> verdict >> e.measured >> e.eval_failed >>
                e.compile_timed_out >> e.crashed >> e.hanged;
            if (ls.fail() || verdict < -1 ||
                verdict >= static_cast<int>(kNumRejectKinds) ||
                !readBits(ls, &e.estimate.latency_us) ||
                !readBits(ls, &e.measured_latency_us) ||
                !readBitsList(ls, &e.features)) {
                return false;
            }
            if (verdict >= 0) e.reject = static_cast<RejectKind>(verdict);
            // readBitsList stopped at the "|" separator, if any: the
            // rest of the line, minus one space, is the violation text.
            if (std::getline(ls, e.estimate.violation) &&
                !e.estimate.violation.empty()) {
                e.estimate.violation.erase(0, 1);
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
       << doubleBitsHex(options.measure_overhead_us) << " "
       << doubleBitsHex(options.measure_repeats) << " "
       // The measurement configuration is part of the identity: a
       // journaled wall-clock trajectory must not be replayed into a
       // run configured for a different backend or discipline.
       << token(options.measure_backend) << " " << options.measure_warmup
       << " " << options.measure_repeats_real << " "
       << doubleBitsHex(options.compile_budget_ms) << " "
       // So are the candidate filters and evaluation limits: each one
       // decides which candidates survive.
       << options.lint_filter << " " << options.numeric_check_topk << " "
       << doubleBitsHex(options.numeric_check_tolerance) << " "
       << options.eval_step_limit;
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

    // Walk frame by frame (support/frame.h). The first damaged frame
    // (bad checksum, torn tail, malformed body) ends recovery:
    // everything after it may depend on the lost state.
    size_t pos = 0;
    while (pos < text.size()) {
        support::FrameScan scan = support::scanFrame(text, pos);
        if (scan.status != support::FrameScan::Status::kComplete ||
            !parseRecord(scan.body, &out)) {
            ++out.records_dropped;
            break;
        }
        pos = scan.end;
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
JournalWriter::appendRecord(std::string_view body)
{
    std::string framed = support::frame(body);
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
