#include "meta/database.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>

#include "ir/structural_hash.h"
#include "support/double_bits.h"
#include "support/failpoint.h"
#include "support/frame.h"
#include "support/trace.h"

namespace tir {
namespace meta {

std::string
decisionText(const Decision& d)
{
    std::ostringstream os;
    os << (d.kind == Decision::Kind::kPerfectTile ? "tile" : "cat") << " "
       << d.extent << " " << d.number << " " << d.max_innermost << " "
       << d.num_candidates;
    for (int64_t v : d.values) os << " " << v;
    return os.str();
}

bool
readDecision(std::istream& is, Decision* d)
{
    std::string kind;
    is >> kind >> d->extent >> d->number >> d->max_innermost >>
        d->num_candidates;
    if (is.fail() || (kind != "tile" && kind != "cat")) return false;
    d->kind = kind == "tile" ? Decision::Kind::kPerfectTile
                             : Decision::Kind::kCategorical;
    int64_t v = 0;
    while (is >> v) d->values.push_back(v);
    // Stopping anywhere but the end means a token that is no integer.
    return is.eof();
}

namespace {

/** One record's frame body (see the format in the header). */
std::string
recordBody(const TuneRecord& record)
{
    TIR_CHECK(record.workload_name.find('\n') == std::string::npos)
        << "workload name contains a newline: " << record.workload_name;
    std::ostringstream os;
    os << "record " << record.workload_hash << " "
       << support::doubleBitsHex(record.latency_us) << " "
       << support::doubleReadable(record.latency_us) << " "
       << (record.sketch.empty() ? "-" : record.sketch);
    if (!record.workload_name.empty()) os << " " << record.workload_name;
    os << "\n";
    for (const Decision& d : record.decisions) {
        os << decisionText(d) << "\n";
    }
    return os.str();
}

std::optional<TuneRecord>
parseRecordBody(std::string_view body)
{
    std::istringstream is{std::string(body)};
    std::string line;
    std::getline(is, line);
    std::istringstream head(line);
    std::string tag, latency_bits;
    std::string latency_decimal; // display only, never parsed
    TuneRecord record;
    head >> tag >> record.workload_hash >> latency_bits >>
        latency_decimal >> record.sketch;
    if (head.fail() || tag != "record" ||
        !support::doubleFromBitsHex(latency_bits, &record.latency_us)) {
        return std::nullopt;
    }
    if (record.sketch == "-") record.sketch.clear();
    // Everything after the sketch token (minus the separating space)
    // is the workload name, spaces and all.
    std::getline(head, record.workload_name);
    if (!record.workload_name.empty() &&
        record.workload_name.front() == ' ') {
        record.workload_name.erase(0, 1);
    }
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        Decision d;
        if (!readDecision(ls, &d)) return std::nullopt;
        record.decisions.push_back(std::move(d));
    }
    return record;
}

} // namespace

TuningDatabase::TuningDatabase(int shards)
{
    TIR_CHECK(shards > 0) << "shard count must be positive, got "
                          << shards;
    shards_.reserve(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
        shards_.push_back(std::make_unique<Shard>());
    }
}

TuningDatabase::Shard&
TuningDatabase::shardFor(uint64_t hash) const
{
    // Structural hashes are already avalanche-mixed, so the low bits
    // distribute well over any shard count.
    return *shards_[hash % shards_.size()];
}

void
TuningDatabase::commit(TuneRecord record)
{
    Shard& shard = shardFor(record.workload_hash);
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.records.find(record.workload_hash);
    if (it == shard.records.end() ||
        record.latency_us < it->second.latency_us) {
        shard.records[record.workload_hash] = std::move(record);
    }
}

std::optional<TuneRecord>
TuningDatabase::lookup(uint64_t workload_hash) const
{
    const Shard& shard = shardFor(workload_hash);
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.records.find(workload_hash);
    if (it == shard.records.end()) return std::nullopt;
    return it->second;
}

std::optional<TuneRecord>
TuningDatabase::lookup(const PrimFunc& workload) const
{
    return lookup(structuralHash(workload));
}

size_t
TuningDatabase::size() const
{
    size_t total = 0;
    for (const auto& shard : shards_) {
        std::shared_lock<std::shared_mutex> lock(shard->mutex);
        total += shard->records.size();
    }
    return total;
}

std::string
TuningDatabase::serialize() const
{
    std::map<uint64_t, std::string> bodies;
    for (const auto& shard : shards_) {
        std::shared_lock<std::shared_mutex> lock(shard->mutex);
        for (const auto& [hash, record] : shard->records) {
            bodies.emplace(hash, recordBody(record));
        }
    }
    std::string text;
    for (const auto& [hash, body] : bodies) text += support::frame(body);
    return text;
}

LoadReport
TuningDatabase::parse(std::string_view text)
{
    using Status = support::FrameScan::Status;
    LoadReport report;
    for (size_t pos = 0; pos < text.size();) {
        support::FrameScan scan = support::scanFrame(text, pos);
        if (scan.status == Status::kIncomplete) {
            // The crash-mid-write case: a trailing record lost its
            // trailer. Everything before it is committed already.
            if (text.find_first_not_of(" \n", pos) != std::string::npos) {
                ++report.dropped;
            }
            break;
        }
        pos = scan.end;
        std::optional<TuneRecord> record;
        if (scan.status == Status::kComplete) {
            record = parseRecordBody(scan.body);
        }
        if (record) {
            commit(std::move(*record));
            ++report.loaded;
        } else {
            ++report.dropped;
        }
    }
    if (report.dropped > 0) {
        trace::counterAdd("database.records_dropped", report.dropped);
    }
    return report;
}

void
TuningDatabase::save(const std::string& path) const
{
    std::string text = serialize();
    // Chaos hook: corrupt the serialized bytes before they hit disk so
    // the tolerant load path is testable end to end.
    failpoint::injectCorrupt("db.save", text);
    // Unique temporary in the same directory (rename is only atomic
    // within a filesystem); a counter disambiguates concurrent savers.
    static std::atomic<uint64_t> tmp_counter{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(tmp_counter.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary);
        TIR_CHECK(out.good()) << "cannot open " << tmp << " for writing";
        out << text;
        // A disk-full or I/O error surfaces on the stream only once the
        // buffered bytes actually hit the file.
        out.flush();
        if (!out.good()) {
            std::remove(tmp.c_str());
            TIR_FATAL << "write to " << tmp
                      << " failed (disk full or I/O error); database "
                         "not saved";
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        TIR_FATAL << "cannot rename " << tmp << " over " << path;
    }
}

LoadReport
TuningDatabase::load(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    TIR_CHECK(in.good() && !failpoint::inject("db.load"))
        << "cannot open " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

} // namespace meta
} // namespace tir
