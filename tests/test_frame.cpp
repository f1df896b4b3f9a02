/**
 * @file
 * The record frame every persisted or piped format shares
 * (support/frame.h), and a seeded fuzz of the two formats that cross a
 * disk: tuning-database text and checkpoint-journal text, damaged by
 * byte flips, truncations and splices. Recovery may lose records but
 * must never invent one.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "meta/database.h"
#include "meta/journal.h"
#include "support/double_bits.h"
#include "support/frame.h"
#include "support/rng.h"

#include "test_util.h"

namespace tir {
namespace {

using Status = support::FrameScan::Status;

TEST(FrameTest, RoundTripsABody)
{
    const std::string body = "first line\nsecond line\n";
    const std::string framed = support::frame(body);
    support::FrameScan scan = support::scanFrame(framed);
    ASSERT_EQ(scan.status, Status::kComplete);
    EXPECT_EQ(scan.body, body);
    EXPECT_EQ(scan.end, framed.size());
}

TEST(FrameTest, EveryProperPrefixIsIncomplete)
{
    // What a pipe reader sees while a frame is still arriving: no
    // prefix may pass for a frame or for damage.
    const std::string framed = support::frame("ok 3ff0000000000000\n");
    for (size_t n = 0; n < framed.size(); ++n) {
        EXPECT_EQ(support::scanFrame(framed.substr(0, n)).status,
                  Status::kIncomplete)
            << "prefix of " << n << " bytes";
    }
}

TEST(FrameTest, AnyFlippedByteIsDamage)
{
    const std::string framed = support::frame("record 1 x\ntile 4 1\n");
    for (size_t at = 0; at < framed.size(); ++at) {
        std::string damaged = framed;
        damaged[at] ^= 0x01;
        EXPECT_NE(support::scanFrame(damaged).status, Status::kComplete)
            << "flip at byte " << at;
    }
}

TEST(FrameTest, StrayBytesCostNoFollowingFrame)
{
    const std::string text = "debris\nmore" + support::frame("a\n") +
                             "x\n" + support::frame("b\n");
    support::FrameScan first = support::scanFrame(text);
    ASSERT_EQ(first.status, Status::kComplete);
    EXPECT_EQ(first.body, "a\n");
    support::FrameScan second = support::scanFrame(text, first.end);
    ASSERT_EQ(second.status, Status::kComplete);
    EXPECT_EQ(second.body, "b\n");
    EXPECT_EQ(second.end, text.size());
}

TEST(FrameTest, DamagedFrameEndsAtItsTrailer)
{
    std::string damaged = support::frame("a line\n");
    damaged[2] = 'X';
    const std::string text = damaged + support::frame("b\n");
    support::FrameScan first = support::scanFrame(text);
    EXPECT_EQ(first.status, Status::kDamaged);
    EXPECT_EQ(first.end, damaged.size());
    support::FrameScan second = support::scanFrame(text, first.end);
    ASSERT_EQ(second.status, Status::kComplete);
    EXPECT_EQ(second.body, "b\n");
}

// --- fuzz ----------------------------------------------------------------

/** One random damage: flip a few bytes, truncate, or splice a chunk of
 *  the text into another place. */
std::string
damage(const std::string& text, Rng& rng)
{
    std::string out = text;
    switch (rng.randInt(3)) {
      case 0:
        for (int64_t n = 1 + rng.randInt(4); n > 0; --n) {
            out[static_cast<size_t>(rng.randInt(
                static_cast<int64_t>(out.size())))] ^=
                static_cast<char>(1 + rng.randInt(255));
        }
        break;
      case 1:
        out.resize(static_cast<size_t>(
            rng.randInt(static_cast<int64_t>(out.size()))));
        break;
      default: {
        size_t from = static_cast<size_t>(
            rng.randInt(static_cast<int64_t>(text.size())));
        size_t len = static_cast<size_t>(
            1 + rng.randInt(static_cast<int64_t>(
                    std::min<size_t>(256, text.size() - from))));
        size_t to = static_cast<size_t>(
            rng.randInt(static_cast<int64_t>(out.size()) + 1));
        out.insert(to, text.substr(from, len));
      }
    }
    return out;
}

Decision
tile(int64_t extent, std::vector<int64_t> values)
{
    Decision d;
    d.kind = Decision::Kind::kPerfectTile;
    d.extent = extent;
    d.number = static_cast<int>(values.size());
    d.max_innermost = 16;
    d.values = std::move(values);
    return d;
}

bool
sameRecord(const meta::TuneRecord& a, const meta::TuneRecord& b)
{
    if (a.workload_hash != b.workload_hash ||
        a.workload_name != b.workload_name || a.sketch != b.sketch ||
        support::doubleBitsHex(a.latency_us) !=
            support::doubleBitsHex(b.latency_us) ||
        a.decisions.size() != b.decisions.size()) {
        return false;
    }
    for (size_t i = 0; i < a.decisions.size(); ++i) {
        if (meta::decisionText(a.decisions[i]) !=
            meta::decisionText(b.decisions[i])) {
            return false;
        }
    }
    return true;
}

TEST(PersistenceFuzzTest, DatabaseLoadsOnlySavedRecords)
{
    std::vector<meta::TuneRecord> saved;
    meta::TuningDatabase db(4);
    for (uint64_t i = 0; i < 12; ++i) {
        meta::TuneRecord r;
        r.workload_hash = 1000003 * (i + 1);
        r.workload_name = i % 3 ? "gemm " + std::to_string(i) : "";
        r.latency_us = 1.0 / static_cast<double>(i + 3);
        r.sketch = i % 2 ? "tensor" : "loop";
        r.decisions = {tile(64, {4, 16}), tile(32, {2, 4, 4})};
        saved.push_back(r);
        db.commit(r);
    }
    const std::string text = db.serialize();
    {
        meta::TuningDatabase pristine;
        meta::LoadReport report = pristine.parse(text);
        EXPECT_EQ(report.loaded, 12);
        EXPECT_EQ(report.dropped, 0);
    }
    Rng rng(20231);
    for (int iter = 0; iter < 600; ++iter) {
        meta::TuningDatabase loaded(3);
        meta::LoadReport report = loaded.parse(damage(text, rng));
        size_t intact = 0;
        for (const meta::TuneRecord& r : saved) {
            std::optional<meta::TuneRecord> got =
                loaded.lookup(r.workload_hash);
            if (got && sameRecord(*got, r)) ++intact;
        }
        // Every record in the database is an intact saved one.
        ASSERT_EQ(loaded.size(), intact) << "iteration " << iter;
        ASSERT_GE(report.loaded, static_cast<int>(intact));
    }
}

bool
sameGeneration(const meta::JournalGeneration& a,
               const meta::JournalGeneration& b)
{
    auto bits = [](const std::vector<double>& v) {
        std::string s;
        for (double d : v) s += support::doubleBitsHex(d);
        return s;
    };
    auto decisions = [](const std::vector<Decision>& v) {
        std::string s;
        for (const Decision& d : v) s += meta::decisionText(d) + ";";
        return s;
    };
    if (a.index != b.index || !(a.counters == b.counters) ||
        bits({a.tuning_cost_us, a.best_latency_us}) !=
            bits({b.tuning_cost_us, b.best_latency_us}) ||
        decisions(a.best_decisions) != decisions(b.best_decisions) ||
        bits(a.history) != bits(b.history) ||
        a.population.size() != b.population.size() ||
        a.new_samples.size() != b.new_samples.size() ||
        a.memo.size() != b.memo.size()) {
        return false;
    }
    for (size_t i = 0; i < a.population.size(); ++i) {
        if (bits({a.population[i].latency_us}) !=
                bits({b.population[i].latency_us}) ||
            decisions(a.population[i].decisions) !=
                decisions(b.population[i].decisions)) {
            return false;
        }
    }
    for (size_t i = 0; i < a.new_samples.size(); ++i) {
        if (bits({a.new_samples[i].target}) !=
                bits({b.new_samples[i].target}) ||
            bits(a.new_samples[i].features) !=
                bits(b.new_samples[i].features)) {
            return false;
        }
    }
    for (size_t i = 0; i < a.memo.size(); ++i) {
        const meta::MemoEntry& x = a.memo[i].second;
        const meta::MemoEntry& y = b.memo[i].second;
        if (a.memo[i].first != b.memo[i].first ||
            x.measured != y.measured || x.hanged != y.hanged ||
            bits({x.estimate.latency_us, x.measured_latency_us}) !=
                bits({y.estimate.latency_us, y.measured_latency_us}) ||
            bits(x.features) != bits(y.features) ||
            x.estimate.violation != y.estimate.violation) {
            return false;
        }
    }
    return true;
}

TEST(PersistenceFuzzTest, JournalRecoversAPrefixOfWhatWasWritten)
{
    testutil::ScopedTempDir dir;
    const std::string path = dir.file("journal_fuzz.txt");
    meta::resetJournal(path);
    std::vector<meta::JournalSection> written;
    {
        meta::JournalWriter writer(path, 0);
        for (int s = 0; s < 2; ++s) {
            meta::JournalSection section;
            section.identity = "section v3 " + std::to_string(s) + " fuzz";
            writer.beginSection(section.identity);
            for (int g = 0; g < 3; ++g) {
                meta::JournalGeneration gen;
                gen.index = g;
                gen.counters.trials_measured = 10 * g + s;
                gen.tuning_cost_us = 0.1 * (g + 1);
                gen.best_latency_us = 5.0 / (g + 1);
                gen.best_decisions = {tile(64, {8, 8})};
                gen.history.assign(static_cast<size_t>(g + 1), 2.5);
                gen.population = {{3.0, {tile(64, {4, 16})}},
                                  {4.0, {tile(64, {16, 4})}}};
                gen.new_samples = {{{0.5, 1.5, -2.0}, 0.25}};
                meta::MemoEntry entry;
                entry.measured = g % 2 == 1;
                entry.features = {1.0, 2.0};
                entry.estimate.violation =
                    g == 2 ? "shared memory over | limit" : "";
                gen.memo = {{static_cast<uint64_t>(77 + g), entry}};
                writer.appendGeneration(gen);
                section.generations.push_back(std::move(gen));
            }
            written.push_back(std::move(section));
        }
    }
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    {
        meta::JournalContents pristine = meta::readJournal(path);
        EXPECT_EQ(pristine.records_dropped, 0);
        EXPECT_EQ(pristine.valid_bytes, text.size());
        ASSERT_EQ(pristine.sections.size(), 2u);
        for (size_t s = 0; s < 2; ++s) {
            ASSERT_EQ(pristine.sections[s].generations.size(), 3u);
            for (size_t g = 0; g < 3; ++g) {
                EXPECT_TRUE(sameGeneration(pristine.sections[s].generations[g],
                                           written[s].generations[g]));
            }
        }
    }
    Rng rng(4099);
    for (int iter = 0; iter < 300; ++iter) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << damage(text, rng);
        }
        meta::JournalContents got = meta::readJournal(path);
        for (const meta::JournalSection& section : got.sections) {
            const meta::JournalSection* source = nullptr;
            for (const meta::JournalSection& w : written) {
                if (w.identity == section.identity) source = &w;
            }
            ASSERT_NE(source, nullptr)
                << "iteration " << iter << ": invented section "
                << section.identity;
            ASSERT_LE(section.generations.size(),
                      source->generations.size());
            for (size_t g = 0; g < section.generations.size(); ++g) {
                ASSERT_TRUE(sameGeneration(section.generations[g],
                                           source->generations[g]))
                    << "iteration " << iter << ", generation " << g;
            }
        }
    }
}

} // namespace
} // namespace tir
