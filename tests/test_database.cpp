/**
 * @file
 * Structural hashing and tuning-database tests, including the §5.2
 * record-caching behaviour: a database hit replays a stored schedule
 * with one measurement instead of a search.
 */
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <latch>
#include <sstream>
#include <thread>

#include "graph/models.h"
#include "ir/structural_hash.h"
#include "meta/database.h"
#include "meta/search.h"
#include "support/double_bits.h"
#include "support/failpoint.h"
#include "support/frame.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

/** One framed database record in the current format: a header line
 *  `record <hash> <bits> <decimal> <sketch> [name]`, then `decisions`
 *  (decision lines, each ending in a newline), then the CRC trailer. */
std::string
recordFrame(uint64_t hash, double latency, const std::string& sketch,
            const std::string& name = "",
            const std::string& decisions = "")
{
    std::ostringstream os;
    os << "record " << hash << " " << support::doubleBitsHex(latency)
       << " " << support::doubleReadable(latency) << " " << sketch;
    if (!name.empty()) os << " " << name;
    os << "\n" << decisions;
    return support::frame(os.str());
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

TEST(StructuralHashTest, AlphaEquivalentProgramsHashEqual)
{
    // Two structurally identical matmuls built separately (different
    // variable/buffer objects) must hash identically.
    PrimFunc a = testutil::matmul(16, 16, 16);
    PrimFunc b = testutil::matmul(16, 16, 16);
    EXPECT_NE(a, b);
    EXPECT_EQ(structuralHash(a), structuralHash(b));
}

TEST(StructuralHashTest, DifferentShapesHashDifferently)
{
    EXPECT_NE(structuralHash(testutil::matmul(16, 16, 16)),
              structuralHash(testutil::matmul(16, 16, 32)));
}

TEST(StructuralHashTest, DifferentDtypesHashDifferently)
{
    EXPECT_NE(
        structuralHash(testutil::matmul(8, 8, 8, DataType::f32())),
        structuralHash(testutil::matmul(8, 8, 8, DataType::f16())));
}

TEST(StructuralHashTest, SchedulingChangesTheHash)
{
    PrimFunc func = testutil::matmul(16, 16, 16);
    Schedule sch(func);
    std::vector<Var> loops = sch.getLoops("C");
    sch.split(loops[0], {4, 4});
    EXPECT_NE(structuralHash(func), structuralHash(sch.func()));
}

TEST(StructuralHashTest, MemoMatchesSeparatelyBuiltTable1Layers)
{
    // Every layer of Table 1's models: the memoized repeat equals the
    // first hash, and both equal the hash of the same layer built
    // again from scratch and of a new node over the same fields.
    using Build = graph::ModelSpec (*)();
    int layers = 0;
    for (Build build : {graph::resnet50Gpu, graph::mobilenetV2Gpu,
                        graph::bertLargeGpu, graph::vitGpu}) {
        const graph::ModelSpec a = build();
        const graph::ModelSpec b = build();
        ASSERT_EQ(a.layers.size(), b.layers.size()) << a.name;
        for (size_t i = 0; i < a.layers.size(); ++i) {
            const PrimFunc& func = a.layers[i].op.func;
            const PrimFunc& again = b.layers[i].op.func;
            ASSERT_NE(func, again);
            const uint64_t first = structuralHash(func);
            EXPECT_EQ(structuralHash(func), first) << func->name;
            EXPECT_EQ(structuralHash(again), first) << func->name;
            EXPECT_EQ(structuralHash(makeFunc(func->name, func->params,
                                              func->body, func->attrs)),
                      first)
                << func->name;
            ++layers;
        }
    }
    EXPECT_GT(layers, 20);
}

TEST(StructuralHashTest, ConcurrentFirstHashesAgree)
{
    // Four threads race to compute and publish one function's memo;
    // all of them, and every later call, see the same value.
    const uint64_t expected =
        structuralHash(workloads::gmm(128, 128, 128).func);
    constexpr int kThreads = 4;
    for (int round = 0; round < 8; ++round) {
        const PrimFunc func = workloads::gmm(128, 128, 128).func;
        std::latch start(kThreads);
        std::vector<uint64_t> got(kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                start.arrive_and_wait();
                got[t] = structuralHash(func);
            });
        }
        for (auto& th : threads) th.join();
        for (int t = 0; t < kThreads; ++t) EXPECT_EQ(got[t], expected);
        EXPECT_EQ(structuralHash(func), expected);
    }
}

TEST(StructuralHashTest, ExprHashing)
{
    Var x = var("x");
    Var y = var("y");
    EXPECT_EQ(structuralHash(Expr(x) + 1), structuralHash(Expr(y) + 1));
    EXPECT_NE(structuralHash(Expr(x) + 1), structuralHash(Expr(x) + 2));
    EXPECT_NE(structuralHash(Expr(x) + 1), structuralHash(Expr(x) * 1));
}

TEST(DatabaseTest, CommitAndLookup)
{
    meta::TuningDatabase db;
    PrimFunc func = testutil::matmul(32, 32, 32);
    EXPECT_FALSE(db.lookup(func).has_value());

    meta::TuneRecord record;
    record.workload_hash = structuralHash(func);
    record.workload_name = "matmul";
    record.latency_us = 12.5;
    record.sketch = "tensor";
    db.commit(record);
    ASSERT_TRUE(db.lookup(func).has_value());
    EXPECT_DOUBLE_EQ(db.lookup(func)->latency_us, 12.5);
}

TEST(DatabaseTest, CommitKeepsBest)
{
    meta::TuningDatabase db;
    meta::TuneRecord record;
    record.workload_hash = 42;
    record.latency_us = 10;
    db.commit(record);
    record.latency_us = 20; // worse: ignored
    db.commit(record);
    EXPECT_DOUBLE_EQ(db.lookup(42)->latency_us, 10);
    record.latency_us = 5; // better: replaces
    db.commit(record);
    EXPECT_DOUBLE_EQ(db.lookup(42)->latency_us, 5);
}

TEST(DatabaseTest, SerializeRoundTrips)
{
    meta::TuningDatabase db;
    meta::TuneRecord record;
    record.workload_hash = 1234567;
    record.workload_name = "gmm";
    record.latency_us = 3.25;
    record.sketch = "tensor";
    Decision tile;
    tile.kind = Decision::Kind::kPerfectTile;
    tile.extent = 64;
    tile.number = 3;
    tile.max_innermost = 8;
    tile.values = {4, 4, 4};
    Decision cat;
    cat.kind = Decision::Kind::kCategorical;
    cat.num_candidates = 4;
    cat.values = {2};
    record.decisions = {tile, cat};
    db.commit(record);

    meta::TuningDatabase restored;
    restored.parse(db.serialize());
    ASSERT_EQ(restored.size(), 1u);
    auto got = restored.lookup(1234567);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->workload_name, "gmm");
    EXPECT_DOUBLE_EQ(got->latency_us, 3.25);
    ASSERT_EQ(got->decisions.size(), 2u);
    EXPECT_EQ(got->decisions[0].values, (std::vector<int64_t>{4, 4, 4}));
    EXPECT_EQ(got->decisions[1].kind, Decision::Kind::kCategorical);
}

TEST(DatabaseTest, SerializeRoundTripIsByteIdentical)
{
    // Regression: latencies used to be written at the default ostream
    // precision (6 significant digits), so any latency that does not
    // fit — 0.1, a measured 1234.5678901 µs, 100/3 — came back
    // slightly different after save/load. That could flip commit()'s
    // improve-comparison against a fresh result, silently replacing a
    // faster schedule. The format now writes the IEEE-754 bit pattern,
    // so serialize(parse(serialize(db))) is byte-identical and every
    // latency round-trips exactly — whatever the shard counts.
    meta::TuningDatabase db(3);
    const double awkward[] = {0.1, 1234.5678901, 100.0 / 3.0,
                              1e-300, 7.0};
    uint64_t hash = 1;
    for (double latency : awkward) {
        meta::TuneRecord record;
        record.workload_hash = hash++;
        record.workload_name = "wl";
        record.latency_us = latency;
        record.sketch = "tensor";
        Decision tile;
        tile.kind = Decision::Kind::kPerfectTile;
        tile.extent = 16;
        tile.number = 2;
        tile.max_innermost = 4;
        tile.values = {4, 4};
        record.decisions = {tile};
        db.commit(record);
    }

    std::string first = db.serialize();
    meta::TuningDatabase restored(5);
    restored.parse(first);
    EXPECT_EQ(restored.serialize(), first);

    hash = 1;
    for (double latency : awkward) {
        auto got = restored.lookup(hash++);
        ASSERT_TRUE(got.has_value());
        // Exact, not near: the bit pattern is authoritative.
        EXPECT_EQ(got->latency_us, latency);
    }
}

TEST(DatabaseTest, WorkloadNamesWithSpacesRoundTrip)
{
    // Regression: the parse used to read the workload name with
    // operator>>, so a name like "fused conv2d relu" consumed only
    // "fused" and the leftover tokens corrupted the parse of the
    // following lines. Names now sit at end-of-line and are read with
    // getline.
    meta::TuningDatabase db;
    meta::TuneRecord record;
    record.workload_hash = 77;
    record.workload_name = "fused conv2d relu 3x3 pad=1";
    record.latency_us = 4.5;
    record.sketch = "tensor";
    db.commit(record);
    meta::TuneRecord second;
    second.workload_hash = 78;
    second.workload_name = "plain";
    second.latency_us = 6.0;
    db.commit(second);

    std::string text = db.serialize();
    // A spaced name must not be "damage".
    meta::TuningDatabase restored;
    meta::LoadReport report = restored.parse(text);
    EXPECT_EQ(report.dropped, 0);
    ASSERT_EQ(restored.size(), 2u);
    EXPECT_EQ(restored.lookup(77)->workload_name,
              "fused conv2d relu 3x3 pad=1");
    EXPECT_EQ(restored.lookup(78)->workload_name, "plain");
    // And the round-trip stays byte-identical.
    EXPECT_EQ(restored.serialize(), text);
}

TEST(DatabaseTest, TolerantParseDoesNotCountStrayGarbageAsDrops)
{
    // Regression: the tolerant parser used to count a "dropped record"
    // for stray garbage before any record ever appeared, so
    // LoadReport::dropped over-reported damage (callers alert on it).
    // A drop must mean a record actually lost: junk ahead of the first
    // frame or debris between complete frames costs nothing.
    std::string text = "# comment-ish junk\nmore junk here\n" +
                       recordFrame(1, 1.0, "tensor", "ok") +
                       "debris between records\n" +
                       recordFrame(2, 2.0, "loop");
    meta::TuningDatabase restored;
    meta::LoadReport report = restored.parse(text);
    EXPECT_EQ(report.loaded, 2);
    EXPECT_EQ(report.dropped, 0);
    EXPECT_EQ(restored.size(), 2u);

    // Garbage *inside* a record still costs that record exactly one
    // drop — the boundary the fix must not move.
    std::string torn =
        recordFrame(3, 3.0, "tensor", "", "garbage inside\n");
    meta::TuningDatabase torn_restored;
    meta::LoadReport torn_report = torn_restored.parse(torn);
    EXPECT_EQ(torn_report.loaded, 0);
    EXPECT_EQ(torn_report.dropped, 1);
    EXPECT_EQ(torn_restored.size(), 0u);
}

TEST(DatabaseTest, RejectsMalformedText)
{
    // Malformed text loads nothing and is counted: there is no strict
    // parse any more, every load is tolerant.
    auto parse = [](const std::string& text) {
        meta::TuningDatabase db;
        meta::LoadReport report = db.parse(text);
        EXPECT_EQ(db.size(), 0u) << text;
        EXPECT_EQ(report.loaded, 0) << text;
        return report.dropped;
    };
    EXPECT_EQ(parse("garbage here"), 1);
    std::string unterminated = recordFrame(1, 2.0, "tensor");
    unterminated.resize(unterminated.rfind("crc "));
    EXPECT_EQ(parse(unterminated), 1);
    EXPECT_EQ(parse(support::frame(
                  "record 1 not_a_bit_pattern 2 tensor x\n")),
              1); // damaged latency bits
    // A file from before the framing: unframed, so it loads empty.
    EXPECT_EQ(parse("record 1 4000000000000000 2 tensor x\n"
                    "  tile 4 1 2 0 4\nend\n"),
              1);
}

TEST(DatabaseTest, TolerantParseRecoversFromTruncatedTail)
{
    // The crash-mid-save case: the file ends inside a record. The
    // parse keeps every complete record and counts the torn one as
    // dropped instead of aborting the session.
    meta::TuningDatabase db;
    meta::TuneRecord record;
    record.workload_hash = 11;
    record.workload_name = "intact";
    record.latency_us = 2.5;
    Decision tile;
    tile.kind = Decision::Kind::kPerfectTile;
    tile.extent = 32;
    tile.number = 2;
    tile.max_innermost = 4;
    tile.values = {8, 4};
    record.decisions = {tile};
    db.commit(record);
    std::string text = db.serialize();
    // Append a record whose trailer (and part of its decision line)
    // was lost to the crash.
    std::string torn =
        recordFrame(22, 9.0, "loop", "torn", "tile 64 3 4 0 4 4 4\n");
    text += torn.substr(0, torn.find("tile 64 3") + 9);

    meta::TuningDatabase restored;
    meta::LoadReport report = restored.parse(text);
    EXPECT_EQ(report.loaded, 1);
    EXPECT_EQ(report.dropped, 1);
    ASSERT_EQ(restored.size(), 1u);
    auto got = restored.lookup(11);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->workload_name, "intact");
    ASSERT_EQ(got->decisions.size(), 1u);
    EXPECT_EQ(got->decisions[0].values, (std::vector<int64_t>{8, 4}));
}

TEST(DatabaseTest, TolerantParseResyncsAfterCorruptMiddleRecord)
{
    // Damage in the middle of the file: the parse drops the damaged
    // record and keeps both neighbours.
    std::string text =
        recordFrame(1, 1.0, "tensor", "first") +
        support::frame("record 2 oops_not_a_number 2 loop damaged\n"
                       "tile 4 1 2 0 4\n") +
        recordFrame(3, 3.0, "tensor", "last");
    meta::TuningDatabase restored;
    meta::LoadReport report = restored.parse(text);
    EXPECT_EQ(report.loaded, 2);
    EXPECT_EQ(report.dropped, 1);
    EXPECT_EQ(restored.size(), 2u);
    EXPECT_TRUE(restored.lookup(1).has_value());
    EXPECT_FALSE(restored.lookup(2).has_value());
    EXPECT_TRUE(restored.lookup(3).has_value());
}

TEST(DatabaseTest, FlippedDecisionDigitIsDroppedAndCounted)
{
    // §5.2 reuse replays a stored decision trace without searching, so
    // a record damaged on disk must never load: one flipped digit turns
    // the tiling 8 * 4 of a 32-extent loop into 9 * 4, which no longer
    // matches the extent. The record's CRC catches it; its neighbours
    // still load.
    meta::TuningDatabase db;
    for (uint64_t hash : {5u, 6u, 7u}) {
        meta::TuneRecord record;
        record.workload_hash = hash;
        record.workload_name = "layer " + std::to_string(hash);
        record.latency_us = static_cast<double>(hash);
        Decision tile;
        tile.kind = Decision::Kind::kPerfectTile;
        tile.extent = 32;
        tile.number = 2;
        tile.max_innermost = 4;
        tile.values = hash == 6 ? std::vector<int64_t>{8, 4}
                                : std::vector<int64_t>{4, 8};
        record.decisions = {tile};
        db.commit(record);
    }
    testutil::ScopedTempDir dir;
    const std::string path = dir.file("db_flip_test.txt");
    db.save(path);
    std::string text = readFile(path);
    const size_t at = text.find("tile 32 2 4 0 8 4");
    ASSERT_NE(at, std::string::npos);
    text[at + std::string("tile 32 2 4 0 ").size()] = '9';
    writeFile(path, text);

    meta::TuningDatabase loaded;
    meta::LoadReport report = loaded.load(path);
    EXPECT_EQ(report.loaded, 2);
    EXPECT_EQ(report.dropped, 1);
    EXPECT_FALSE(loaded.lookup(6).has_value());
    EXPECT_TRUE(loaded.lookup(5).has_value());
    EXPECT_TRUE(loaded.lookup(7).has_value());
}

TEST(DatabaseTest, CorruptingSaveFailpointCostsOnlyDamagedRecords)
{
    // The db.save chaos hook flips bytes on their way to disk. Whatever
    // it hits, a load keeps only records that were saved, intact.
    meta::TuningDatabase db;
    for (uint64_t hash = 1; hash <= 8; ++hash) {
        meta::TuneRecord record;
        record.workload_hash = hash;
        record.workload_name = "wl";
        record.latency_us = static_cast<double>(hash);
        db.commit(record);
    }
    testutil::ScopedTempDir dir;
    const std::string path = dir.file("db_corrupt_save_test.txt");
    {
        failpoint::ScopedFailpoints corrupt("seed=4; db.save=corrupt(1,3)");
        db.save(path);
        EXPECT_EQ(failpoint::stats("db.save").fired, 1u);
    }
    meta::TuningDatabase loaded;
    meta::LoadReport report = loaded.load(path);
    EXPECT_GT(report.dropped, 0);
    EXPECT_LE(report.loaded + report.dropped, 8);
    EXPECT_EQ(static_cast<size_t>(report.loaded), loaded.size());
    for (uint64_t hash = 1; hash <= 8; ++hash) {
        if (auto got = loaded.lookup(hash)) {
            EXPECT_EQ(got->latency_us, static_cast<double>(hash));
            EXPECT_EQ(got->workload_name, "wl");
        }
    }
}

TEST(DatabaseTest, LoadSkipsAndCountsCorruptRecords)
{
    // load() is always tolerant: a database file that crossed a crash
    // keeps its intact records.
    testutil::ScopedTempDir dir;
    std::string path = dir.file("db_torn_test.txt");
    std::string torn = recordFrame(6, 6.0, "loop", "torn", "tile 64\n");
    writeFile(path, recordFrame(5, 5.0, "tensor", "kept") +
                        torn.substr(0, torn.find("tile 64") + 7));
    meta::TuningDatabase loaded;
    meta::LoadReport report = loaded.load(path);
    EXPECT_EQ(report.loaded, 1);
    EXPECT_EQ(report.dropped, 1);
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.lookup(5).has_value());
}

TEST(DatabaseTest, SaveAndLoadFile)
{
    meta::TuningDatabase db;
    meta::TuneRecord record;
    record.workload_hash = 99;
    record.latency_us = 7;
    db.commit(record);
    testutil::ScopedTempDir dir;
    std::string path = dir.file("db_test.txt");
    db.save(path);
    EXPECT_EQ(readFile(path), db.serialize());
    meta::TuningDatabase loaded;
    loaded.load(path);
    EXPECT_EQ(loaded.size(), 1u);
}

TEST(DatabaseTest, SaveReportsWriteFailures)
{
    // Regression: save() used to check the stream only before writing,
    // so a disk that filled up mid-write (or any I/O error surfacing
    // once the buffered bytes were flushed) silently left a truncated
    // or empty database behind. A file-size limit on this process
    // reproduces exactly that: opening succeeds, the flush fails with
    // EFBIG. The save writes a temporary file and renames it, so the
    // failure also leaves the previous database untouched.
    meta::TuningDatabase db;
    meta::TuneRecord record;
    record.workload_hash = 7;
    record.workload_name = "doomed";
    record.latency_us = 1.0;
    db.commit(record);
    testutil::ScopedTempDir dir;
    const std::string path = dir.file("db_full_test.txt");
    writeFile(path, "previous\n");

    struct rlimit saved_limit;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_limit), 0);
    auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit small = saved_limit;
    small.rlim_cur = 16;
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
    EXPECT_THROW(db.save(path), FatalError);
    ::setrlimit(RLIMIT_FSIZE, &saved_limit);
    std::signal(SIGXFSZ, saved_handler);
    EXPECT_EQ(readFile(path), "previous\n");

    // The open check still catches bad paths.
    EXPECT_THROW(db.save("/nonexistent-dir-tensorir/db.txt"),
                 FatalError);
}

TEST(DatabaseTest, AutoTuneReplaysRecords)
{
    // First tune populates the database; the second call replays with a
    // single measurement and reproduces the same latency.
    workloads::OpSpec op = workloads::gmm(256, 256, 256);
    hwsim::GpuDevice gpu;
    meta::TuningDatabase db;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions options;
    options.population = 4;
    options.generations = 2;

    meta::TuneResult first = meta::autoTune(
        task, gpu, options, meta::TunerStyle::kTensorIR, &db);
    EXPECT_FALSE(first.from_database);
    EXPECT_EQ(db.size(), 1u);

    meta::TuneResult second = meta::autoTune(
        task, gpu, options, meta::TunerStyle::kTensorIR, &db);
    EXPECT_TRUE(second.from_database);
    EXPECT_EQ(second.trials_measured, 1);
    EXPECT_NEAR(second.best_latency_us, first.best_latency_us, 1e-9);
    // Replay is drastically cheaper than searching.
    EXPECT_LT(second.tuning_cost_us, first.tuning_cost_us / 10);
}

TEST(DatabaseTest, ReplayedScheduleIsNumericallyCorrect)
{
    workloads::OpSpec op = workloads::gmm(
        32, 32, 32, DataType::f16(), DataType::f16());
    hwsim::GpuDevice gpu;
    meta::TuningDatabase db;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneOptions options;
    options.population = 3;
    options.generations = 1;
    meta::autoTune(task, gpu, options, meta::TunerStyle::kTensorIR,
                   &db);
    // Round-trip the database through text, then replay from it.
    meta::TuningDatabase restored;
    restored.parse(db.serialize());
    meta::TuneResult replayed = meta::autoTune(
        task, gpu, options, meta::TunerStyle::kTensorIR, &restored);
    ASSERT_TRUE(replayed.from_database);
    testutil::expectSameResults(replayed.best_func, op.func, 1, 1e-6);
}

} // namespace
} // namespace tir
