/**
 * @file
 * The schedule-serving layer: sharded database thread-safety, the
 * mutex-free hot cache, single-flight miss coalescing, checkpoint
 * streaming, and the clean-shutdown contract. The concurrency suites
 * here (ServeDatabase*, HotCache*, PendingTune*, ScheduleServer*) also
 * run under the TSan CI configuration.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <latch>
#include <optional>
#include <thread>
#include <vector>

#include "ir/structural_hash.h"
#include "meta/database.h"
#include "serve/server.h"
#include "serve/shard.h"
#include "support/failpoint.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

meta::TuneRecord
makeRecord(uint64_t hash, double latency,
           const std::string& name = "wl")
{
    meta::TuneRecord record;
    record.workload_hash = hash;
    record.workload_name = name;
    record.latency_us = latency;
    record.sketch = "tensor";
    return record;
}

/** A tiny tuning budget so background tunes finish in milliseconds. */
meta::TuneOptions
smallTune()
{
    meta::TuneOptions options;
    options.population = 3;
    options.generations = 1;
    options.children_per_generation = 4;
    options.measured_per_generation = 2;
    options.parallelism = 1; // background jobs must not nest pools wide
    return options;
}

TEST(ServeDatabaseTest, CommitLookupBasics)
{
    meta::TuningDatabase db(4);
    EXPECT_EQ(db.shardCount(), 4);
    EXPECT_FALSE(db.lookup(7).has_value());
    db.commit(makeRecord(7, 10.0));
    ASSERT_TRUE(db.lookup(7).has_value());
    EXPECT_DOUBLE_EQ(db.lookup(7)->latency_us, 10.0);
    // Improve-only, like the plain database.
    db.commit(makeRecord(7, 20.0));
    EXPECT_DOUBLE_EQ(db.lookup(7)->latency_us, 10.0);
    db.commit(makeRecord(7, 5.0));
    EXPECT_DOUBLE_EQ(db.lookup(7)->latency_us, 5.0);
    EXPECT_EQ(db.size(), 1u);
}

TEST(ServeDatabaseTest, SerializedRecordsMoveBetweenShardCounts)
{
    meta::TuningDatabase db(8);
    for (uint64_t h = 1; h <= 20; ++h) {
        db.commit(makeRecord(h, static_cast<double>(h)));
    }
    meta::TuningDatabase other(3);
    meta::LoadReport report = other.parse(db.serialize());
    EXPECT_EQ(report.loaded, 20);
    EXPECT_EQ(other.size(), 20u);
    EXPECT_DOUBLE_EQ(other.lookup(13)->latency_us, 13.0);
    EXPECT_EQ(other.serialize(), db.serialize());
}

TEST(ServeDatabaseTest, ConcurrentCommitsKeepTheBest)
{
    // N threads commit different latencies for the same workloads; the
    // improve-only invariant must hold under any interleaving.
    meta::TuningDatabase db(4);
    constexpr int kThreads = 8;
    constexpr uint64_t kWorkloads = 16;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&db, t] {
            for (uint64_t h = 0; h < kWorkloads; ++h) {
                // Thread t commits latency (t xor h)+1; the global
                // minimum per workload is deterministic.
                db.commit(makeRecord(
                    h, static_cast<double>((t ^ static_cast<int>(h)) %
                                           kThreads) +
                           1.0));
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(db.size(), kWorkloads);
    for (uint64_t h = 0; h < kWorkloads; ++h) {
        double expect_min = 1e300;
        for (int t = 0; t < kThreads; ++t) {
            expect_min = std::min(
                expect_min,
                static_cast<double>((t ^ static_cast<int>(h)) %
                                    kThreads) +
                    1.0);
        }
        ASSERT_TRUE(db.lookup(h).has_value());
        EXPECT_DOUBLE_EQ(db.lookup(h)->latency_us, expect_min);
    }
}

TEST(ServeDatabaseTest, ConcurrentCommitLookupSnapshotSave)
{
    // The serving mix: writers commit, readers look up, and a
    // saver saves — all racing. Every lookup that returns must
    // return an intact committed record, and every saved snapshot must
    // parse back cleanly (atomic publish: no torn file).
    meta::TuningDatabase db(4);
    testutil::ScopedTempDir dir;
    const std::string path = dir.file("serve_snap_test.db");
    std::atomic<bool> stop{false};
    std::atomic<int> bad_reads{0};

    std::vector<std::thread> writers;
    for (int t = 0; t < 3; ++t) {
        writers.emplace_back([&db, &stop, t] {
            uint64_t h = 0;
            while (!stop.load()) {
                db.commit(makeRecord(h % 32,
                                     static_cast<double>(t + 1) * 10.0,
                                     "workload with spaces"));
                ++h;
            }
        });
    }
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&db, &stop, &bad_reads] {
            while (!stop.load()) {
                for (uint64_t h = 0; h < 32; ++h) {
                    auto got = db.lookup(h);
                    if (got &&
                        (got->workload_hash != h ||
                         got->latency_us <= 0)) {
                        bad_reads.fetch_add(1);
                    }
                }
            }
        });
    }
    std::thread saver([&db, &stop, &path] {
        while (!stop.load()) {
            db.save(path);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    for (auto& th : writers) th.join();
    for (auto& th : readers) th.join();
    saver.join();

    EXPECT_EQ(bad_reads.load(), 0);
    meta::TuningDatabase loaded;
    meta::LoadReport report = loaded.load(path);
    EXPECT_EQ(report.dropped, 0) << "a saved file must never be torn";
    EXPECT_GT(loaded.size(), 0u);
}

TEST(HotCacheTest, GetPutAndSameKeyReplacement)
{
    serve::HotCache cache(64);
    EXPECT_EQ(cache.get(42), nullptr);
    cache.put(std::make_shared<const meta::TuneRecord>(
        makeRecord(42, 9.0)));
    auto hit = cache.get(42);
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->latency_us, 9.0);
    // Same key replaces in place (no second slot, no eviction).
    cache.put(std::make_shared<const meta::TuneRecord>(
        makeRecord(42, 4.0)));
    EXPECT_DOUBLE_EQ(cache.get(42)->latency_us, 4.0);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(HotCacheTest, EvictsLeastRecentlyTouchedWhenFull)
{
    // Force every key into one probe set by using a tiny cache whose
    // size equals the associativity.
    serve::HotCache cache(1);
    ASSERT_EQ(cache.capacity(), 4u);
    // Keys that all map to slot 0 of a 4-slot cache.
    const uint64_t keys[] = {0, 4, 8, 12};
    for (uint64_t k : keys) {
        cache.put(std::make_shared<const meta::TuneRecord>(
            makeRecord(k, 1.0)));
    }
    // Touch everything except key 4, making it the LRU victim.
    EXPECT_NE(cache.get(0), nullptr);
    EXPECT_NE(cache.get(8), nullptr);
    EXPECT_NE(cache.get(12), nullptr);
    cache.put(std::make_shared<const meta::TuneRecord>(
        makeRecord(16, 1.0)));
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.get(4), nullptr) << "LRU entry must be the victim";
    EXPECT_NE(cache.get(0), nullptr);
    EXPECT_NE(cache.get(16), nullptr);
}

TEST(HotCacheTest, ConcurrentGetsAgainstPuts)
{
    // The fast path's whole point: readers hammer get() lock-free
    // while a writer churns the same probe sets. Every hit must be a
    // self-consistent record (payload matches its own key).
    serve::HotCache cache(32);
    std::atomic<bool> stop{false};
    std::atomic<int> inconsistent{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                for (uint64_t k = 0; k < 64; ++k) {
                    auto hit = cache.get(k);
                    if (hit && hit->workload_hash != k) {
                        inconsistent.fetch_add(1);
                    }
                }
            }
        });
    }
    std::thread writer([&] {
        uint64_t k = 0;
        while (!stop.load()) {
            cache.put(std::make_shared<const meta::TuneRecord>(
                makeRecord(k % 64, static_cast<double>(k + 1))));
            ++k;
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    for (auto& th : readers) th.join();
    writer.join();
    EXPECT_EQ(inconsistent.load(), 0);
}

TEST(PendingTuneTest, KeepsTheFastestPublishedRecord)
{
    // autoTune's loop-sketch search announces its own best-so-far after
    // the tensor-sketch search has announced a faster one; the handle
    // must keep serving the faster record, to a client already waiting
    // and to every later one.
    serve::PendingTune pending;
    meta::TuneRecord tensor = makeRecord(7, 16.0);
    meta::TuneRecord loop = makeRecord(7, 19.9);
    loop.sketch = "loop";
    std::optional<meta::TuneRecord> waited;
    std::thread waiter(
        [&] { waited = pending.waitFirst(std::chrono::seconds(60)); });
    pending.publish(tensor);
    pending.publish(loop);
    waiter.join();
    ASSERT_TRUE(waited.has_value());
    EXPECT_EQ(waited->latency_us, 16.0);
    ASSERT_TRUE(pending.best().has_value());
    EXPECT_EQ(pending.best()->latency_us, 16.0);
    EXPECT_EQ(pending.waitFirst(std::chrono::milliseconds(0))->latency_us,
              16.0);

    // Of equally fast records the first stays; every publish counts.
    meta::TuneRecord tie = makeRecord(7, 16.0);
    tie.sketch = "loop";
    pending.publish(tie);
    EXPECT_EQ(pending.best()->sketch, "tensor");
    EXPECT_EQ(pending.updates(), 3);
    pending.finish(/*ok=*/true);
    EXPECT_EQ(pending.waitFinal(std::chrono::milliseconds(0))->latency_us,
              16.0);
}

TEST(ScheduleServerTest, ServesSeededRecordAsFinalHit)
{
    serve::ServeOptions options;
    options.tune_workers = 1;
    options.tune = smallTune();
    serve::ScheduleServer server(options);

    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    const uint64_t hash = structuralHash(task.func);
    server.target("gpu").commit(makeRecord(hash, 3.0, "seeded"));

    auto first = server.query(task);
    ASSERT_NE(first.record, nullptr);
    EXPECT_TRUE(first.final);
    EXPECT_EQ(first.pending, nullptr);
    EXPECT_DOUBLE_EQ(first.record->latency_us, 3.0);

    // The commit pre-warmed the cache, so the repeat is a hot hit.
    auto second = server.query(task);
    EXPECT_TRUE(second.from_hot_cache);

    server.shutdown();
    serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.queries, 2u);
    EXPECT_EQ(stats.hot_hits + stats.shard_hits, 2u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.tunes_started, 0u);
}

TEST(ScheduleServerTest, MissTunesInBackgroundAndStreams)
{
    serve::ServeOptions options;
    options.tune_workers = 1;
    options.tune = smallTune();
    serve::ScheduleServer server(options);

    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};

    auto miss = server.query(task);
    EXPECT_EQ(miss.record, nullptr);
    EXPECT_FALSE(miss.final);
    ASSERT_NE(miss.pending, nullptr);

    // Streaming: a first (possibly non-final) schedule arrives before
    // the job necessarily finishes, then the final one on completion.
    auto streamed = miss.pending->waitFirst(std::chrono::minutes(2));
    ASSERT_TRUE(streamed.has_value());
    EXPECT_TRUE(std::isfinite(streamed->latency_us));

    auto final_record =
        miss.pending->waitFinal(std::chrono::minutes(2));
    ASSERT_TRUE(final_record.has_value());
    EXPECT_TRUE(miss.pending->done());
    EXPECT_FALSE(miss.pending->failed());
    EXPECT_GE(miss.pending->updates(), 2)
        << "initial population + final result at minimum";

    // The tuned record is now served as a hit.
    auto hit = server.query(task);
    ASSERT_NE(hit.record, nullptr);
    EXPECT_TRUE(hit.final);
    EXPECT_DOUBLE_EQ(hit.record->latency_us, final_record->latency_us);

    server.shutdown();
    serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.tunes_started, 1u);
    EXPECT_EQ(stats.tunes_completed, 1u);
    EXPECT_EQ(stats.tunes_failed, 0u);
    EXPECT_GE(stats.records_streamed, 2u);
    EXPECT_EQ(server.pendingPoolTasks(), 0u);
}

TEST(ScheduleServerTest, ConcurrentMissesCoalesceToOneTune)
{
    // Satellite 4's single-flight contract: K clients miss on the same
    // workload at once; exactly one background tune runs and everyone
    // gets the same result.
    serve::ServeOptions options;
    options.tune_workers = 2;
    options.tune = smallTune();
    serve::ScheduleServer server(options);

    // Every client must miss before the tune streams its first record,
    // or a late one is served a hit instead. The latch releases the
    // clients together, and the instantiation delay keeps that first
    // record ~75 ms away, so a client descheduled on a loaded host
    // still arrives in time.
    failpoint::ScopedFailpoints slow_tune("search.instantiate=delay(1,25)");
    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    constexpr int kClients = 8;
    std::latch start(kClients);
    std::vector<std::thread> clients;
    std::vector<std::optional<meta::TuneRecord>> results(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            meta::TuneTask task{op.func, "C", "gpu",
                                {"wmma_16x16x16_f16"}};
            start.arrive_and_wait();
            results[c] =
                server.getBest(task, std::chrono::minutes(2));
        });
    }
    for (auto& th : clients) th.join();

    for (int c = 0; c < kClients; ++c) {
        ASSERT_TRUE(results[c].has_value()) << "client " << c;
        EXPECT_TRUE(std::isfinite(results[c]->latency_us));
    }

    server.shutdown();
    serve::ServerStats stats = server.stats();
    EXPECT_EQ(stats.tunes_started, 1u)
        << "K concurrent misses must coalesce into one tune";
    EXPECT_EQ(stats.tunes_completed, 1u);
    EXPECT_EQ(stats.misses, static_cast<uint64_t>(kClients));
    EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kClients - 1));
    EXPECT_EQ(server.pendingTunes(), 0u);
    EXPECT_EQ(server.pendingPoolTasks(), 0u);
}

TEST(ScheduleServerTest, DistinctWorkloadsTuneIndependently)
{
    serve::ServeOptions options;
    options.tune_workers = 2;
    options.tune = smallTune();
    serve::ScheduleServer server(options);

    workloads::OpSpec a = workloads::gmm(64, 64, 64);
    workloads::OpSpec b = workloads::gmm(128, 64, 64);
    meta::TuneTask task_a{a.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    meta::TuneTask task_b{b.func, "C", "gpu", {"wmma_16x16x16_f16"}};

    auto got_a = server.getBest(task_a, std::chrono::minutes(2));
    auto got_b = server.getBest(task_b, std::chrono::minutes(2));
    ASSERT_TRUE(got_a.has_value());
    ASSERT_TRUE(got_b.has_value());
    EXPECT_NE(got_a->workload_hash, got_b->workload_hash);

    server.shutdown();
    EXPECT_EQ(server.stats().tunes_started, 2u);
}

TEST(ScheduleServerTest, ShutdownSnapshotsAndWarmStartRestores)
{
    testutil::ScopedTempDir dir;
    const std::string prefix = dir.file("serve_warm_test");

    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    const uint64_t hash = structuralHash(task.func);

    {
        serve::ServeOptions options;
        options.tune_workers = 1;
        options.tune = smallTune();
        options.snapshot_prefix = prefix;
        serve::ScheduleServer server(options);
        server.target("gpu").commit(
            makeRecord(hash, 2.25, "warm schedule"));
        server.shutdown();
    }
    {
        serve::ServeOptions options;
        options.tune_workers = 1;
        options.tune = smallTune();
        options.snapshot_prefix = prefix;
        serve::ScheduleServer server(options);
        auto hit = server.query(task);
        ASSERT_NE(hit.record, nullptr) << "warm start must restore";
        EXPECT_TRUE(hit.final);
        EXPECT_DOUBLE_EQ(hit.record->latency_us, 2.25);
        EXPECT_EQ(hit.record->workload_name, "warm schedule");
        EXPECT_EQ(server.stats().tunes_started, 0u);
        server.shutdown();
    }
}

TEST(ScheduleServerTest, QueryAfterShutdownFailsLoudly)
{
    serve::ServeOptions options;
    options.tune_workers = 1;
    options.tune = smallTune();
    serve::ScheduleServer server(options);
    server.shutdown();
    server.shutdown(); // idempotent
    workloads::OpSpec op = workloads::gmm(64, 64, 64);
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    EXPECT_THROW(server.query(task), FatalError);
}

} // namespace
} // namespace tir
