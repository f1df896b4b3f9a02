/**
 * @file
 * Schedule serving in four steps (serve/server.h):
 *  1. Start a ScheduleServer — a long-lived answerer for "best
 *     schedule for (workload, shape, target)" backed by the sharded
 *     tuning database with a mutex-free hot cache in front.
 *  2. Query a workload it has never seen: the miss coalesces into one
 *     background autoTune job and returns a PendingTune handle
 *     immediately; the first usable schedule streams out after the
 *     search's initial population, long before tuning finishes.
 *  3. Query again: now it is a hot-cache hit — no hashing (the
 *     workload's hash is memoized), no mutex, no shared counter — the
 *     §5.2 record-caching idea turned into a service.
 *  4. Shut down cleanly: every background tune drains, and the
 *     database snapshots atomically to disk for the next process
 *     (re-running this example warm-starts from the snapshot).
 */
#include <chrono>
#include <cstdio>

#include "intrin/tensor_intrin.h"
#include "serve/server.h"
#include "workloads/workloads.h"

using namespace tir;

int
main()
{
    registerBuiltinIntrinsics();

    // 1. A server with two background tune workers and a small search
    // budget per miss. The snapshot prefix makes shutdown persist the
    // database — delete /tmp/tensorir_serve_quickstart.gpu.db to see
    // the cold path again.
    serve::ServeOptions options;
    options.tune_workers = 2;
    options.tune.population = 4;
    options.tune.generations = 2;
    options.tune.children_per_generation = 8;
    options.tune.parallelism = 1;
    options.snapshot_prefix = "/tmp/tensorir_serve_quickstart";
    serve::ScheduleServer server(options);

    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    meta::TuneTask task{op.func, op.einsum_block, "gpu",
                        {"wmma_16x16x16_f16"}};

    // 2. First query. On a cold cache this is a miss: the server
    // starts one background tune and hands back a PendingTune.
    serve::ScheduleServer::Response first = server.query(task);
    if (first.record) {
        std::printf("warm start: %s served at %.2f us (%s)\n",
                    first.record->workload_name.c_str(),
                    first.record->latency_us,
                    first.from_hot_cache ? "hot cache" : "database");
    } else {
        std::printf("miss: tuning in the background...\n");
        auto streamed =
            first.pending->waitFirst(std::chrono::minutes(2));
        if (streamed) {
            std::printf("  first streamed schedule: %.2f us "
                        "(after the initial population)\n",
                        streamed->latency_us);
        }
        auto final_record =
            first.pending->waitFinal(std::chrono::minutes(2));
        if (final_record) {
            std::printf("  final schedule:          %.2f us "
                        "(%d updates streamed)\n",
                        final_record->latency_us,
                        first.pending->updates());
        }
    }

    // 3. Second query: a hit, served without any locking on the hot
    // path.
    serve::ScheduleServer::Response again = server.query(task);
    std::printf("repeat query: %.2f us schedule via %s, final=%s\n",
                again.record ? again.record->latency_us : -1.0,
                again.from_hot_cache ? "hot cache" : "database",
                again.final ? "yes" : "no");

    // 4. Clean shutdown: drain tunes, snapshot the database.
    server.shutdown();
    serve::ServerStats stats = server.stats();
    std::printf("stats: queries=%llu hits=%llu misses=%llu "
                "tunes=%llu streamed=%llu\n",
                (unsigned long long)stats.queries,
                (unsigned long long)(stats.hot_hits + stats.shard_hits),
                (unsigned long long)stats.misses,
                (unsigned long long)stats.tunes_started,
                (unsigned long long)stats.records_streamed);
    std::printf("snapshot saved to %s.gpu.db\n",
                options.snapshot_prefix.c_str());
    return 0;
}
