#include "serve/server.h"

#include <cmath>
#include <fstream>

#include "ir/structural_hash.h"
#include "support/trace.h"

namespace tir {
namespace serve {

namespace {

std::string
snapshotPath(const std::string& prefix, const std::string& target)
{
    return prefix + "." + target + ".db";
}

std::unique_ptr<hwsim::DeviceModel>
deviceFor(const std::string& target)
{
    if (target == "gpu") return std::make_unique<hwsim::GpuDevice>();
    return std::make_unique<hwsim::CpuDevice>();
}

} // namespace

ScheduleServer::ScheduleServer(ServeOptions options)
    : options_(std::move(options)),
      // +1: the pool counts its owning thread, which serves queries
      // instead of tuning, so tune_workers jobs really run in
      // background. submit() requires at least one worker.
      pool_(options_.tune_workers + 1)
{
    TIR_CHECK(options_.tune_workers >= 1)
        << "ScheduleServer needs tune_workers >= 1, got "
        << options_.tune_workers;
}

ScheduleServer::~ScheduleServer()
{
    try {
        shutdown();
    } catch (...) {
        // A destructor must not throw; shutdown() called explicitly
        // reports snapshot/drain failures, the implicit one cannot.
    }
}

TargetShard&
ScheduleServer::target(const std::string& name)
{
    std::lock_guard<std::mutex> lock(targets_mutex_);
    auto it = targets_.find(name);
    if (it != targets_.end()) return *it->second;
    auto shard = std::make_unique<TargetShard>(deviceFor(name));
    if (!options_.snapshot_prefix.empty()) {
        // Warm start from the previous run's snapshot, if any. Load is
        // tolerant: a torn snapshot cannot exist (save renames
        // atomically), but a damaged, old-format or hand-edited file
        // costs its bad records — each checked against its CRC — not
        // the whole server.
        std::string path = snapshotPath(options_.snapshot_prefix, name);
        if (std::ifstream(path).good()) shard->database().load(path);
    }
    TargetShard& ref = *shard;
    targets_.emplace(name, std::move(shard));
    return ref;
}

ScheduleServer::Response
ScheduleServer::query(const meta::TuneTask& task)
{
    TIR_CHECK(accepting_.load(std::memory_order_acquire))
        << "query on a shut-down ScheduleServer";
    const uint64_t hash = structuralHash(task.func);
    TargetShard& shard = target(task.target);
    queries_.fetch_add(1, std::memory_order_relaxed);

    Response resp;
    std::optional<TargetShard::Hit> hit = shard.lookup(hash);
    if (hit) {
        resp.record = hit->record;
        resp.from_hot_cache = hit->from_hot_cache;
        (hit->from_hot_cache ? hot_hits_ : shard_hits_)
            .fetch_add(1, std::memory_order_relaxed);
    } else {
        misses_.fetch_add(1, std::memory_order_relaxed);
        trace::counterAdd("serve.misses", 1);
    }

    const FlightKey key{task.target, hash};
    std::shared_ptr<PendingTune> started;
    {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            // Single flight: join the running tune instead of starting
            // another.
            resp.pending = it->second;
            if (!hit) {
                coalesced_.fetch_add(1, std::memory_order_relaxed);
            }
            return resp;
        }
        if (hit) {
            // Known record and no tune in flight: authoritative.
            resp.final = true;
            return resp;
        }
        // Re-check the database under the in-flight lock: a tune may
        // have committed its final record and unregistered itself
        // between our lookup above and here. The job commits *before*
        // erasing its in-flight entry (runTune), so "not in flight"
        // implies "result visible" — without this re-check, the race
        // would start a second tune for an already-tuned workload and
        // break the exactly-once contract.
        if (std::optional<TargetShard::Hit> late = shard.lookup(hash)) {
            resp.record = late->record;
            resp.from_hot_cache = late->from_hot_cache;
            resp.final = true;
            return resp;
        }
        started = std::make_shared<PendingTune>();
        inflight_.emplace(key, started);
    }

    tunes_started_.fetch_add(1, std::memory_order_relaxed);
    trace::counterAdd("serve.tunes_started", 1);
    resp.pending = started;
    pool_.submit([this, target_name = task.target, shard_ptr = &shard,
                  task, hash, started]() mutable {
        runTune(std::move(target_name), shard_ptr, std::move(task),
                hash, std::move(started));
    });
    return resp;
}

std::optional<meta::TuneRecord>
ScheduleServer::getBest(const meta::TuneTask& task,
                        std::chrono::milliseconds timeout)
{
    Response resp = query(task);
    // Any record in hand answers the request, even if a tune is still
    // improving it in the background.
    if (resp.record) return *resp.record;
    if (resp.pending) return resp.pending->waitFirst(timeout);
    return std::nullopt;
}

void
ScheduleServer::runTune(std::string target_name, TargetShard* shard,
                        meta::TuneTask task, uint64_t workload_hash,
                        std::shared_ptr<PendingTune> pending)
{
    auto makeRecord = [&](double latency, std::vector<Decision> decisions,
                          std::string sketch) {
        meta::TuneRecord record;
        record.workload_hash = workload_hash;
        record.workload_name = task.func->name;
        record.latency_us = latency;
        record.decisions = std::move(decisions);
        record.sketch = std::move(sketch);
        return record;
    };

    meta::TuneOptions opts = options_.tune;
    opts.progress = [&](const meta::TuneProgress& p) {
        // Stream only checkpoints that found something runnable.
        if (!std::isfinite(p.best_latency_us)) return;
        meta::TuneRecord record =
            makeRecord(p.best_latency_us, p.best_decisions, p.sketch);
        shard->commit(record);
        records_streamed_.fetch_add(1, std::memory_order_relaxed);
        pending->publish(record);
    };

    bool ok = false;
    try {
        meta::TuneResult result =
            meta::autoTune(task, shard->device(), opts);
        if (std::isfinite(result.best_latency_us)) {
            meta::TuneRecord record =
                makeRecord(result.best_latency_us,
                           std::move(result.best_decisions),
                           std::move(result.best_sketch));
            shard->commit(record);
            records_streamed_.fetch_add(1, std::memory_order_relaxed);
            pending->publish(record);
            ok = true;
        }
    } catch (...) {
        // Contained: a failed tune must not take the server down. The
        // failure is visible through stats and PendingTune::failed.
    }
    if (!ok) tunes_failed_.fetch_add(1, std::memory_order_relaxed);

    // Commit-then-unregister ordering matters: query()'s re-check
    // relies on "no in-flight entry" implying "final record visible".
    {
        std::lock_guard<std::mutex> lock(inflight_mutex_);
        inflight_.erase(FlightKey{target_name, workload_hash});
    }
    pending->finish(ok);
    tunes_completed_.fetch_add(1, std::memory_order_relaxed);
}

void
ScheduleServer::shutdown()
{
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) return;
    accepting_.store(false, std::memory_order_release);
    pool_.drain();
    TIR_ICHECK(pool_.pendingTasks() == 0)
        << "pool tasks leaked across shutdown";
    {
        std::lock_guard<std::mutex> ilock(inflight_mutex_);
        TIR_ICHECK(inflight_.empty())
            << "tunes still registered in flight after drain";
    }
    if (!options_.snapshot_prefix.empty()) {
        std::lock_guard<std::mutex> tlock(targets_mutex_);
        for (const auto& [name, shard] : targets_) {
            shard->database().save(
                snapshotPath(options_.snapshot_prefix, name));
        }
    }
    shut_down_ = true;
}

ServerStats
ScheduleServer::stats() const
{
    ServerStats s;
    s.queries = queries_.load(std::memory_order_relaxed);
    s.hot_hits = hot_hits_.load(std::memory_order_relaxed);
    s.shard_hits = shard_hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.coalesced = coalesced_.load(std::memory_order_relaxed);
    s.tunes_started = tunes_started_.load(std::memory_order_relaxed);
    s.tunes_completed = tunes_completed_.load(std::memory_order_relaxed);
    s.tunes_failed = tunes_failed_.load(std::memory_order_relaxed);
    s.records_streamed =
        records_streamed_.load(std::memory_order_relaxed);
    return s;
}

size_t
ScheduleServer::pendingTunes() const
{
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    return inflight_.size();
}

} // namespace serve
} // namespace tir
