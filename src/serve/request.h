/**
 * @file
 * Client-visible handle for an in-flight background tune. The schedule
 * server (serve/server.h) coalesces every cache miss for one
 * (target, workload-hash) pair onto a single `PendingTune` — the
 * single-flight rendezvous — and streams improving records into it as
 * the search completes checkpoints (TuneOptions::progress). Clients
 * hold the handle through a shared_ptr and can block for the first
 * usable schedule (waitFirst), for the final one (waitFinal), or poll
 * (best/done) while doing other work.
 */
#ifndef TENSORIR_SERVE_REQUEST_H
#define TENSORIR_SERVE_REQUEST_H

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>

#include "meta/database.h"

namespace tir {
namespace serve {

/**
 * Rendezvous between one background tuning job and any number of
 * waiting clients. The server publishes the best-so-far record after
 * every search checkpoint and finishes the handle exactly once when the
 * job ends; clients only read. All methods are thread-safe.
 */
class PendingTune
{
  public:
    /** Fastest streamed record (the first of equally fast ones), or
     *  nullopt before the first checkpoint with a finite latency. */
    std::optional<meta::TuneRecord>
    best() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return best_;
    }

    /**
     * Block until at least one record has been streamed (typically
     * after the initial random population — the miss-to-first-schedule
     * latency the load generator reports), the job finishes, or
     * `timeout` elapses. Returns the best record seen so far; nullopt
     * on timeout-before-first-record or when the job failed without
     * producing any schedule.
     */
    std::optional<meta::TuneRecord>
    waitFirst(std::chrono::milliseconds timeout) const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        updated_.wait_for(lock, timeout,
                          [&] { return best_.has_value() || done_; });
        return best_;
    }

    /** Block until the job finishes (or `timeout` elapses) and return
     *  its final best record. */
    std::optional<meta::TuneRecord>
    waitFinal(std::chrono::milliseconds timeout) const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        updated_.wait_for(lock, timeout, [&] { return done_; });
        return done_ ? best_ : std::nullopt;
    }

    /** Whether the background job has terminated (success or failure). */
    bool
    done() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return done_;
    }

    /** Whether the job terminated without producing a final schedule
     *  (search threw, or every candidate was invalid). Meaningful only
     *  once done(). */
    bool
    failed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return done_ && failed_;
    }

    /** How many records have been published so far, kept or not
     *  (monotonic). */
    int
    updates() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return updates_;
    }

    // --- server side -----------------------------------------------

    /** Stream a record. The handle keeps it only when it is faster
     *  than every record before it: autoTune's two searches each
     *  announce their own best-so-far, and the second may announce a
     *  slower one. Server only. */
    void
    publish(const meta::TuneRecord& record)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!best_ || record.latency_us < best_->latency_us) {
                best_ = record;
            }
            ++updates_;
        }
        updated_.notify_all();
    }

    /** Mark the job terminated. Server only; called exactly once. */
    void
    finish(bool ok)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
            failed_ = !ok;
        }
        updated_.notify_all();
    }

  private:
    mutable std::mutex mutex_;
    mutable std::condition_variable updated_;
    std::optional<meta::TuneRecord> best_;
    bool done_ = false;
    bool failed_ = false;
    int updates_ = 0;
};

} // namespace serve
} // namespace tir

#endif // TENSORIR_SERVE_REQUEST_H
