/**
 * @file
 * A small fixed-size std::jthread pool used by the parallel tuning
 * pipeline (candidate instantiation, feature extraction, cost-model
 * fitting). Deliberately work-stealing-free: one shared batch with an
 * atomic claim index is all the §4.4 search needs, because every batch
 * is an embarrassingly parallel map over independent candidates.
 *
 * Determinism contract: parallelFor(n, fn) only parallelizes the *order
 * of execution*, never the work itself — fn(i) must be a pure function
 * of i and of state that is read-only for the duration of the call.
 * Callers that fold results do so sequentially, in index order, after
 * parallelFor returns; that is what makes `parallelism=1` and
 * `parallelism=N` produce byte-identical tuning results.
 *
 * parallelFor must be called from the thread that owns the pool (it
 * participates in the batch itself); calling it from inside a worker
 * task would deadlock and is not supported.
 *
 * Besides index batches, the pool runs detached background *tasks*
 * (submit/drain): fire-and-forget jobs the schedule-serving layer uses
 * for cache-miss tuning. Tasks and batches share the worker threads; a
 * worker prefers an open batch (the owner is blocked on it) and picks
 * up queued tasks otherwise, so a long-running task occupies one
 * worker without stalling parallelFor. A task must not call
 * parallelFor or submit on its own pool (deadlock / unbounded
 * recursion); spawning a private nested pool — as a background
 * autoTune with parallelism > 1 does — is fine.
 */
#ifndef TENSORIR_SUPPORT_THREAD_POOL_H
#define TENSORIR_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/failpoint.h"
#include "support/logging.h"

namespace tir {
namespace support {

/** Fixed pool of jthreads executing index-batch loops. */
class ThreadPool
{
  public:
    /**
     * Create a pool that runs batches on `threads` threads in total.
     * The calling thread counts as one of them, so `threads = 1` spawns
     * nothing and parallelFor degenerates to an inline loop; `threads =
     * 0` means "one per hardware thread".
     */
    explicit ThreadPool(int threads = 0)
    {
        if (threads <= 0) threads = hardwareParallelism();
        for (int t = 0; t < threads - 1; ++t) {
            workers_.emplace_back(
                [this](std::stop_token st) { workerLoop(st); });
        }
    }

    /** Destruction stops workers after their *current* work item:
     *  queued-but-unstarted tasks are discarded (observable via
     *  pendingTasks() beforehand). Callers that need every submitted
     *  task to finish call drain() first — that is the serving layer's
     *  clean-shutdown contract. */
    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (std::jthread& w : workers_) w.request_stop();
        }
        work_ready_.notify_all();
        // Join here, in the destructor body, so every worker has fully
        // returned from work_ready_.wait (which reacquires mutex_)
        // before the mutex and condition variables are destroyed.
        workers_.clear();
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Total threads a batch runs on (including the calling thread). */
    int
    parallelism() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /** The OS-reported hardware thread count (at least 1). */
    static int
    hardwareParallelism()
    {
        unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : static_cast<int>(hw);
    }

    /**
     * Run fn(0) ... fn(n-1), distributed over the pool; returns when all
     * calls finished. The first exception thrown by any fn is rethrown
     * on the calling thread (after the batch drains).
     */
    void
    parallelFor(size_t n, const std::function<void(size_t)>& fn)
    {
        if (n == 0) return;
        if (workers_.empty() || n == 1) {
            for (size_t i = 0; i < n; ++i) fn(i);
            return;
        }
        auto batch = std::make_shared<Batch>();
        batch->fn = &fn;
        batch->n = n;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            TIR_ICHECK(!batch_) << "nested parallelFor is not supported";
            batch_ = batch;
        }
        work_ready_.notify_all();
        runBatch(*batch);
        std::exception_ptr error;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            batch_done_.wait(lock, [&] {
                return batch->done.load() == batch->n;
            });
            batch_ = nullptr;
            // Take the error out: a worker may still hold the batch, and
            // must not be the thread that frees the exception the caller
            // is handling (its refcounts live in uninstrumented
            // libstdc++, so TSan would report the free as a race).
            error = std::move(batch->error);
        }
        if (error) std::rethrow_exception(error);
    }

    /**
     * Enqueue a detached background task; it runs on some pool worker
     * when one is free. Requires a pool with at least one worker
     * (threads >= 2): with none, a "background" task could only run by
     * blocking the submitting thread, which would silently serialize
     * the caller — fail loudly instead. A task that throws is contained
     * (the exception is swallowed and counted in taskExceptions());
     * tasks that care about their errors report them through their own
     * channel, as the schedule server's tune jobs do.
     */
    void
    submit(std::function<void()> task)
    {
        TIR_ICHECK(!workers_.empty())
            << "ThreadPool::submit needs a pool with workers "
               "(threads >= 2)";
        {
            std::lock_guard<std::mutex> lock(mutex_);
            tasks_.push_back(std::move(task));
        }
        work_ready_.notify_one();
    }

    /** Block until every submitted task has finished (queue empty and
     *  nothing running). New submissions during the wait extend it. */
    void
    drain()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        tasks_done_.wait(lock, [&] {
            return tasks_.empty() && running_tasks_ == 0;
        });
    }

    /** Tasks not yet finished: queued plus currently running. Zero
     *  after drain() — the "no leaked pool tasks" shutdown assertion. */
    size_t
    pendingTasks() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return tasks_.size() + static_cast<size_t>(running_tasks_);
    }

    /** Background tasks that terminated by throwing (contained). */
    int
    taskExceptions() const
    {
        return task_exceptions_.load(std::memory_order_relaxed);
    }

  private:
    /** One parallelFor invocation: claim indices until exhausted. */
    struct Batch
    {
        const std::function<void(size_t)>* fn = nullptr;
        size_t n = 0;
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::exception_ptr error; // first error; guarded by owner mutex_
    };

    void
    runBatch(Batch& batch)
    {
        for (size_t i = batch.next.fetch_add(1); i < batch.n;
             i = batch.next.fetch_add(1)) {
            try {
                // Inside the try: an injected dispatch fault drains
                // into batch.error like any task exception, instead of
                // escaping a worker thread (which would terminate).
                failpoint::inject("thread_pool.dispatch");
                (*batch.fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!batch.error) batch.error = std::current_exception();
            }
            if (batch.done.fetch_add(1) + 1 == batch.n) {
                // Lock so the notify cannot slip between the waiter's
                // predicate check and its sleep.
                std::lock_guard<std::mutex> lock(mutex_);
                batch_done_.notify_all();
            }
        }
    }

    void
    workerLoop(std::stop_token st)
    {
        while (true) {
            std::shared_ptr<Batch> batch;
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                work_ready_.wait(lock, st, [&] {
                    return (batch_ && batch_->next.load() < batch_->n) ||
                           !tasks_.empty();
                });
                if (st.stop_requested()) return;
                // The owner claims batch indices without the lock, so
                // the batch that woke this worker may be exhausted by
                // now. Decide once: an open batch wins (the owner is
                // blocked on it, while background tasks have no one
                // waiting synchronously), then a queued task; with
                // neither, go back to waiting. The failpoint site is
                // for `delay` schedules that widen that window in
                // tests; a `throw` there must not escape the worker.
                try {
                    failpoint::inject("thread_pool.claim");
                } catch (const failpoint::InjectedFault&) {
                }
                if (batch_ && batch_->next.load() < batch_->n) {
                    batch = batch_;
                } else if (!tasks_.empty()) {
                    task = std::move(tasks_.front());
                    tasks_.pop_front();
                    ++running_tasks_;
                } else {
                    continue;
                }
            }
            if (batch) {
                runBatch(*batch);
            } else {
                try {
                    task();
                } catch (...) {
                    // A background task has no caller to rethrow into;
                    // containment (count, never terminate) mirrors the
                    // per-candidate policy everywhere else.
                    task_exceptions_.fetch_add(1,
                                               std::memory_order_relaxed);
                }
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    --running_tasks_;
                }
                tasks_done_.notify_all();
            }
        }
    }

    mutable std::mutex mutex_;
    std::condition_variable_any work_ready_;
    std::condition_variable_any batch_done_;
    std::condition_variable_any tasks_done_;
    std::shared_ptr<Batch> batch_;
    std::deque<std::function<void()>> tasks_;
    int running_tasks_ = 0;
    std::atomic<int> task_exceptions_{0};
    // Last member: even if the explicit join in ~ThreadPool is ever
    // bypassed, the jthreads' own destructors run before the mutex and
    // condition variables above are torn down.
    std::vector<std::jthread> workers_;
};

} // namespace support
} // namespace tir

#endif // TENSORIR_SUPPORT_THREAD_POOL_H
