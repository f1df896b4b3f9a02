/**
 * @file
 * In-memory span recorder for the benchmark's traced mode. The
 * benchmark opens a span around every public call it makes into a
 * layer of the library; spans are named after the layer, carry the id
 * of the candidate or request they belong to and the id of the span
 * that caused them, and stay in memory until the process writes them
 * out at the end. Per-layer metrics are span self times: a span's
 * duration minus the durations of its child spans.
 *
 * A disabled recorder (the untraced mode) makes every span a no-op, so
 * the end-to-end metrics are measured with tracing off.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    uint64_t group = 0;  ///< candidate / request / task id
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
};

/** Self time and call count of one span name. */
struct LayerTotal
{
    uint64_t count = 0;
    int64_t self_ns = 0;
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_; }

    uint64_t
    newId()
    {
        return next_id_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Per-thread append-only buffer; one per recording thread. */
    class Buffer
    {
      public:
        void push(const SpanRecord& r) { spans_.push_back(r); }

      private:
        friend class Tracer;
        std::vector<SpanRecord> spans_;
    };

    /** A buffer owned by the tracer for the calling thread to use. */
    Buffer&
    buffer()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return buffers_.emplace_back();
    }

    /** Scoped span; records nothing when the tracer is disabled. */
    class Span
    {
      public:
        Span(Tracer& tracer, Buffer& buf, const char* name,
             uint64_t group, uint64_t parent = 0)
            : buf_(tracer.enabled() ? &buf : nullptr)
        {
            if (!buf_) return;
            rec_.id = tracer.newId();
            rec_.parent = parent;
            rec_.group = group;
            rec_.name = name;
            rec_.start_ns = nowNs();
        }
        ~Span()
        {
            if (!buf_) return;
            rec_.end_ns = nowNs();
            buf_->push(rec_);
        }
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

        uint64_t id() const { return rec_.id; }

      private:
        Buffer* buf_;
        SpanRecord rec_;
    };

    /** Self time per span name over every span recorded so far. Call
     *  only after the recording threads have stopped. */
    std::map<std::string, LayerTotal>
    totals() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::unordered_map<uint64_t, int64_t> child_ns;
        for (const Buffer& b : buffers_) {
            for (const SpanRecord& r : b.spans_) {
                if (r.parent) child_ns[r.parent] += r.end_ns - r.start_ns;
            }
        }
        std::map<std::string, LayerTotal> out;
        for (const Buffer& b : buffers_) {
            for (const SpanRecord& r : b.spans_) {
                LayerTotal& t = out[r.name];
                ++t.count;
                auto it = child_ns.find(r.id);
                t.self_ns += (r.end_ns - r.start_ns) -
                             (it == child_ns.end() ? 0 : it->second);
            }
        }
        return out;
    }

    /** Append every span as a CSV row: id,parent,group,name,start,end
     *  (nanoseconds on the steady clock). */
    bool
    write(const std::string& path) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        FILE* f = std::fopen(path.c_str(), "a");
        if (!f) return false;
        for (const Buffer& b : buffers_) {
            for (const SpanRecord& r : b.spans_) {
                std::fprintf(f, "%llu,%llu,%llu,%s,%lld,%lld\n",
                             (unsigned long long)r.id,
                             (unsigned long long)r.parent,
                             (unsigned long long)r.group, r.name,
                             (long long)r.start_ns, (long long)r.end_ns);
            }
        }
        return std::fclose(f) == 0;
    }

  private:
    bool enabled_;
    std::atomic<uint64_t> next_id_{1};
    mutable std::mutex mutex_;
    // Guarded by mutex_; a deque so handed-out references stay valid.
    std::deque<Buffer> buffers_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
