#include "support/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "support/logging.h"

namespace tir {
namespace trace {

namespace detail {

std::atomic<bool> g_enabled{false};

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace {

/** One recorded event, pending export. */
struct Event
{
    const char* name = nullptr; // always a string literal
    std::string args;           // rendered `"k":v` fragments, or empty
    uint64_t ts_ns = 0;         // absolute steady-clock time
    uint64_t dur_ns = 0;        // spans only
    double value = 0;           // counters/gauges only
    char phase = 'X';           // 'X' span, 'C' counter, 'i' instant
    char category = 's';        // 's' span, 'c' counter, 'g' gauge
};

/** Per-thread event buffer, owned by the collector. */
struct ThreadBuffer
{
    uint32_t tid = 0;
    std::vector<Event> events;
    uint64_t dropped = 0;
};

/** Cap per-thread buffers so a runaway session cannot exhaust memory;
 *  overflow is counted and reported in the summary instead. */
constexpr size_t kMaxEventsPerThread = size_t{1} << 22;

struct Collector
{
    std::mutex mutex;
    std::string path;
    uint64_t session = 0;       // bumped on every start(); 0 = never
    uint64_t start_ns = 0;      // session epoch
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    std::map<std::string, int64_t> counter_totals;
    uint64_t last_counter_ns = 0; // strictly increasing counter stamps
};

Collector&
collector()
{
    static Collector c;
    return c;
}

/** The calling thread's buffer for the active session, registering on
 *  first touch; nullptr when no session is active. */
ThreadBuffer*
threadBuffer()
{
    thread_local ThreadBuffer* cached = nullptr;
    thread_local uint64_t cached_session = 0;
    if (!g_enabled.load(std::memory_order_relaxed)) return nullptr;
    Collector& c = collector();
    if (cached && cached_session == c.session) return cached;
    std::lock_guard<std::mutex> lock(c.mutex);
    if (!g_enabled.load(std::memory_order_relaxed)) return nullptr;
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<uint32_t>(c.buffers.size());
    cached = buffer.get();
    cached_session = c.session;
    c.buffers.push_back(std::move(buffer));
    return cached;
}

void
push(ThreadBuffer* buf, Event event)
{
    if (buf->events.size() >= kMaxEventsPerThread) {
        ++buf->dropped;
        return;
    }
    buf->events.push_back(std::move(event));
}

/** Minimal JSON string escaping for names and pre-rendered args. */
std::string
escapeJson(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (char ch : text) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x", ch);
                out += hex;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

const char*
categoryName(char category)
{
    switch (category) {
      case 'c': return "counter";
      case 'g': return "gauge";
      default: return "span";
    }
}

/** Write the Chrome trace-event file. Caller holds the mutex. */
void
writeJsonLocked(Collector& c)
{
    std::FILE* out = std::fopen(c.path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr,
                     "tensorir: cannot write trace to %s\n",
                     c.path.c_str());
        return;
    }
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
    bool first = true;
    auto emit = [&](const std::string& line) {
        if (!first) std::fputs(",\n", out);
        first = false;
        std::fputs(line.c_str(), out);
    };
    for (const auto& buf : c.buffers) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":%u,\"args\":{\"name\":\"%s-%u\"}}",
                      buf->tid, buf->tid == 0 ? "main" : "worker",
                      buf->tid);
        emit(line);
    }
    // One time-ordered stream across all threads, so each counter's
    // samples appear in the order their totals were assigned.
    std::vector<std::pair<const Event*, uint32_t>> events;
    for (const auto& buf : c.buffers) {
        for (const Event& e : buf->events) {
            events.emplace_back(&e, buf->tid);
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const auto& a, const auto& b) {
                         return a.first->ts_ns < b.first->ts_ns;
                     });
    for (const auto& [event, tid] : events) {
        const Event& e = *event;
        double ts_us =
            static_cast<double>(e.ts_ns - c.start_ns) / 1000.0;
        char head[256];
        std::string line;
        switch (e.phase) {
          case 'X':
            std::snprintf(head, sizeof(head),
                          "{\"name\":\"%s\",\"cat\":\"span\","
                          "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                          "\"pid\":1,\"tid\":%u",
                          e.name, ts_us,
                          static_cast<double>(e.dur_ns) / 1000.0,
                          tid);
            break;
          case 'C':
            std::snprintf(head, sizeof(head),
                          "{\"name\":\"%s\",\"cat\":\"%s\","
                          "\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,"
                          "\"tid\":%u,\"args\":{\"value\":%.17g}}",
                          e.name, categoryName(e.category), ts_us,
                          tid, e.value);
            break;
          default:
            std::snprintf(head, sizeof(head),
                          "{\"name\":\"%s\",\"cat\":\"span\","
                          "\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                          "\"pid\":1,\"tid\":%u",
                          e.name, ts_us, tid);
        }
        line = head;
        if (e.phase != 'C') {
            if (!e.args.empty()) {
                line += ",\"args\":{" + e.args + "}";
            }
            line += "}";
        }
        emit(line);
    }
    std::fputs("\n]}\n", out);
    std::fclose(out);
}

/** Starts a session from TENSORIR_TRACE at process start and flushes
 *  it at exit, so any binary can be traced without code changes. */
struct EnvSession
{
    EnvSession()
    {
        const char* path = std::getenv("TENSORIR_TRACE");
        if (path && *path && start(path)) {
            std::atexit([] { stop(); });
        }
    }
};
EnvSession env_session;

} // namespace

void
emitSpan(const char* name, uint64_t start_ns, std::string args)
{
    ThreadBuffer* buf = threadBuffer();
    if (!buf) return; // session ended while the span was open
    Event event;
    event.name = name;
    event.args = std::move(args);
    event.ts_ns = start_ns;
    event.dur_ns = nowNs() - start_ns;
    event.phase = 'X';
    push(buf, std::move(event));
}

} // namespace detail

bool
start(const std::string& path)
{
    TIR_CHECK(!path.empty()) << "trace session needs an output path";
    detail::Collector& c = detail::collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    if (detail::g_enabled.load(std::memory_order_relaxed)) return false;
    c.path = path;
    ++c.session;
    c.start_ns = detail::nowNs();
    c.buffers.clear();
    c.counter_totals.clear();
    detail::g_enabled.store(true, std::memory_order_release);
    return true;
}

void
stop()
{
    detail::Collector& c = detail::collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
    // Disable before writing so a (misbehaving) concurrent hook drops
    // its event instead of appending to a buffer being exported.
    detail::g_enabled.store(false, std::memory_order_release);
    detail::writeJsonLocked(c);
    c.buffers.clear();
    c.counter_totals.clear();
    c.path.clear();
}

void
counterAdd(const char* name, int64_t delta)
{
    if (!enabled()) return;
    detail::ThreadBuffer* buf = detail::threadBuffer();
    if (!buf) return;
    detail::Collector& c = detail::collector();
    detail::Event event;
    {
        // Stamp under the lock that assigns the total: the exported
        // stream is time-ordered, so a later total needs a later time.
        std::lock_guard<std::mutex> lock(c.mutex);
        event.value = static_cast<double>(c.counter_totals[name] += delta);
        event.ts_ns = c.last_counter_ns =
            std::max(detail::nowNs(), c.last_counter_ns + 1);
    }
    event.name = name;
    event.phase = 'C';
    event.category = 'c';
    detail::push(buf, std::move(event));
}

void
gauge(const char* name, double value)
{
    if (!enabled()) return;
    detail::ThreadBuffer* buf = detail::threadBuffer();
    if (!buf) return;
    detail::Event event;
    event.name = name;
    event.ts_ns = detail::nowNs();
    event.value = value;
    event.phase = 'C';
    event.category = 'g';
    detail::push(buf, std::move(event));
}

void
instant(const char* name, std::string args)
{
    if (!enabled()) return;
    detail::ThreadBuffer* buf = detail::threadBuffer();
    if (!buf) return;
    detail::Event event;
    event.name = name;
    event.args = std::move(args);
    event.ts_ns = detail::nowNs();
    event.phase = 'i';
    detail::push(buf, std::move(event));
}

std::string
summaryText()
{
    detail::Collector& c = detail::collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    if (!detail::g_enabled.load(std::memory_order_relaxed)) return "";
    struct SpanStat
    {
        int64_t calls = 0;
        uint64_t total_ns = 0;
    };
    std::map<std::string, SpanStat> spans;
    // Latest sample per gauge name (by timestamp, across threads).
    std::map<std::string, std::pair<uint64_t, double>> gauge_last;
    uint64_t dropped = 0;
    for (const auto& buf : c.buffers) {
        dropped += buf->dropped;
        for (const detail::Event& e : buf->events) {
            if (e.phase == 'X') {
                SpanStat& stat = spans[e.name];
                ++stat.calls;
                stat.total_ns += e.dur_ns;
            } else if (e.phase == 'C' && e.category == 'g') {
                auto& slot = gauge_last[e.name];
                if (e.ts_ns >= slot.first) slot = {e.ts_ns, e.value};
            }
        }
    }
    std::vector<std::pair<std::string, SpanStat>> ordered(
        spans.begin(), spans.end());
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const auto& a, const auto& b) {
                         return a.second.total_ns > b.second.total_ns;
                     });
    std::string text = "trace summary (" + c.path + "):\n";
    char line[256];
    std::snprintf(line, sizeof(line), "  %-34s %9s %12s %12s\n",
                  "span", "calls", "total ms", "mean us");
    text += line;
    for (const auto& [name, stat] : ordered) {
        std::snprintf(line, sizeof(line),
                      "  %-34s %9lld %12.3f %12.1f\n", name.c_str(),
                      static_cast<long long>(stat.calls),
                      static_cast<double>(stat.total_ns) / 1e6,
                      static_cast<double>(stat.total_ns) / 1e3 /
                          static_cast<double>(stat.calls));
        text += line;
    }
    for (const auto& [name, total] : c.counter_totals) {
        std::snprintf(line, sizeof(line), "  counter %-26s %9lld\n",
                      name.c_str(), static_cast<long long>(total));
        text += line;
    }
    for (const auto& [name, sample] : gauge_last) {
        std::snprintf(line, sizeof(line), "  gauge   %-26s %9.4g\n",
                      name.c_str(), sample.second);
        text += line;
    }
    if (dropped > 0) {
        std::snprintf(line, sizeof(line),
                      "  (%llu events dropped at the per-thread cap)\n",
                      static_cast<unsigned long long>(dropped));
        text += line;
    }
    return text;
}

std::string
arg(const char* key, int64_t value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key,
                  static_cast<long long>(value));
    return buf;
}

std::string
arg(const char* key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key, value);
    return buf;
}

std::string
arg(const char* key, const std::string& value)
{
    return "\"" + std::string(key) + "\":\"" +
           detail::escapeJson(value) + "\"";
}

} // namespace trace
} // namespace tir
