#include "meta/runner.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <dlfcn.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runtime/interpreter.h"
#include "support/double_bits.h"
#include "support/failpoint.h"
#include "support/frame.h"
#include "support/rng.h"
#include "support/trace.h"

namespace tir {
namespace meta {

const char*
runnerStatusName(RunnerStatus status)
{
    switch (status) {
      case RunnerStatus::kOk: return "ok";
      case RunnerStatus::kReject: return "reject";
      case RunnerStatus::kCrash: return "crash";
      case RunnerStatus::kHang: return "hang";
      default: return "unavailable";
    }
}

namespace {

// --- pipe framing -------------------------------------------------------
// Requests and replies are CRC frames (support/frame.h), so a torn
// write or a corrupted byte is detected on either side of the pipe.

constexpr size_t kMaxFrameBytes = 1 << 20;

/** Take the first frame off `buffer`. Returns 0 while incomplete, 1
 *  on a verified frame (extracted into `body` and consumed from the
 *  buffer), -1 on a damaged frame or an oversized buffer. */
int
extractFrame(std::string& buffer, std::string* body)
{
    support::FrameScan scan = support::scanFrame(buffer);
    switch (scan.status) {
      case support::FrameScan::Status::kComplete:
        *body = scan.body;
        buffer.erase(0, scan.end);
        return 1;
      case support::FrameScan::Status::kDamaged: return -1;
      default: return buffer.size() > kMaxFrameBytes ? -1 : 0;
    }
}

/** Write all of `data` to `fd`; false on any error (EPIPE shows up
 *  here as a failed write because the runner ignores SIGPIPE). */
bool
writeAll(int fd, const std::string& data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

// --- worker child -------------------------------------------------------

/** Close every inherited descriptor except stdio and the worker's two
 *  pipe ends: the journal stream, trace files, jit-cache lock fds and
 *  anything else the parent had open must not stay writable from the
 *  child (a stray child write would corrupt parent-owned files, and a
 *  held flock fd would pin the cross-process compile lock). */
void
closeInheritedFds(int keep_a, int keep_b)
{
    DIR* dir = ::opendir("/proc/self/fd");
    if (!dir) {
        // Conservative fallback: sweep a plausible descriptor range.
        for (int fd = 3; fd < 1024; ++fd) {
            if (fd != keep_a && fd != keep_b) ::close(fd);
        }
        return;
    }
    int dir_fd = ::dirfd(dir);
    std::vector<int> to_close;
    while (struct dirent* ent = ::readdir(dir)) {
        char* end = nullptr;
        long fd = std::strtol(ent->d_name, &end, 10);
        if (!end || *end != '\0') continue;
        if (fd <= 2 || fd == keep_a || fd == keep_b || fd == dir_fd) {
            continue;
        }
        to_close.push_back(static_cast<int>(fd));
    }
    ::closedir(dir);
    for (int fd : to_close) ::close(fd);
}

/** Blocking frame read on the request pipe. Returns 1 on a verified
 *  frame, 0 on EOF (parent closed the pipe), -1 on a corrupt frame. */
int
childReadFrame(int fd, std::string& buffer, std::string* body)
{
    for (;;) {
        int got = extractFrame(buffer, body);
        if (got != 0) return got;
        char chunk[4096];
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return 0;
        buffer.append(chunk, static_cast<size_t>(n));
    }
}

/** The worker's argument tensors, built once per worker from the
 *  workload inherited at fork time. */
struct ChildArguments
{
    std::vector<runtime::NDArray> arrays;
    bool ok = false;
};

ChildArguments
buildChildArguments(const PrimFunc& workload, uint64_t seed)
{
    ChildArguments out;
    try {
        // A derivation stream disjoint from every candidate stream
        // (generation + 1 indices) and from the numeric oracle's
        // (0, ~0), so measurement inputs never correlate with schedule
        // sampling or the spot-check data.
        Rng rng = Rng::derive(seed, ~uint64_t{0}, 1);
        out.arrays = runtime::seededArguments(workload, rng);
        out.ok = true;
    } catch (const std::exception&) {
        out.arrays.clear();
    }
    return out;
}

/** Handle one parsed request inside the worker; returns the response
 *  body. Never throws: every failure becomes a "reject <why>" reply. */
std::string
childHandleRequest(const std::string& body, ChildArguments& args)
{
    std::istringstream is(body);
    std::string line, tag, entry_symbol, object_path;
    size_t num_params = 0;
    int warmup = 0, repeats = 1;
    unsigned long long step_limit = 0, key = 0;
    std::vector<int64_t> local_counts;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        ls >> tag;
        if (tag == "run") {
            ls >> entry_symbol >> num_params >> warmup >> repeats >>
                step_limit >> key;
            if (ls.fail()) return "reject protocol";
        } else if (tag == "locals") {
            size_t n = 0;
            ls >> n;
            int64_t count = 0;
            while (ls >> count) local_counts.push_back(count);
            if (local_counts.size() != n) return "reject protocol";
        } else if (tag == "path") {
            // The path may contain spaces: everything after "path ".
            if (line.size() > 5) object_path = line.substr(5);
        } else if (!tag.empty()) {
            return "reject protocol";
        }
    }
    if (entry_symbol.empty() || object_path.empty()) {
        return "reject protocol";
    }

    // Deterministic child-death injection, keyed by candidate identity
    // (the failpoint registry was inherited at fork time). These are
    // what make the crash/hang classification paths testable: a fired
    // site kills or wedges this worker exactly like hostile generated
    // code would, and the parent must classify, account, and carry on.
    if (failpoint::inject("runner.crash", key)) ::abort();
    if (failpoint::inject("runner.segv", key)) ::raise(SIGSEGV);
    if (failpoint::inject("runner.hang", key)) {
        for (;;) ::pause();
    }
    // Same site the in-process engines evaluate before a run, so a
    // chaos schedule rejects candidates identically either way.
    if (failpoint::inject("interp.run", key)) return "reject injected";

    if (!args.ok) return "reject arguments";
    if (num_params != args.arrays.size()) return "reject params";

    void* handle = ::dlopen(object_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!handle) return "reject dlopen";
    using EntryFn = int64_t (*)(double**, int64_t);
    auto entry = reinterpret_cast<EntryFn>(
        ::dlsym(handle, entry_symbol.c_str()));
    if (!entry) {
        ::dlclose(handle);
        return "reject symbol";
    }

    std::string reply;
    {
        std::vector<std::vector<double>> locals;
        std::vector<double*> bufs;
        bufs.reserve(args.arrays.size() + local_counts.size());
        for (runtime::NDArray& a : args.arrays) bufs.push_back(a.data());
        for (int64_t count : local_counts) {
            locals.emplace_back(
                static_cast<size_t>(std::max<int64_t>(count, 0)), 0.0);
            bufs.push_back(locals.back().data());
        }
        auto run_once = [&]() -> int64_t {
            return entry(bufs.data(), static_cast<int64_t>(step_limit));
        };
        bool fuel_out = false;
        for (int i = 0; i < warmup && !fuel_out; ++i) {
            fuel_out = run_once() != 0;
        }
        if (!fuel_out) {
            int n = std::max(1, repeats);
            std::vector<double> samples(static_cast<size_t>(n));
            for (int i = 0; i < n && !fuel_out; ++i) {
                auto start = std::chrono::steady_clock::now();
                fuel_out = run_once() != 0;
                samples[static_cast<size_t>(i)] =
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
            }
            if (!fuel_out) {
                auto mid = samples.begin() +
                           static_cast<std::ptrdiff_t>(samples.size() / 2);
                std::nth_element(samples.begin(), mid, samples.end());
                // Clamp to a nanosecond: a kernel faster than the
                // clock's resolution must still report a positive
                // latency (zero would poison the fitness weights and
                // the log1p training target).
                reply = "ok " +
                        support::doubleBitsHex(std::max(*mid, 1e-3));
            }
        }
        if (fuel_out) reply = "reject fuel";
    }
    ::dlclose(handle);
    return reply;
}

/** Worker main loop: handshake, then serve requests until the parent
 *  closes the request pipe. Exits only via _exit — the child must
 *  never run the parent's atexit handlers or destructors. */
[[noreturn]] void
workerMain(int req_fd, int resp_fd, const PrimFunc& workload,
           uint64_t seed)
{
    if (!writeAll(resp_fd, support::frame("ready\n"))) _exit(2);
    ChildArguments args = buildChildArguments(workload, seed);
    std::string buffer;
    for (;;) {
        std::string body;
        int got = childReadFrame(req_fd, buffer, &body);
        if (got != 1) {
            // EOF: the parent closed the pipe (runner destruction) —
            // the clean shutdown path. A corrupt frame exits nonzero.
            _exit(got == 0 ? 0 : 3);
        }
        std::string reply = childHandleRequest(body, args);
        if (!writeAll(resp_fd, support::frame(reply + "\n"))) _exit(2);
    }
}

double
monotonicMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

MeasureRunner::MeasureRunner(PrimFunc workload, RunnerConfig config)
    : workload_(std::move(workload)), config_(std::move(config))
{
    // A worker dying mid-request turns parent writes into SIGPIPE;
    // ignore it for the life of the runner so the write fails with
    // EPIPE (classified and retried) instead of killing the process.
    struct sigaction ignore_sa;
    std::memset(&ignore_sa, 0, sizeof(ignore_sa));
    ignore_sa.sa_handler = SIG_IGN;
    saved_sigpipe_.resize(sizeof(struct sigaction));
    if (::sigaction(SIGPIPE, &ignore_sa,
                    reinterpret_cast<struct sigaction*>(
                        saved_sigpipe_.data())) == 0) {
        sigpipe_saved_ = true;
    }
    // Pre-fork eagerly: the measurer is constructed before the search
    // spawns its thread pool, so the initial fork happens while this
    // process is still single-threaded — the only fully safe time.
    // Respawns after a crash happen from the sequential measurement
    // fold, when pool threads are parked on their condition variable.
    spawnWorker(worker_);
}

MeasureRunner::~MeasureRunner()
{
    destroyWorker(worker_, /*force_kill=*/false);
    if (sigpipe_saved_) {
        ::sigaction(SIGPIPE,
                    reinterpret_cast<struct sigaction*>(
                        saved_sigpipe_.data()),
                    nullptr);
    }
}

bool
MeasureRunner::spawnWorker(Worker& worker)
{
    // Simulated startup failure — the transient class the retry/backoff
    // path is tested against.
    if (failpoint::inject("runner.spawn")) return false;
    int req_pipe[2] = {-1, -1};
    int resp_pipe[2] = {-1, -1};
    if (::pipe(req_pipe) != 0) return false;
    if (::pipe(resp_pipe) != 0) {
        ::close(req_pipe[0]);
        ::close(req_pipe[1]);
        return false;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(req_pipe[0]);
        ::close(req_pipe[1]);
        ::close(resp_pipe[0]);
        ::close(resp_pipe[1]);
        return false;
    }
    if (pid == 0) {
        ::close(req_pipe[1]);
        ::close(resp_pipe[0]);
        closeInheritedFds(req_pipe[0], resp_pipe[1]);
        workerMain(req_pipe[0], resp_pipe[1], workload_, config_.seed);
    }
    ::close(req_pipe[0]);
    ::close(resp_pipe[1]);
    worker.pid = static_cast<int>(pid);
    worker.req_fd = req_pipe[1];
    worker.resp_fd = resp_pipe[0];
    worker.buffer.clear();

    // Startup handshake: a worker that cannot even say "ready" (exec
    // environment broken, immediate death) is a startup failure, not a
    // candidate crash — nothing of the candidate ran yet.
    double deadline = monotonicMs() + 5000;
    for (;;) {
        std::string body;
        int got = extractFrame(worker.buffer, &body);
        if (got == 1 && body == "ready\n") break;
        if (got != 0) {
            destroyWorker(worker, /*force_kill=*/true);
            return false;
        }
        double remaining = deadline - monotonicMs();
        struct pollfd pfd;
        pfd.fd = worker.resp_fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        int pr = ::poll(&pfd, 1,
                        remaining <= 0
                            ? 0
                            : static_cast<int>(remaining) + 1);
        if (pr <= 0 && remaining <= 0) {
            destroyWorker(worker, /*force_kill=*/true);
            return false;
        }
        if (pr <= 0) continue;
        char chunk[512];
        ssize_t n = ::read(worker.resp_fd, chunk, sizeof(chunk));
        if (n <= 0) {
            destroyWorker(worker, /*force_kill=*/true);
            return false;
        }
        worker.buffer.append(chunk, static_cast<size_t>(n));
    }
    trace::counterAdd("runner.spawns", 1);
    return true;
}

void
MeasureRunner::destroyWorker(Worker& worker, bool force_kill)
{
    if (worker.pid < 0) return;
    if (force_kill) ::kill(worker.pid, SIGKILL);
    if (worker.req_fd >= 0) ::close(worker.req_fd);
    if (worker.resp_fd >= 0) ::close(worker.resp_fd);
    // With the request pipe closed a healthy worker reads EOF and
    // _exits promptly, so a blocking reap cannot wedge; a killed one
    // is already a zombie.
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
    worker = Worker{};
}

int
MeasureRunner::reapWorker(Worker& worker)
{
    if (worker.pid < 0) return -1;
    int status = -1;
    while (::waitpid(worker.pid, &status, 0) < 0) {
        if (errno != EINTR) {
            status = -1;
            break;
        }
    }
    if (worker.req_fd >= 0) ::close(worker.req_fd);
    if (worker.resp_fd >= 0) ::close(worker.resp_fd);
    worker = Worker{};
    return status;
}

RunnerResult
MeasureRunner::run(const RunnerRequest& request)
{
    RunnerResult result;
    trace::Span span("runner.request",
                     trace::arg("key",
                                static_cast<int64_t>(request.key)));

    std::ostringstream body;
    body << "run " << request.entry_symbol << " " << request.num_params
         << " " << request.warmup << " " << request.repeats << " "
         << request.step_limit << " " << request.key << "\n";
    body << "locals " << request.local_counts.size();
    for (int64_t c : request.local_counts) body << " " << c;
    body << "\n";
    body << "path " << request.object_path << "\n";
    const std::string framed = support::frame(body.str());

    const int attempts = std::max(0, config_.retries) + 1;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            // Bounded exponential backoff before retrying a transient
            // failure (startup failure, clean death without a reply).
            std::this_thread::sleep_for(std::chrono::milliseconds(
                static_cast<int64_t>(config_.backoff_ms)
                << (attempt - 1)));
            trace::counterAdd("runner.transient_retries", 1);
            result.retries = attempt;
        }
        if (worker_.pid < 0 && !spawnWorker(worker_)) {
            result.detail = "worker startup failed";
            continue; // transient
        }
        if (!writeAll(worker_.req_fd, framed)) {
            // The worker died before this request reached it: nothing
            // of the candidate ran, so this is transient, not a crash.
            reapWorker(worker_);
            result.detail = "request write failed";
            continue;
        }

        const bool unlimited = config_.timeout_ms <= 0;
        double deadline = monotonicMs() + config_.timeout_ms;
        bool corrupt = false;
        std::string reply;
        for (;;) {
            int got = extractFrame(worker_.buffer, &reply);
            if (got == 1) break;
            if (got == -1) {
                corrupt = true;
                break;
            }
            double remaining = unlimited ? 0 : deadline - monotonicMs();
            if (!unlimited && remaining <= 0) {
                // Hard timeout: nothing but SIGKILL stops a native
                // loop. Classified, never retried.
                ::kill(worker_.pid, SIGKILL);
                reapWorker(worker_);
                result.status = RunnerStatus::kHang;
                result.term_signal = SIGKILL;
                result.detail = "timeout";
                trace::counterAdd("runner.hangs", 1);
                span.addArg(trace::arg("status", "hang"));
                return result;
            }
            struct pollfd pfd;
            pfd.fd = worker_.resp_fd;
            pfd.events = POLLIN;
            pfd.revents = 0;
            int pr = ::poll(&pfd, 1,
                            unlimited
                                ? -1
                                : static_cast<int>(remaining) + 1);
            if (pr < 0 && errno == EINTR) continue;
            if (pr <= 0) continue; // deadline re-checked above
            char chunk[4096];
            ssize_t n = ::read(worker_.resp_fd, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) break; // EOF: worker died mid-request
            worker_.buffer.append(chunk, static_cast<size_t>(n));
        }

        if (!reply.empty() && !corrupt) {
            // Strip the trailing newline the child framed in.
            if (reply.back() == '\n') reply.pop_back();
            if (reply.rfind("ok ", 0) == 0 &&
                support::doubleFromBitsHex(
                    std::string_view(reply).substr(3),
                    &result.latency_us)) {
                result.status = RunnerStatus::kOk;
                span.addArg(trace::arg("latency_us", result.latency_us));
                return result;
            }
            if (reply.rfind("reject", 0) == 0) {
                result.status = RunnerStatus::kReject;
                result.detail =
                    reply.size() > 7 ? reply.substr(7) : "reject";
                result.latency_us =
                    std::numeric_limits<double>::infinity();
                span.addArg(trace::arg("status", "reject"));
                return result;
            }
            corrupt = true; // unparseable reply: protocol desync
        }

        // EOF or a corrupt frame: reap and classify from the waitpid
        // status. Death by signal or a nonzero exit while the kernel
        // was running is a deterministic crash — never retried.
        if (corrupt) ::kill(worker_.pid, SIGKILL);
        int status = reapWorker(worker_);
        if (status >= 0 && WIFSIGNALED(status)) {
            result.status = RunnerStatus::kCrash;
            result.term_signal = WTERMSIG(status);
            result.detail =
                "signal " + std::to_string(result.term_signal);
            trace::counterAdd("runner.crashes", 1);
            span.addArg(trace::arg("status", "crash"));
            return result;
        }
        if (status >= 0 && WIFEXITED(status) &&
            WEXITSTATUS(status) != 0) {
            result.status = RunnerStatus::kCrash;
            result.exit_code = WEXITSTATUS(status);
            result.detail = "exit " + std::to_string(result.exit_code);
            trace::counterAdd("runner.crashes", 1);
            span.addArg(trace::arg("status", "crash"));
            return result;
        }
        // Clean exit without a reply (or nothing reapable): transient.
        result.detail = "worker exited without reply";
    }
    result.status = RunnerStatus::kUnavailable;
    trace::counterAdd("runner.unavailable", 1);
    span.addArg(trace::arg("status", "unavailable"));
    return result;
}

} // namespace meta
} // namespace tir
