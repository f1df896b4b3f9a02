#include "runtime/jit.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "ir/structural_hash.h"
#include "runtime/vm.h"
#include "support/env.h"
#include "support/failpoint.h"
#include "support/trace.h"
#include "tir/analysis/analysis.h"

namespace tir {
namespace runtime {

namespace fs = std::filesystem;

namespace {

/** Bumped whenever emitJitC changes the meaning of cached objects;
 *  part of the cache key so stale .so files from an older emitter are
 *  never loaded. */
constexpr uint64_t kEmitterVersion = 1;

constexpr const char* kCompileFlags =
    "-O2 -fPIC -shared -ffp-contract=off";

struct AtomicStats
{
    std::atomic<uint64_t> memory_hits{0};
    std::atomic<uint64_t> disk_hits{0};
    std::atomic<uint64_t> compiles{0};
    std::atomic<uint64_t> compile_failures{0};
    std::atomic<uint64_t> recompiles{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> vm_fallbacks{0};
};

/** Process-wide JIT state: module/failure caches, single-flight
 *  bookkeeping, per-compiler probe and identity caches. */
struct JitState
{
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<uint64_t, std::shared_ptr<const JitModule>>
        modules;
    std::unordered_set<uint64_t> failed;
    std::unordered_set<uint64_t> inflight;
    std::unordered_map<std::string, bool> probe;
    std::unordered_map<std::string, std::string> identity;
    AtomicStats stats;
};

JitState&
state()
{
    static JitState* s = new JitState();
    return *s;
}

std::optional<Engine>&
engineOverrideSlot()
{
    // Thread-local: a ScopedEngine installed by one tuning session
    // must not leak into another running concurrently on a different
    // thread (the schedule server runs background autoTune jobs in
    // parallel). Every runtime::execute in a search happens on the
    // thread that owns the session — the sequential measurement fold —
    // so per-thread scoping is exactly per-session scoping.
    static thread_local std::optional<Engine> value;
    return value;
}

/** Shell-quote `s` for /bin/sh (single quotes, ' escaped). */
std::string
shellQuote(const std::string& s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'') {
            out += "'\\''";
        } else {
            out += c;
        }
    }
    out += "'";
    return out;
}

std::string
compilerPath()
{
    const char* env = std::getenv("TENSORIR_CC");
    return (env && *env) ? env : "cc";
}

/** First line of `cc --version`, cached per path; the path itself when
 *  the compiler cannot be queried. Part of the cache key so switching
 *  compilers (or upgrading one) invalidates cached objects. */
std::string
compilerIdentity(const std::string& cc)
{
    JitState& st = state();
    {
        std::lock_guard<std::mutex> lk(st.mu);
        auto it = st.identity.find(cc);
        if (it != st.identity.end()) return it->second;
    }
    std::string line;
    std::string cmd = shellQuote(cc) + " --version 2>/dev/null";
    if (FILE* pipe = popen(cmd.c_str(), "r")) {
        char buf[256];
        if (fgets(buf, sizeof(buf), pipe)) {
            line = buf;
            while (!line.empty() &&
                   (line.back() == '\n' || line.back() == '\r')) {
                line.pop_back();
            }
        }
        pclose(pipe);
    }
    if (line.empty()) line = cc;
    std::lock_guard<std::mutex> lk(st.mu);
    st.identity.emplace(cc, line);
    return line;
}

uint64_t
fnv1a(const std::string& s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 12) + (h >> 4);
    return h;
}

/** Cache key: structural hash of the function mixed with everything
 *  that changes the produced machine code. */
uint64_t
cacheKeyFor(const PrimFunc& func)
{
    std::string cc = compilerPath();
    uint64_t h = structuralHash(func);
    h = mix(h, fnv1a(cc));
    h = mix(h, fnv1a(compilerIdentity(cc)));
    h = mix(h, fnv1a(kCompileFlags));
    h = mix(h, kEmitterVersion);
    return h;
}

std::string
hexKey(uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

uint64_t
cacheCapBytes()
{
    // Strict parsing via support::envUint (garbage, a sign character,
    // or ERANGE raise FatalError — std::strtoull alone would wrap
    // "-1" to a huge positive cap); a large-but-parseable megabyte
    // count that would overflow the byte multiply clamps to
    // UINT64_MAX instead of wrapping.
    uint64_t mb = support::envUint("TENSORIR_JIT_CACHE_MB", 64);
    constexpr uint64_t kMaxMb =
        std::numeric_limits<uint64_t>::max() / (1024ull * 1024ull);
    if (mb > kMaxMb) return std::numeric_limits<uint64_t>::max();
    return mb * 1024 * 1024;
}

/** flock-based cross-process lock; best effort (a failure to open the
 *  lock file degrades to in-process locking only).
 *
 *  Fork-safety (audited for the measurement runner, meta/runner.h):
 *  an flock lock belongs to the *open file description*, which fork
 *  shares — a child forked while this lock is held co-owns it, and the
 *  parent's explicit LOCK_UN below still releases it for both (the
 *  lock does not leak even if the child keeps its copy of the fd).
 *  The runner avoids even that aliasing: measurement workers close
 *  every inherited descriptor except their pipes on startup, and
 *  worker forks never happen from inside jitCompile (compilation is
 *  parent-side; the fork-server spawns before measurement begins and
 *  respawns only from the search's sequential measurement fold). */
class FileLock
{
  public:
    explicit FileLock(const fs::path& path)
    {
        fd_ = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
        if (fd_ >= 0) ::flock(fd_, LOCK_EX);
    }
    ~FileLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }
    FileLock(const FileLock&) = delete;
    FileLock& operator=(const FileLock&) = delete;

  private:
    int fd_ = -1;
};

bool
writeFileAtomic(const fs::path& target, const std::string& contents)
{
    fs::path tmp = target;
    tmp += ".tmp." + std::to_string(static_cast<long>(::getpid()));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return false;
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
        if (!out) return false;
    }
    std::error_code ec;
    fs::rename(tmp, target, ec);
    if (ec) fs::remove(tmp, ec);
    return !ec;
}

/** Run the compiler on an already-written source file, publishing the
 *  object atomically (compile to .so.tmp.<pid>, rename). stderr goes
 *  to a .log file next to the object, kept only on failure. */
bool
runCompiler(const fs::path& csrc, const fs::path& so,
            const std::string& func_name)
{
    trace::Span span("jit.compile", trace::arg("func", func_name));
    // Simulated toolchain breakage for the fallback tests.
    if (failpoint::inject("jit.compile")) return false;
    fs::path tmp = so;
    tmp += ".tmp." + std::to_string(static_cast<long>(::getpid()));
    fs::path log = so;
    log.replace_extension(".log");
    std::string cmd = shellQuote(compilerPath()) + " " + kCompileFlags +
                      " -o " + shellQuote(tmp.string()) + " " +
                      shellQuote(csrc.string()) + " -lm 2>" +
                      shellQuote(log.string());
    int rc = std::system(cmd.c_str());
    std::error_code ec;
    if (rc != 0) {
        fs::remove(tmp, ec);
        return false;
    }
    fs::rename(tmp, so, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    fs::remove(log, ec);
    return true;
}

/** Oldest-mtime-first eviction down to TENSORIR_JIT_CACHE_MB, never
 *  touching the object just produced. Unlinking a dlopened .so is safe
 *  on POSIX (the mapping keeps the inode alive). */
void
evictCache(const fs::path& dir, const fs::path& keep)
{
    const uint64_t cap = cacheCapBytes();
    struct Entry
    {
        fs::path so;
        fs::file_time_type mtime;
        uint64_t bytes = 0;
    };
    std::vector<Entry> entries;
    uint64_t total = 0;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        const fs::path& p = it->path();
        std::string name = p.filename().string();
        if (name.rfind("tir_", 0) != 0) continue;
        uint64_t sz = static_cast<uint64_t>(fs::file_size(p, ec));
        if (ec) {
            ec.clear();
            continue;
        }
        total += sz;
        if (p.extension() == ".so") {
            Entry e;
            e.so = p;
            e.mtime = fs::last_write_time(p, ec);
            ec.clear();
            // Companion source/log files are evicted with the object.
            e.bytes = sz;
            for (const char* ext : {".c", ".log"}) {
                fs::path side = p;
                side.replace_extension(ext);
                uint64_t ssz =
                    static_cast<uint64_t>(fs::file_size(side, ec));
                if (!ec) e.bytes += ssz;
                ec.clear();
            }
            entries.push_back(std::move(e));
        }
    }
    if (total <= cap) return;
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                  return a.mtime < b.mtime;
              });
    for (const Entry& e : entries) {
        if (total <= cap) break;
        if (e.so == keep) continue;
        for (const char* ext : {".so", ".c", ".log", ".lock"}) {
            fs::path victim = e.so;
            victim.replace_extension(ext);
            fs::remove(victim, ec);
            ec.clear();
        }
        total -= std::min(total, e.bytes);
        state().stats.evictions.fetch_add(1,
                                          std::memory_order_relaxed);
        trace::counterAdd("jit.cache.evict", 1);
    }
}

bool
probeToolchain(const std::string& cc)
{
    trace::Span span("jit.probe", trace::arg("cc", cc));
    std::error_code ec;
    fs::path dir = jitCacheDir();
    fs::create_directories(dir, ec);
    if (ec) return false;
    std::string tag = std::to_string(static_cast<long>(::getpid()));
    fs::path csrc = dir / ("probe_" + tag + ".c");
    fs::path so = dir / ("probe_" + tag + ".so");
    bool ok = false;
    if (writeFileAtomic(csrc,
                        "int tir_probe(void) { return 42; }\n")) {
        std::string cmd = shellQuote(cc) + " " + kCompileFlags +
                          " -o " + shellQuote(so.string()) + " " +
                          shellQuote(csrc.string()) +
                          " 2>/dev/null";
        if (std::system(cmd.c_str()) == 0) {
            if (void* h = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL)) {
                using ProbeFn = int (*)(void);
                auto* fn = reinterpret_cast<ProbeFn>(
                    dlsym(h, "tir_probe"));
                ok = fn && fn() == 42;
                dlclose(h);
            }
        }
    }
    fs::remove(csrc, ec);
    fs::remove(so, ec);
    return ok;
}

/** Emit, compile (or reuse the disk cache), dlopen, resolve the entry.
 *  nullptr on any failure — the caller records it and the engine falls
 *  back to the VM. Corrupt cached objects are deleted and recompiled
 *  once before giving up. */
std::shared_ptr<const JitModule>
buildModule(uint64_t key, const PrimFunc& func)
{
    JitState& st = state();
    if (!jitAvailable()) return nullptr;

    codegen::JitSource src;
    try {
        src = codegen::emitJitC(func);
    } catch (const std::exception& e) {
        trace::instant("jit.unsupported",
                       trace::arg("func", func->name));
        return nullptr;
    }

    std::error_code ec;
    fs::path dir = jitCacheDir();
    fs::create_directories(dir, ec);
    if (ec) return nullptr;
    std::string base = "tir_" + hexKey(key);
    fs::path so = dir / (base + ".so");
    fs::path csrc = dir / (base + ".c");
    // Cross-process single-flight: tuning workers racing on one kernel
    // serialise here, and the losers find the winner's object.
    FileLock lock(dir / (base + ".lock"));

    bool have_so = fs::exists(so, ec);
    ec.clear();
    for (int attempt = 0; attempt < 2; ++attempt) {
        bool compiled_now = false;
        if (!have_so) {
            st.stats.compiles.fetch_add(1, std::memory_order_relaxed);
            if (!writeFileAtomic(csrc, src.code) ||
                !runCompiler(csrc, so, func->name)) {
                st.stats.compile_failures.fetch_add(
                    1, std::memory_order_relaxed);
                return nullptr;
            }
            compiled_now = true;
        }
        void* handle = nullptr;
        // Simulated loader breakage for the fallback tests.
        if (!failpoint::inject("jit.dlopen")) {
            handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
        }
        if (handle) {
            void* sym = dlsym(handle, src.entry_symbol.c_str());
            if (sym) {
                if (!compiled_now) {
                    st.stats.disk_hits.fetch_add(
                        1, std::memory_order_relaxed);
                    trace::counterAdd("jit.cache.hit.disk", 1);
                    // Refresh the mtime so the LRU eviction treats
                    // reuse as recency.
                    fs::last_write_time(
                        so, fs::file_time_type::clock::now(), ec);
                    ec.clear();
                }
                evictCache(dir, so);
                return std::make_shared<JitModule>(
                    func, std::move(src), handle, so.string());
            }
            dlclose(handle);
            handle = nullptr;
        }
        // dlopen/dlsym failed: a truncated or corrupt cached object
        // (crash mid-write, bit rot, chaos schedule). Delete it and
        // recompile once.
        fs::remove(so, ec);
        ec.clear();
        if (attempt == 0 && !compiled_now) {
            st.stats.recompiles.fetch_add(1,
                                          std::memory_order_relaxed);
            trace::instant("jit.recover",
                           trace::arg("object", so.string()));
        }
        have_so = false;
        if (compiled_now) return nullptr;
    }
    return nullptr;
}

} // namespace

const char*
engineName(Engine engine)
{
    switch (engine) {
      case Engine::kTreeWalk: return "treewalk";
      case Engine::kVm: return "vm";
      case Engine::kJit: return "jit";
    }
    return "?";
}

std::optional<Engine>
parseEngineName(const std::string& name)
{
    if (name == "treewalk") return Engine::kTreeWalk;
    if (name == "vm") return Engine::kVm;
    if (name == "jit") return Engine::kJit;
    return std::nullopt;
}

Engine
selectedEngine()
{
    if (engineOverrideSlot()) return *engineOverrideSlot();
    const char* env = std::getenv("TENSORIR_ENGINE");
    if (env && *env) {
        std::optional<Engine> parsed = parseEngineName(env);
        TIR_CHECK(parsed.has_value())
            << "TENSORIR_ENGINE=\"" << env
            << "\" is not an engine name (expected treewalk, vm or "
               "jit)";
        return *parsed;
    }
    return Engine::kVm;
}

void
setEngine(std::optional<Engine> engine)
{
    engineOverrideSlot() = engine;
}

std::optional<Engine>
engineOverride()
{
    return engineOverrideSlot();
}

JitModule::JitModule(PrimFunc func, codegen::JitSource source,
                     void* handle, std::string object_path)
    : func_(std::move(func)), buffers_(std::move(source.buffers)),
      num_params_(source.num_params), handle_(handle),
      entry_symbol_(std::move(source.entry_symbol)),
      object_path_(std::move(object_path))
{
    entry_ = reinterpret_cast<EntryFn>(
        dlsym(handle_, entry_symbol_.c_str()));
    TIR_CHECK(entry_ != nullptr)
        << "JIT object " << object_path_ << " lacks entry symbol "
        << entry_symbol_;
}

JitModule::~JitModule()
{
    if (handle_) dlclose(handle_);
}

void
JitModule::run(const std::vector<NDArray*>& args,
               std::optional<uint64_t> step_limit) const
{
    validateArguments(func_, args);
    trace::Span span("jit.run", trace::arg("func", func_->name));
    // Same failpoint site as the tree-walker and the VM so chaos
    // schedules exercise all three engines identically.
    if (failpoint::inject("interp.run")) {
        throw EvalError("injected interpreter fault (failpoint "
                        "interp.run) in " +
                        func_->name);
    }
    if (Interpreter::debugChecksEnabled()) {
        analysis::AnalysisReport report = analysis::analyzeFunc(func_);
        TIR_CHECK(report.ok())
            << "static memory analysis failed for " << func_->name
            << " before execution:\n"
            << report.summary();
    }
    const uint64_t limit =
        step_limit ? *step_limit : Interpreter::defaultStepLimit();

    std::vector<std::unique_ptr<NDArray>> locals;
    std::vector<double*> bufs(buffers_.size(), nullptr);
    for (size_t s = 0; s < buffers_.size(); ++s) {
        if (s < num_params_) {
            bufs[s] = args[s]->data();
        } else {
            const Buffer& b = buffers_[s];
            std::vector<int64_t> shape;
            shape.reserve(b->ndim());
            for (size_t d = 0; d < b->ndim(); ++d) {
                shape.push_back(b->shapeInt(d));
            }
            locals.push_back(
                std::make_unique<NDArray>(b->dtype, std::move(shape)));
            bufs[s] = locals.back()->data();
        }
    }
    int64_t rc = entry_(bufs.data(), static_cast<int64_t>(limit));
    if (rc != 0) {
        throw EvalError("interpreter step limit of " +
                        std::to_string(limit) +
                        " statements exceeded (runaway program?)");
    }
}

std::shared_ptr<const JitModule>
jitCompile(const PrimFunc& func)
{
    const uint64_t key = cacheKeyFor(func);
    JitState& st = state();
    std::unique_lock<std::mutex> lk(st.mu);
    for (;;) {
        auto it = st.modules.find(key);
        if (it != st.modules.end()) {
            st.stats.memory_hits.fetch_add(1,
                                           std::memory_order_relaxed);
            trace::counterAdd("jit.cache.hit.memory", 1);
            return it->second;
        }
        if (st.failed.count(key)) return nullptr;
        if (!st.inflight.count(key)) {
            st.inflight.insert(key);
            break;
        }
        // Single-flight: somebody else is compiling this key; wait for
        // the result instead of racing the compiler.
        st.cv.wait(lk);
    }
    lk.unlock();

    std::shared_ptr<const JitModule> mod;
    try {
        mod = buildModule(key, func);
    } catch (...) {
        lk.lock();
        st.inflight.erase(key);
        st.cv.notify_all();
        throw;
    }

    lk.lock();
    if (mod) {
        st.modules.emplace(key, mod);
    } else {
        st.failed.insert(key);
    }
    st.inflight.erase(key);
    st.cv.notify_all();
    return mod;
}

bool
jitAvailable()
{
    std::string cc = compilerPath();
    JitState& st = state();
    {
        std::lock_guard<std::mutex> lk(st.mu);
        auto it = st.probe.find(cc);
        if (it != st.probe.end()) return it->second;
    }
    bool ok = probeToolchain(cc);
    std::lock_guard<std::mutex> lk(st.mu);
    st.probe.emplace(cc, ok);
    return ok;
}

bool
jitTryRun(const PrimFunc& func, const std::vector<NDArray*>& args)
{
    std::shared_ptr<const JitModule> mod = jitCompile(func);
    if (!mod) {
        state().stats.vm_fallbacks.fetch_add(
            1, std::memory_order_relaxed);
        trace::counterAdd("jit.fallback", 1);
        return false;
    }
    mod->run(args);
    return true;
}

JitStats
jitStats()
{
    const AtomicStats& s = state().stats;
    JitStats out;
    out.memory_hits = s.memory_hits.load(std::memory_order_relaxed);
    out.disk_hits = s.disk_hits.load(std::memory_order_relaxed);
    out.compiles = s.compiles.load(std::memory_order_relaxed);
    out.compile_failures =
        s.compile_failures.load(std::memory_order_relaxed);
    out.recompiles = s.recompiles.load(std::memory_order_relaxed);
    out.evictions = s.evictions.load(std::memory_order_relaxed);
    out.vm_fallbacks = s.vm_fallbacks.load(std::memory_order_relaxed);
    return out;
}

uint64_t
jitCacheCapBytes()
{
    return cacheCapBytes();
}

std::string
jitCacheDir()
{
    const char* env = std::getenv("TENSORIR_JIT_CACHE");
    if (env && *env) return env;
    return "/tmp/tensorir-jit-cache-" +
           std::to_string(static_cast<long>(::getuid()));
}

std::string
jitObjectPathFor(const PrimFunc& func)
{
    fs::path dir = jitCacheDir();
    return (dir / ("tir_" + hexKey(cacheKeyFor(func)) + ".so"))
        .string();
}

void
jitResetForTesting()
{
    JitState& st = state();
    std::lock_guard<std::mutex> lk(st.mu);
    st.modules.clear();
    st.failed.clear();
    st.probe.clear();
    st.identity.clear();
    st.stats.memory_hits = 0;
    st.stats.disk_hits = 0;
    st.stats.compiles = 0;
    st.stats.compile_failures = 0;
    st.stats.recompiles = 0;
    st.stats.evictions = 0;
    st.stats.vm_fallbacks = 0;
}

} // namespace runtime
} // namespace tir
