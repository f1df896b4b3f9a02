#include "meta/search.h"

#include "ir/structural_hash.h"
#include "meta/database.h"
#include "meta/journal.h"
#include "meta/measure.h"
#include "meta/memo.h"
#include "runtime/jit.h"
#include "runtime/vm.h"
#include "support/env.h"
#include "support/failpoint.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "tir/analysis/analysis.h"
#include "tir/analysis/dataflow.h"
#include "tir/verify.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace tir {
namespace meta {

FeatureVec
extractFeatures(const hwsim::ProgramStats& stats)
{
    auto lg = [](double v) { return std::log1p(std::max(0.0, v)); };
    double tc = 0;
    double dot = 0;
    for (const auto& [unit, macs] : stats.intrin_macs) {
        if (unit == "tensor_core") {
            tc += macs;
        } else {
            dot += macs;
        }
    }
    double other_read = 0;
    double other_write = 0;
    for (const auto& [scope, bytes] : stats.bytes_read) {
        if (scope != "global" && scope != "shared") other_read += bytes;
    }
    for (const auto& [scope, bytes] : stats.bytes_written) {
        if (scope != "global" && scope != "shared") other_write += bytes;
    }
    auto scope_bytes = [&](const std::map<std::string, double>& m,
                           const char* scope) {
        auto it = m.find(scope);
        return it == m.end() ? 0.0 : it->second;
    };
    return {
        lg(stats.scalar_ops),
        lg(tc),
        lg(dot),
        lg(scope_bytes(stats.bytes_read, "global")),
        lg(scope_bytes(stats.bytes_written, "global")),
        lg(scope_bytes(stats.bytes_read, "shared")),
        lg(scope_bytes(stats.bytes_written, "shared")),
        lg(other_read),
        lg(other_write),
        lg(stats.vector_bytes),
        lg(stats.loop_iterations),
        lg(stats.unrolled_iterations),
        lg(stats.grid_blocks),
        lg(stats.block_threads),
        lg(stats.parallel_extent),
        lg(stats.shared_alloc_bytes),
        stats.uses_gpu_threads ? 1.0 : 0.0,
    };
}

FeatureVec
extractFeatures(const PrimFunc& func)
{
    return extractFeatures(hwsim::extractStats(func));
}

int
resolveParallelism(const TuneOptions& options)
{
    if (options.parallelism > 0) return options.parallelism;
    // Strict parse (support/env.h): garbage ("abc", "8x"), overflow,
    // and 0 all fail loudly instead of silently falling through to
    // hardware_concurrency — a typo'd setting must not quietly change
    // the thread count. Unset/empty means "pick for me".
    const uint64_t v = support::envUint(
        "TENSORIR_PARALLELISM", 0, 1,
        static_cast<uint64_t>(std::numeric_limits<int>::max()));
    if (v > 0) return static_cast<int>(v);
    return support::ThreadPool::hardwareParallelism();
}

TuneCounters&
TuneCounters::operator+=(const TuneCounters& other)
{
    for (const Field& f : kFields) this->*f.member += other.*f.member;
    return *this;
}

std::ostream&
operator<<(std::ostream& os, const TuneCounters& counters)
{
    const char* sep = "";
    for (const TuneCounters::Field& f : TuneCounters::kFields) {
        os << sep << f.name << "=" << counters.*f.member;
        sep = " ";
    }
    return os;
}

namespace {

/** One candidate flowing through the per-generation pipeline. */
struct Candidate
{
    // Inputs, filled on the main thread from the candidate's derived RNG.
    uint64_t schedule_seed = 0;
    std::vector<Decision> overrides;
    // Instantiation outputs, filled by pool workers.
    bool valid = false;
    RejectKind reject = RejectKind::kInvalid;
    std::vector<Decision> decisions;
    PrimFunc func;
    uint64_t hash = 0;
    // Evaluation, attached in the sequential fold.
    MemoEntry* memo = nullptr;
};

/** Bump one counter and its "search.<name>" trace counter. */
void
bump(TuneCounters& counters, int TuneCounters::*member)
{
    for (const TuneCounters::Field& f : TuneCounters::kFields) {
        if (f.member != member) continue;
        ++(counters.*member);
        trace::counterAdd(f.trace_name, 1);
        return;
    }
}

/** The kFields entry of a reject kind's counter. */
const TuneCounters::Field&
rejectField(RejectKind kind)
{
    return TuneCounters::kFields[static_cast<size_t>(kind)];
}

/** Count one rejected candidate under its kind's counter. */
void
reject(TuneCounters& counters, RejectKind kind)
{
    bump(counters, rejectField(kind).member);
}

/** Record a reject verdict on a candidate being instantiated; the trace
 *  arg names the counter it will land in. */
void
markRejected(Candidate& cand, trace::Span& span, RejectKind kind)
{
    cand.reject = kind;
    span.addArg(trace::arg("reject", std::string(rejectField(kind).name)));
}

/**
 * Instantiate a sketch with decision overrides. Pure function of the
 * candidate (the workload IR is immutable and the sketch applier
 * captures only read-only state), so it runs on any pool thread.
 */
void
instantiateCandidate(const PrimFunc& workload, const SketchApplier& sketch,
                     bool lint_filter, Candidate& cand)
{
    trace::Span span("candidate.instantiate");
    Schedule sch(workload, cand.schedule_seed);
    sch.setDecisionOverrides(std::move(cand.overrides));
    // Search-generated programs are adversarial by construction, and
    // this runs under a pool worker: *any* escaping exception would
    // reach the batch drain and abort the whole search, so the entire
    // instantiation is contained per candidate. FatalError keeps its
    // structural meaning (an illegal schedule combination the sketch
    // reports); everything else — bad_alloc, logic_error, injected
    // faults — is a runtime reject.
    try {
        // Keyed by the candidate's own schedule seed, so a chaos
        // schedule fails the *same candidates* at every parallelism
        // setting (the determinism contract survives injection).
        if (failpoint::inject("search.instantiate", cand.schedule_seed)) {
            markRejected(cand, span, RejectKind::kRuntime);
            return;
        }
        sketch(sch);
        // Threading validation (§3.3) filters false positives before
        // they reach a measurement.
        VerifyResult threads = verifyThreadBindings(sch.func());
        if (!threads.ok) {
            markRejected(cand, span, RejectKind::kInvalid);
            return;
        }
        // Static memory analysis on the lowered program: candidates
        // with a *provable* cross-thread hazard or out-of-bounds access
        // never reach a measurement. Only error-severity findings
        // reject — a correct-but-unprovable schedule survives as a
        // warning, so the population cannot be emptied by analysis
        // incompleteness. The concrete-enumeration fallback stays off
        // here (it is quadratic in thread extents; the symbolic proofs
        // are the cheap path).
        analysis::AnalysisOptions analysis_opts;
        analysis_opts.exhaustive_pair_limit = 0;
        analysis_opts.max_diagnostics = 4;
        analysis::AnalysisReport report;
        {
            // Per-candidate analysis latency gets its own span: the
            // filter runs on every candidate, so this is where an
            // analysis slowdown would hide. Duplicate decision traces
            // produce structurally identical functions, so the report
            // comes from the structural-hash cache after the first
            // sighting (hit/miss visible as analysis.cache_* counters).
            trace::Span analysis_span("candidate.analysis");
            report = analysis::analyzeFuncCached(sch.func(),
                                                 analysis_opts);
            analysis_span.addArg(trace::arg(
                "diagnostics",
                static_cast<int64_t>(report.diagnostics.size())));
        }
        if (!report.ok()) {
            markRejected(cand, span,
                         report.hasError(analysis::DiagKind::kOutOfBounds)
                             ? RejectKind::kBounds
                             : RejectKind::kRace);
            return;
        }
        // Dataflow lint gate (opt-in): only the error-severity
        // use-before-init finding rejects — it means a read provably
        // observes uninitialized memory on every execution. Dead-store
        // and redundant-barrier findings are warnings (performance,
        // not correctness) and never empty the population.
        if (lint_filter) {
            trace::Span lint_span("candidate.lint");
            analysis::AnalysisReport lint =
                analysis::lintFuncCached(sch.func(), analysis_opts);
            lint_span.addArg(trace::arg(
                "diagnostics",
                static_cast<int64_t>(lint.diagnostics.size())));
            if (lint.hasError(analysis::DiagKind::kUseBeforeInit)) {
                markRejected(cand, span, RejectKind::kLint);
                return;
            }
        }
        cand.decisions = sch.decisions();
        cand.func = sch.func();
        cand.hash = structuralHash(cand.func);
        cand.valid = true;
    } catch (const FatalError&) {
        markRejected(cand, span, RejectKind::kInvalid);
    } catch (const std::exception&) {
        markRejected(cand, span, RejectKind::kRuntime);
    }
}

/** Mutate one decision in place (resample it legally). */
std::vector<Decision>
mutate(const std::vector<Decision>& decisions, Rng& rng)
{
    if (decisions.empty()) return decisions;
    std::vector<Decision> result = decisions;
    size_t index = static_cast<size_t>(
        rng.randInt(static_cast<int64_t>(result.size())));
    Decision& d = result[index];
    if (d.kind == Decision::Kind::kPerfectTile) {
        // Move a factor between two positions (re-balance the tile).
        if (d.values.size() >= 2) {
            for (int attempt = 0; attempt < 8; ++attempt) {
                size_t from = static_cast<size_t>(
                    rng.randInt(static_cast<int64_t>(d.values.size())));
                size_t to = static_cast<size_t>(
                    rng.randInt(static_cast<int64_t>(d.values.size())));
                if (from == to || d.values[from] == 1) continue;
                // Move a prime-ish factor.
                int64_t f = 2;
                while (d.values[from] % f != 0) ++f;
                d.values[from] /= f;
                d.values[to] *= f;
                break;
            }
        }
    } else {
        if (d.num_candidates > 1) {
            int64_t next = rng.randInt(d.num_candidates);
            d.values = {next};
        }
    }
    return result;
}

/**
 * Wall-clock watchdog for one pipeline stage. Expiry is cooperative:
 * threads cannot be killed safely, so workers poll expired() before
 * picking up each candidate and the unprocessed remainder is rejected
 * as timed out. A zero budget disables the watchdog entirely (no
 * thread, no polling cost beyond one relaxed load per candidate) —
 * the default, because wall-clock expiry is inherently
 * non-deterministic and would void the byte-identical replay contract.
 */
class StageWatchdog
{
  public:
    StageWatchdog(double timeout_s, int& overruns) : overruns_(overruns)
    {
        if (timeout_s <= 0) return;
        auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(timeout_s));
        thread_ = std::jthread([this, deadline] {
            std::unique_lock<std::mutex> lock(mutex_);
            if (!cv_.wait_until(lock, deadline, [&] { return done_; })) {
                expired_.store(true, std::memory_order_relaxed);
            }
        });
    }

    ~StageWatchdog()
    {
        if (thread_.joinable()) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                done_ = true;
            }
            cv_.notify_all();
            thread_.join();
        }
        if (expired()) {
            ++overruns_;
            trace::counterAdd("search.watchdog_overruns", 1);
            trace::instant("search.watchdog_expired");
        }
    }

    StageWatchdog(const StageWatchdog&) = delete;
    StageWatchdog& operator=(const StageWatchdog&) = delete;

    bool
    expired() const
    {
        return expired_.load(std::memory_order_relaxed);
    }

  private:
    int& overruns_;
    std::atomic<bool> expired_{false};
    bool done_ = false;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::jthread thread_;
};

/** Resolve TuneOptions::engine into the override ScopedEngine installs
 *  for the duration of a tune: the ambient override when the option is
 *  empty, otherwise the named engine (FatalError on a name that is not
 *  treewalk/vm/jit — a typo must not silently change engines). */
std::optional<runtime::Engine>
resolveEngineOption(const TuneOptions& options)
{
    if (options.engine.empty()) return runtime::engineOverride();
    std::optional<runtime::Engine> parsed =
        runtime::parseEngineName(options.engine);
    TIR_CHECK(parsed.has_value())
        << "TuneOptions::engine \"" << options.engine
        << "\" is not an engine name (expected treewalk, vm or jit)";
    return parsed;
}

} // namespace

TuneResult
evolutionarySearch(const PrimFunc& workload, const SketchApplier& sketch,
                   const hwsim::DeviceModel& device,
                   const TuneOptions& options)
{
    TuneResult result;
    // The trace span bracketing every per-generation and per-candidate
    // event below; timings.total_s is assigned explicitly before
    // return (an AccumSpan on `result` would race named-return-value
    // optimization).
    trace::Span search_span(
        "search.run",
        trace::arg("population",
                   static_cast<int64_t>(options.population)) +
            "," +
            trace::arg("generations",
                       static_cast<int64_t>(options.generations)));
    double search_start = trace::nowSeconds();
    // Interpreter fuel for every evaluation under this search (the
    // numeric spot-checks and the measurement worker's runs): a
    // pathological candidate aborts with a structured EvalError (a
    // contained runtime reject) instead of hanging the session.
    runtime::ScopedStepLimit step_limit(options.eval_step_limit);
    // Numeric engine for every runtime::execute under this search
    // (the numeric spot-checks); "" inherits the ambient selection.
    runtime::ScopedEngine engine_scope(resolveEngineOption(options));
    // Measurement backend for the sequential fold (meta/measure.h);
    // a malformed name fails here, before any work is done.
    MeasureConfig measure_config;
    measure_config.warmup = options.measure_warmup;
    measure_config.repeats = options.measure_repeats_real;
    measure_config.compile_budget_ms = options.compile_budget_ms;
    measure_config.seed = options.seed;
    std::unique_ptr<MeasureBackend> measurer = makeMeasureBackend(
        options.measure_backend, workload, measure_config);
    result.parallelism_used = resolveParallelism(options);
    std::optional<support::ThreadPool> pool_storage;
    support::ThreadPool* pool = nullptr;
    if (result.parallelism_used > 1) {
        pool_storage.emplace(result.parallelism_used);
        pool = &*pool_storage;
    }

    Gbdt cost_model;
    std::vector<FeatureVec> train_x;
    std::vector<double> train_y;
    MemoCache memo;
    std::vector<JournalIndividual> population;
    result.timings.watchdog_timeout_s = options.stage_timeout_s;

    // Checkpoint journal (opened below) and what changed since its last
    // checkpoint: per-generation deltas keep the records small.
    std::optional<JournalWriter> journal;
    size_t journal_samples_flushed = 0;
    std::vector<uint64_t> journal_dirty_memo;
    auto markDirty = [&](uint64_t hash) {
        if (journal) journal_dirty_memo.push_back(hash);
    };

    auto forEach = [&](size_t n, const std::function<void(size_t)>& fn) {
        if (pool) {
            pool->parallelFor(n, fn);
        } else {
            for (size_t i = 0; i < n; ++i) fn(i);
        }
    };

    // Pipeline step shared by the initial population and every
    // generation: instantiate all candidates concurrently, then
    // stats/feature-extract and device-estimate the structurally-new
    // ones concurrently, folding into the memo in index order.
    auto processBatch = [&](std::vector<Candidate>& batch) {
        {
            trace::AccumSpan stage("search.instantiate_batch",
                                   result.timings.generate_s);
            StageWatchdog watchdog(options.stage_timeout_s,
                                   result.timings.watchdog_overruns);
            forEach(batch.size(), [&](size_t i) {
                // Cooperative expiry: candidates not yet picked up when
                // the stage budget runs out are rejected as timeouts
                // instead of being worked on indefinitely.
                if (watchdog.expired()) {
                    batch[i].reject = RejectKind::kTimeout;
                    return;
                }
                instantiateCandidate(workload, sketch,
                                     options.lint_filter, batch[i]);
            });
        }

        std::vector<size_t> fresh; // batch indices with unseen hashes
        {
            trace::AccumSpan stage("search.memo_scan",
                                   result.timings.reduce_s);
            std::unordered_map<uint64_t, bool> pending;
            for (size_t i = 0; i < batch.size(); ++i) {
                const Candidate& c = batch[i];
                if (!c.valid) continue;
                if (memo.find(c.hash) || pending.count(c.hash)) {
                    bump(result, &TuneCounters::memo_hits);
                } else {
                    pending.emplace(c.hash, true);
                    fresh.push_back(i);
                }
            }
        }

        std::vector<MemoEntry> fresh_entries(fresh.size());
        std::vector<char> timed_out(fresh.size(), 0);
        {
            trace::AccumSpan stage("search.evaluate_batch",
                                   result.timings.evaluate_s);
            StageWatchdog watchdog(options.stage_timeout_s,
                                   result.timings.watchdog_overruns);
            forEach(fresh.size(), [&](size_t j) {
                if (watchdog.expired()) {
                    timed_out[j] = 1;
                    return;
                }
                trace::Span span("candidate.evaluate");
                const Candidate& c = batch[fresh[j]];
                // Contained per candidate: an evaluation that throws
                // (bad_alloc, interpreter fuel exhaustion, injected
                // fault) becomes a structured reject, never process
                // death. The failure is cached in the memo entry so
                // structural duplicates reject identically without
                // re-running the failing evaluation.
                try {
                    // Keyed by structural hash: a chaos schedule fails
                    // the same candidates at every parallelism setting.
                    if (failpoint::inject("search.evaluate", c.hash)) {
                        fresh_entries[j].eval_failed = true;
                        return;
                    }
                    hwsim::ProgramStats stats =
                        hwsim::extractStats(c.func);
                    fresh_entries[j].features = extractFeatures(stats);
                    fresh_entries[j].estimate = device.estimate(stats);
                } catch (const std::exception&) {
                    fresh_entries[j] = MemoEntry();
                    fresh_entries[j].eval_failed = true;
                }
            });
        }

        {
            trace::AccumSpan stage("search.memo_commit",
                                   result.timings.reduce_s);
            for (size_t j = 0; j < fresh.size(); ++j) {
                // A timed-out evaluation is *not* cached: whether the
                // watchdog cut it off is a property of this run's
                // wall-clock, not of the candidate.
                if (timed_out[j]) continue;
                uint64_t hash = batch[fresh[j]].hash;
                memo.insert(hash, std::move(fresh_entries[j]));
                markDirty(hash);
            }
            for (Candidate& c : batch) {
                if (!c.valid) continue;
                c.memo = memo.find(c.hash);
                if (!c.memo) {
                    // No entry was committed: the watchdog expired
                    // before this candidate's evaluation ran.
                    c.valid = false;
                    c.reject = RejectKind::kTimeout;
                } else if (c.memo->eval_failed) {
                    c.valid = false;
                    c.reject = RejectKind::kRuntime;
                    c.memo = nullptr;
                }
            }
        }
    };

    // Charge one hardware measurement for a candidate. The memo serves
    // a structurally-duplicate candidate from cache — for the
    // analytical backend that is exactly what re-measuring would
    // produce; for a wall-clock backend it is also what keeps
    // duplicate trials (and journal replay) deterministic, since a
    // kernel is timed at most once per search — but the *simulated*
    // Table 1 accounting still charges the full profiling cost: the
    // paper's tuners re-profile duplicates, and crediting a dedup
    // cache only to our personas would skew the TVM-vs-TensorIR
    // comparison. Returns the measured latency (infinity when the
    // measurement rejects the program).
    auto commitMeasurement = [&](const Candidate& cand) -> double {
        MemoEntry* entry = cand.memo;
        if (entry->measured) {
            bump(result, &TuneCounters::memo_measure_hits);
        } else {
            Measurement m;
            {
                trace::AccumSpan measure_span(
                    "search.measure_real", result.timings.measure_s);
                m = measurer->measure(cand.func, entry->estimate);
            }
            if (m.fallback) bump(result, &TuneCounters::measure_fallbacks);
            entry->measured = true;
            entry->compile_timed_out = m.compile_timeout;
            entry->crashed = m.crashed;
            entry->hanged = m.hanged;
            entry->measured_latency_us = m.latency_us;
            // The flip can land generations after the entry was
            // journaled, and for a wall-clock backend the committed
            // latency exists nowhere but here; journaling the entry
            // again keeps memo_measure_hits *and* the measured
            // trajectory exact across a checkpoint resume.
            markDirty(cand.hash);
        }
        // Over the compile budget, crashed, or timeout-killed: no run
        // produced a latency, so this is *not* a trial. Duplicates
        // reject identically from the memo without re-compiling,
        // re-running code known to kill its process, or hanging another
        // worker for the full timeout.
        if (entry->compile_timed_out || entry->crashed || entry->hanged) {
            reject(result, entry->compile_timed_out
                               ? RejectKind::kCompileTimeout
                           : entry->crashed ? RejectKind::kCrash
                                            : RejectKind::kHang);
            return std::numeric_limits<double>::infinity();
        }
        bump(result, &TuneCounters::trials_measured);
        // Charge compile+launch always; run repetitions only for
        // programs the measurement accepts (a rejected one has latency
        // infinity, which would poison the simulated total).
        result.tuning_cost_us += options.measure_overhead_us;
        double latency = entry->measured_latency_us;
        if (!std::isfinite(latency)) {
            // Intended Table 1 accounting, pinned by a regression test
            // (trials_measured == measured_valid + measured_invalid):
            // a program rejected at measurement time still consumed a
            // trial and the compile+launch overhead — the paper's
            // tuners discover invalidity only by *attempting* the
            // measurement — so it counts in trials_measured and is
            // charged measure_overhead_us, just no run repetitions.
            // The reject is also counted in invalid_filtered so that
            // Table 1 column keeps its historical meaning.
            bump(result, &TuneCounters::measured_invalid);
            reject(result, RejectKind::kInvalid);
            trace::instant("search.measure",
                           trace::arg("valid", int64_t{0}));
            return std::numeric_limits<double>::infinity();
        }
        bump(result, &TuneCounters::measured_valid);
        result.tuning_cost_us += latency * options.measure_repeats;
        trace::instant("search.measure",
                       trace::arg("latency_us", latency));
        train_x.push_back(entry->features);
        train_y.push_back(std::log1p(latency));
        if (latency < result.best_latency_us) {
            result.best_latency_us = latency;
            result.best_func = cand.func;
            result.best_decisions = cand.decisions;
            trace::gauge("search.best_latency_us", latency);
        }
        return latency;
    };

    // --- Numeric spot-check oracle (runtime/vm.h) --------------------
    // Lazily built on first use: seeded inputs plus the unscheduled
    // workload's outputs from the tree-walking reference interpreter.
    // Checked candidates re-run on copies of the same inputs through
    // runtime::execute (the engine TuneOptions::engine or
    // TENSORIR_ENGINE selects) and must agree within
    // numeric_check_tolerance.
    std::vector<runtime::NDArray> oracle_inputs;
    std::vector<runtime::NDArray> oracle_outputs;
    int oracle_state = 0; // 0 = unbuilt, 1 = ready, -1 = unavailable
    auto ensureOracle = [&]() -> bool {
        if (oracle_state != 0) return oracle_state > 0;
        trace::Span span("search.numeric_oracle_build");
        try {
            // A derivation index no candidate stream uses, so the
            // oracle inputs never correlate with schedule sampling.
            Rng rng = Rng::derive(options.seed, 0,
                                  ~uint64_t{0});
            oracle_inputs = runtime::seededArguments(workload, rng);
            oracle_outputs = oracle_inputs;
            std::vector<runtime::NDArray*> out_ptrs;
            for (runtime::NDArray& a : oracle_outputs) {
                out_ptrs.push_back(&a);
            }
            runtime::Interpreter interp;
            interp.run(workload, out_ptrs);
            oracle_state = 1;
        } catch (const std::exception&) {
            // A workload the reference itself cannot execute (fuel
            // exhaustion, unregistered intrinsic) disables the check
            // instead of rejecting every candidate against garbage.
            oracle_inputs.clear();
            oracle_outputs.clear();
            oracle_state = -1;
            trace::instant("search.numeric_oracle_unavailable");
        }
        return oracle_state > 0;
    };

    enum class NumericVerdict : uint8_t { kOk, kMismatch, kError };
    auto numericCheck = [&](const Candidate& cand) -> NumericVerdict {
        trace::Span span("candidate.numeric_check");
        try {
            // Keyed by structural hash: an injected mismatch hits the
            // same candidates at every parallelism setting.
            if (failpoint::inject("search.numeric_check", cand.hash)) {
                span.addArg(trace::arg("injected", int64_t{1}));
                return NumericVerdict::kMismatch;
            }
            if (!ensureOracle()) return NumericVerdict::kOk;
            std::vector<runtime::NDArray> args = oracle_inputs;
            std::vector<runtime::NDArray*> arg_ptrs;
            for (runtime::NDArray& a : args) arg_ptrs.push_back(&a);
            runtime::execute(cand.func, arg_ptrs);
            for (size_t i = 0; i < args.size(); ++i) {
                double diff = args[i].maxAbsDiff(oracle_outputs[i]);
                // NaN-propagating comparison: a NaN diff is a mismatch.
                if (!(diff <= options.numeric_check_tolerance)) {
                    span.addArg(trace::arg("max_abs_diff", diff));
                    return NumericVerdict::kMismatch;
                }
            }
            return NumericVerdict::kOk;
        } catch (const std::exception&) {
            // Contained like every per-candidate failure: an execution
            // that throws (fuel, bounds, injected fault) is a runtime
            // reject, never process death.
            return NumericVerdict::kError;
        }
    };

    // Shared by the init fold and every generation's measure fold;
    // returns true when the candidate may proceed to measurement.
    // Runs only on the sequential main thread.
    auto numericGate = [&](const Candidate& cand,
                           int& checked) -> bool {
        if (checked >= options.numeric_check_topk) return true;
        ++checked;
        NumericVerdict verdict = numericCheck(cand);
        if (verdict == NumericVerdict::kOk) return true;
        reject(result, verdict == NumericVerdict::kMismatch
                           ? RejectKind::kNumeric
                           : RejectKind::kRuntime);
        return false;
    };

    // --- Crash-safe checkpointing (meta/journal.h) -------------------
    bool restored = false;
    int start_gen = 0;
    if (!options.journal_path.empty()) {
        const std::string identity =
            journalIdentity(structuralHash(workload), options);
        JournalContents contents = readJournal(options.journal_path);
        // Reopen past the last intact record: a torn trailing frame
        // left by a crash is truncated away before appending.
        journal.emplace(options.journal_path, contents.valid_bytes);
        const JournalSection* section =
            options.resume ? contents.findSection(identity) : nullptr;
        if (section && !section->generations.empty()) {
            // Restore the cross-generation search state as of the last
            // completed checkpoint. Because the search is deterministic
            // for a fixed seed, re-running the remaining generations
            // from this state reproduces the uninterrupted run exactly.
            const JournalGeneration& last = section->generations.back();
            result.counters() = last.counters;
            result.tuning_cost_us = last.tuning_cost_us;
            result.best_latency_us = last.best_latency_us;
            result.best_decisions = last.best_decisions;
            result.history = last.history;
            result.generations_replayed =
                static_cast<int>(section->generations.size());
            population = last.population;
            for (const JournalGeneration& g : section->generations) {
                for (const JournalSample& s : g.new_samples) {
                    train_x.push_back(s.features);
                    train_y.push_back(s.target);
                }
                // An entry measured after it was first journaled was
                // journaled again; the later record wins. For a
                // wall-clock backend its latency is the ground truth a
                // resume runs on — the kernel is never re-timed.
                for (const auto& [hash, entry] : g.memo) {
                    memo.insert(hash, entry);
                }
            }
            journal_samples_flushed = train_x.size();
            // The winner is re-derived from its decision trace (the
            // same mechanism as database replay, §5.2) instead of
            // serializing programs into the journal.
            if (std::isfinite(result.best_latency_us)) {
                Schedule sch(workload, options.seed);
                sch.setDecisionOverrides(result.best_decisions);
                sketch(sch);
                result.best_func = sch.func();
            }
            restored = true;
            start_gen = last.index;
            // Re-write the restored section: later records must follow
            // their own header for the file to stay parseable, and
            // another section may have been appended since the crash.
            journal->beginSection(identity);
            for (const JournalGeneration& g : section->generations) {
                journal->appendGeneration(g);
            }
            trace::instant(
                "search.journal_resume",
                trace::arg("generations_replayed",
                           static_cast<int64_t>(
                               result.generations_replayed)));
        } else {
            journal->beginSection(identity);
        }
    }

    auto appendCheckpoint = [&](int index) {
        // Streaming hook (TuneOptions::progress): announce the
        // best-so-far state at checkpoint granularity, journal or not.
        // Runs on the sequential fold thread, before the record is
        // persisted, so a client acting on the announcement can rely
        // on at-least-this-good results even if the process dies
        // mid-write.
        if (options.progress) {
            TuneProgress p;
            p.generation = index;
            p.generations_total = options.generations;
            p.best_latency_us = result.best_latency_us;
            p.best_decisions = result.best_decisions;
            p.tuning_cost_us = result.tuning_cost_us;
            options.progress(p);
            trace::instant(
                "search.progress",
                trace::arg("gen", static_cast<int64_t>(index)));
        }
        if (!journal) return;
        // The kill-mid-generation site: a `throw` schedule here
        // crashes the search after a generation finished but before it
        // was persisted — the worst-case data-loss window the resume
        // test exercises.
        failpoint::inject("search.checkpoint");
        JournalGeneration g;
        g.index = index;
        g.counters = result.counters();
        g.tuning_cost_us = result.tuning_cost_us;
        g.best_latency_us = result.best_latency_us;
        g.best_decisions = result.best_decisions;
        g.history = result.history;
        g.population = population;
        for (size_t i = journal_samples_flushed; i < train_x.size();
             ++i) {
            g.new_samples.push_back({train_x[i], train_y[i]});
        }
        journal_samples_flushed = train_x.size();
        std::unordered_set<uint64_t> written;
        for (uint64_t hash : journal_dirty_memo) {
            if (written.insert(hash).second) {
                g.memo.emplace_back(hash, *memo.find(hash));
            }
        }
        journal_dirty_memo.clear();
        journal->appendGeneration(g);
        trace::instant("search.checkpoint",
                       trace::arg("gen", static_cast<int64_t>(index)));
    };

    // Initial random population, measured directly. Attempts run in
    // rounds of `population` so a mostly-valid sketch space does not
    // over-generate; the cap of 8 rounds matches the serial budget of
    // population * 8 attempts. Skipped entirely on a journal resume —
    // the restored checkpoint already contains its outcome.
    uint64_t attempt_index = 0;
    int init_checked = 0; // numeric-check budget spans all init rounds
    for (int round = 0;
         !restored && round < 8 &&
         static_cast<int>(population.size()) < options.population;
         ++round) {
        trace::Span round_span(
            "search.init_round",
            trace::arg("round", static_cast<int64_t>(round)));
        // Later rounds only cover the remaining deficit (times a slack
        // factor for the invalid rate) instead of instantiating and
        // device-estimating a full population-sized batch for one or
        // two missing survivors.
        int needed = options.population -
                     static_cast<int>(population.size());
        int round_size = round == 0
                             ? options.population
                             : std::min(options.population, needed * 2);
        std::vector<Candidate> batch(static_cast<size_t>(round_size));
        for (Candidate& c : batch) {
            Rng rng = Rng::derive(options.seed, 0, attempt_index++);
            c.schedule_seed = rng.next();
        }
        processBatch(batch);
        trace::AccumSpan fold("search.init_fold",
                              result.timings.reduce_s);
        for (Candidate& c : batch) {
            // Every generated attempt is accounted for — even once the
            // population is full — so the filter counters keep the
            // serial meaning of "attempts that failed validation".
            if (!c.valid) {
                reject(result, c.reject);
                continue;
            }
            if (static_cast<int>(population.size()) >=
                options.population) {
                continue;
            }
            if (!numericGate(c, init_checked)) continue;
            double latency = commitMeasurement(c);
            if (std::isfinite(latency)) {
                population.push_back({latency, std::move(c.decisions)});
            }
        }
    }
    TIR_CHECK(!population.empty())
        << "search could not instantiate any valid schedule";
    if (!restored) {
        result.history.push_back(result.best_latency_us);
        appendCheckpoint(0);
    }

    for (int gen = start_gen; gen < options.generations; ++gen) {
        trace::Span gen_span(
            "search.generation",
            trace::arg("gen", static_cast<int64_t>(gen)));
        if (options.use_cost_model && train_x.size() >= 8) {
            trace::AccumSpan fit("search.model_fit",
                                 result.timings.model_s);
            // Graceful degradation: fit into a fresh model and adopt it
            // only on success. An in-place refit that throws halfway
            // would leave the live model half-built; a non-finite loss
            // means a poisoned training set whose predictions would be
            // garbage. Either way the search keeps ranking children
            // with the last good model instead of dying.
            Gbdt refit;
            bool fit_ok = true;
            try {
                refit.fit(train_x, train_y, pool);
                fit_ok = std::isfinite(refit.lastFitLoss());
            } catch (const std::exception&) {
                fit_ok = false;
            }
            if (fit_ok) {
                cost_model = std::move(refit);
            } else {
                bump(result, &TuneCounters::model_fallbacks);
                trace::instant(
                    "search.model_fallback",
                    trace::arg("gen", static_cast<int64_t>(gen)));
            }
        }
        // Parents weighted by fitness (inverse latency).
        std::vector<double> weights;
        for (const JournalIndividual& ind : population) {
            weights.push_back(1.0 / (1e-6 + ind.latency_us));
        }
        // Children by mutation. Each child's RNG derives from
        // (seed, generation, child_index), so parent choice and
        // mutation are reproducible regardless of thread count.
        std::vector<Candidate> batch(
            static_cast<size_t>(options.children_per_generation));
        for (int c = 0; c < options.children_per_generation; ++c) {
            Rng rng = Rng::derive(options.seed,
                                  static_cast<uint64_t>(gen) + 1,
                                  static_cast<uint64_t>(c));
            const JournalIndividual& parent =
                population[rng.weightedChoice(weights)];
            Candidate& child = batch[static_cast<size_t>(c)];
            child.overrides = mutate(parent.decisions, rng);
            child.schedule_seed = rng.next();
        }
        processBatch(batch);

        std::vector<size_t> children; // valid candidates, batch order
        {
            trace::AccumSpan fold("search.validity_fold",
                                  result.timings.reduce_s);
            for (size_t i = 0; i < batch.size(); ++i) {
                if (batch[i].valid) {
                    children.push_back(i);
                } else {
                    reject(result, batch[i].reject);
                }
            }
        }

        // Rank by predicted latency, measure the most promising.
        if (cost_model.trained()) {
            trace::AccumSpan rank("search.model_rank",
                                  result.timings.model_s);
            std::vector<FeatureVec> child_features;
            child_features.reserve(children.size());
            for (size_t i : children) {
                child_features.push_back(batch[i].memo->features);
            }
            std::vector<double> predicted =
                cost_model.predictBatch(child_features, pool);
            std::vector<size_t> order(children.size());
            for (size_t i = 0; i < order.size(); ++i) order[i] = i;
            std::stable_sort(order.begin(), order.end(),
                             [&](size_t a, size_t b) {
                                 return predicted[a] < predicted[b];
                             });
            std::vector<size_t> ranked;
            ranked.reserve(children.size());
            for (size_t i : order) ranked.push_back(children[i]);
            children = std::move(ranked);
        }
        trace::AccumSpan fold("search.measure_fold",
                              result.timings.reduce_s);
        int to_measure = std::min<int>(
            options.measured_per_generation,
            static_cast<int>(children.size()));
        // Epsilon-greedy exploration (Ansor-style): when the model
        // ranked the children, reserve part of the measurement budget
        // for uniform picks from the unranked tail. A model trained
        // only on bad candidates ranks *every* unfamiliar (often
        // genuinely good) child last and the search locks into a local
        // optimum; the exploration slots are the escape hatch. The
        // picks draw from a stream derived per generation, disjoint
        // from the child streams, so results stay parallelism-
        // invariant.
        if (cost_model.trained() &&
            to_measure < static_cast<int>(children.size())) {
            int explore = std::max(1, to_measure / 4);
            size_t tail_size =
                children.size() - static_cast<size_t>(to_measure);
            Rng pick_rng = Rng::derive(
                options.seed, static_cast<uint64_t>(gen) + 1,
                static_cast<uint64_t>(options.children_per_generation));
            // Sample without replacement: each pick first moves to the
            // end of a shrinking window, and the ranked candidate it
            // evicts lands outside that window, so a later pick can
            // neither repeat a tail candidate nor pull an evicted one
            // back into the measured set.
            for (int k = 0; k < explore && k < to_measure &&
                            static_cast<size_t>(k) < tail_size;
                 ++k) {
                size_t window = tail_size - static_cast<size_t>(k);
                size_t last =
                    static_cast<size_t>(to_measure) + window - 1;
                size_t j = static_cast<size_t>(to_measure) +
                           static_cast<size_t>(pick_rng.randInt(
                               static_cast<int64_t>(window)));
                std::swap(children[j], children[last]);
                size_t slot = static_cast<size_t>(to_measure - 1 - k);
                std::swap(children[slot], children[last]);
                trace::instant(
                    "search.epsilon_pick",
                    trace::arg("slot", static_cast<int64_t>(slot)) +
                        "," +
                        trace::arg("tail_index",
                                   static_cast<int64_t>(j)));
            }
        }
        int gen_checked = 0;
        for (int c = 0; c < to_measure; ++c) {
            Candidate& cand = batch[children[static_cast<size_t>(c)]];
            if (!numericGate(cand, gen_checked)) continue;
            double latency = commitMeasurement(cand);
            if (std::isfinite(latency)) {
                population.push_back(
                    {latency, std::move(cand.decisions)});
            }
        }
        // Keep the fittest individuals.
        std::stable_sort(population.begin(), population.end(),
                         [](const JournalIndividual& a,
                            const JournalIndividual& b) {
                             return a.latency_us < b.latency_us;
                         });
        if (static_cast<int>(population.size()) > options.population) {
            population.resize(static_cast<size_t>(options.population));
        }
        result.history.push_back(result.best_latency_us);
        appendCheckpoint(gen + 1);
    }
    result.timings.total_s = trace::nowSeconds() - search_start;
    return result;
}

namespace {

/** Accumulate counters and timings of a secondary search. */
void
accumulate(TuneResult& into, const TuneResult& from)
{
    into.counters() += from.counters();
    into.generations_replayed += from.generations_replayed;
    into.tuning_cost_us += from.tuning_cost_us;
    into.timings.generate_s += from.timings.generate_s;
    into.timings.evaluate_s += from.timings.evaluate_s;
    into.timings.model_s += from.timings.model_s;
    into.timings.reduce_s += from.timings.reduce_s;
    into.timings.measure_s += from.timings.measure_s;
    into.timings.total_s += from.timings.total_s;
    into.timings.watchdog_overruns += from.timings.watchdog_overruns;
}

} // namespace

TuneResult
autoTune(const TuneTask& task, const hwsim::DeviceModel& device,
         const TuneOptions& options, TunerStyle style,
         TuningDatabase* database)
{
    // Opens a trace session for TuneOptions::trace_path unless one is
    // already active (model-level guard in runModelTuned, or the
    // TENSORIR_TRACE env session); the file is written when the
    // owning guard goes out of scope.
    trace::SessionGuard trace_session(options.trace_path);
    trace::Span tune_span("meta.auto_tune",
                          trace::arg("workload", task.func->name));
    // A malformed engine name fails the tune even when a database
    // record would skip the search (which installs the engine scope).
    resolveEngineOption(options);
    // A fresh (non-resumed) session starts its journal from scratch;
    // a resumed one must keep the records it is about to replay.
    if (!options.journal_path.empty() && !options.resume) {
        resetJournal(options.journal_path);
    }
    bool gpu = (task.target == "gpu");
    std::vector<TensorizeCandidate> candidates;
    if (style != TunerStyle::kLoopOnly) {
        candidates = generateTensorizeCandidates(
            task.func, task.einsum_block, task.intrins);
    }

    SketchOptions sketch_options;
    if (style == TunerStyle::kAmosLike) {
        // AMOS maps to intrinsics but schedules data movement with a
        // fixed policy (no shared staging, no vectorized copies).
        sketch_options.use_shared_staging = false;
        sketch_options.vectorize_copies = false;
    }

    SketchApplier applier;
    if (!candidates.empty()) {
        const TensorizeCandidate& cand =
            candidates[selectTensorizeCandidate(candidates)];
        applier = makeTensorSketchApplier(cand, gpu, sketch_options);
    } else {
        applier = makeLoopSketchApplier(task.einsum_block, gpu);
    }
    TuneOptions opts = options;
    // autoTune runs up to two searches over the same workload and seed
    // options; distinct labels keep their journal sections apart.
    opts.journal_label = "primary";
    // Tag streamed progress with the sketch family the search is
    // exploring: a client replaying the announced decisions needs to
    // know which applier to replay them through (the same reason
    // TuneRecord carries `sketch`).
    const std::string primary_sketch =
        candidates.empty() ? "loop" : "tensor";
    if (options.progress) {
        opts.progress = [cb = options.progress,
                         primary_sketch](const TuneProgress& p0) {
            TuneProgress p = p0;
            p.sketch = primary_sketch;
            cb(p);
        };
    }
    if (style == TunerStyle::kAmosLike) {
        // AMOS explores intrinsic mappings without a transferable cost
        // model over tensorized programs.
        opts.use_cost_model = false;
    }
    // Database replay (§5.2): a stored record skips the search.
    if (database) {
        std::optional<TuneRecord> record = database->lookup(task.func);
        if (record) {
            Schedule sch(task.func, opts.seed);
            sch.setDecisionOverrides(record->decisions);
            SketchApplier replay =
                record->sketch == "loop"
                    ? makeLoopSketchApplier(task.einsum_block, gpu)
                    : applier;
            replay(sch);
            hwsim::RunEstimate estimate = device.run(sch.func());
            TIR_CHECK(estimate.valid())
                << "database record replays to an invalid program";
            TuneResult replayed;
            replayed.best_func = sch.func();
            replayed.best_latency_us = estimate.latency_us;
            replayed.best_decisions = sch.decisions();
            replayed.best_sketch = record->sketch;
            replayed.trials_measured = 1;
            replayed.measured_valid = 1;
            replayed.tuning_cost_us =
                options.measure_overhead_us +
                estimate.latency_us * options.measure_repeats;
            replayed.from_database = true;
            trace::instant("meta.database_replay",
                           trace::arg("workload", task.func->name));
            if (trace::enabled()) {
                replayed.trace_summary = trace::summaryText();
            }
            return replayed;
        }
    }

    TuneResult result = evolutionarySearch(task.func, applier, device,
                                           opts);
    result.best_sketch = primary_sketch;
    if (style == TunerStyle::kTensorIR && !candidates.empty()) {
        // The full system's search space also contains non-tensorized
        // sketches; on tiny or layout-bound operators the plain SIMT
        // schedule can win (no gather kernels, no padding waste).
        SketchApplier loop_applier =
            makeLoopSketchApplier(task.einsum_block, gpu);
        TuneOptions loop_opts = opts;
        loop_opts.population = std::max(4, opts.population / 2);
        loop_opts.generations = std::max(1, opts.generations / 2);
        loop_opts.seed = opts.seed + 7777;
        loop_opts.journal_label = "secondary";
        if (options.progress) {
            // The secondary search streams under its own family tag;
            // its announcements may be worse than the primary's best —
            // consumers that only want improvements (the schedule
            // server's improve-only commit) filter by latency.
            loop_opts.progress =
                [cb = options.progress](const TuneProgress& p0) {
                    TuneProgress p = p0;
                    p.sketch = "loop";
                    cb(p);
                };
        }
        TuneResult loop_result = evolutionarySearch(
            task.func, loop_applier, device, loop_opts);
        accumulate(result, loop_result);
        if (loop_result.best_latency_us < result.best_latency_us) {
            result.best_latency_us = loop_result.best_latency_us;
            result.best_func = loop_result.best_func;
            result.best_decisions = loop_result.best_decisions;
            result.best_sketch = "loop";
        }
    }
    if (database && result.best_func) {
        TuneRecord record;
        record.workload_hash = structuralHash(task.func);
        record.workload_name = task.func->name;
        record.decisions = result.best_decisions;
        record.latency_us = result.best_latency_us;
        record.sketch = result.best_sketch;
        database->commit(std::move(record));
    }
    if (result.best_func) {
        trace::Span verify_span("meta.verify_winner");
        VerifyResult cover = verifyRegionCover(result.best_func);
        TIR_CHECK(cover.ok)
            << "tuned program failed producer-consumer validation: "
            << cover.message();
        // The winner already passed the per-candidate filter; this
        // re-check runs the full-budget analysis (enumeration enabled)
        // on the single program that actually ships.
        analysis::AnalysisReport report =
            analysis::analyzeFunc(result.best_func);
        TIR_CHECK(report.ok())
            << "tuned program failed static memory analysis:\n"
            << report.summary();
    }
    // Captured before the session guard closes (and resets) the
    // session, so callers get the human-readable roll-up even when
    // this autoTune owned the session.
    if (trace::enabled()) result.trace_summary = trace::summaryText();
    return result;
}

} // namespace meta
} // namespace tir
