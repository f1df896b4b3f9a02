#include "meta/search.h"

#include "ir/structural_hash.h"
#include "meta/database.h"
#include "meta/journal.h"
#include "meta/measure.h"
#include "meta/memo.h"
#include "runtime/interpreter.h"
#include "support/env.h"
#include "support/failpoint.h"
#include "support/thread_pool.h"
#include "support/trace.h"
#include "tir/analysis/analysis.h"
#include "tir/analysis/dataflow.h"
#include "tir/verify.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
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

/** What instantiating one completed decision trace produced: whether
 *  thread-binding verification passed and, if so, the program and its
 *  structural hash. A pure function of the trace. */
struct TraceOutcome
{
    bool verified = false;
    PrimFunc func;
    uint64_t hash = 0;
};

/** Hash of a decision trace over every Decision field. */
struct TraceHash
{
    size_t
    operator()(const std::vector<Decision>& trace) const
    {
        uint64_t h = trace.size();
        auto mix = [&h](int64_t v) {
            h = Rng::mixSeed(h, static_cast<uint64_t>(v));
        };
        for (const Decision& d : trace) {
            mix(static_cast<int64_t>(d.kind));
            mix(d.extent);
            mix(d.number);
            mix(d.max_innermost);
            mix(d.num_candidates);
            mix(static_cast<int64_t>(d.values.size()));
            for (int64_t v : d.values) mix(v);
        }
        return static_cast<size_t>(h);
    }
};

/**
 * The outcome of every decision trace one search has completed. A
 * child whose overrides equal a completed trace replays exactly that
 * trace: every override matches its sampling site, so the child's RNG
 * is never drawn from and its seed cannot change the program. Such a
 * child takes the recorded outcome instead of being instantiated.
 */
using TraceOutcomes =
    std::unordered_map<std::vector<Decision>, TraceOutcome, TraceHash>;

/** One candidate flowing through the search's stages. */
struct Candidate
{
    // Inputs, filled on the main thread from the candidate's derived RNG.
    uint64_t schedule_seed = 0;
    std::vector<Decision> overrides;
    /** Set on the main thread before instantiation when `overrides` is
     *  a completed trace: the candidate takes that outcome. */
    const TraceOutcome* reuse = nullptr;
    // Instantiate stage, filled by pool workers.
    /** The sketch completed, so the outcome depends on `decisions`
     *  alone and may be recorded in the TraceOutcomes. */
    bool traced = false;
    std::vector<Decision> decisions;
    /** The program, once the sketch completed and threading validation
     *  passed; null otherwise. */
    PrimFunc func;
    uint64_t hash = 0;
    // Evaluate stage, attached on the main thread.
    /** The structure's memo entry when the candidate is valid; null
     *  when it was rejected. */
    MemoEntry* memo = nullptr;
    RejectKind reject = RejectKind::kInvalid;
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
 * Instantiate one candidate: replay the sketch with its decision
 * overrides, check the thread bindings and hash the program, or take
 * the outcome of the completed trace `cand.reuse` points to. Pure
 * function of the candidate (the workload IR is immutable and the
 * sketch applier is safe to share between threads), so it runs on any
 * pool thread.
 */
void
instantiateCandidate(const PrimFunc& workload, const SketchApplier& sketch,
                     Candidate& cand)
{
    trace::Span span("candidate.instantiate");
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
        // setting (the determinism contract survives injection). A
        // reused candidate consults it too: its accounting must not
        // depend on whether an earlier candidate completed its trace.
        if (failpoint::inject("search.instantiate", cand.schedule_seed)) {
            markRejected(cand, span, RejectKind::kRuntime);
            return;
        }
        if (cand.reuse) {
            span.addArg(trace::arg("reused", int64_t{1}));
            cand.decisions = std::move(cand.overrides);
            if (!cand.reuse->verified) {
                markRejected(cand, span, RejectKind::kInvalid);
                return;
            }
            cand.func = cand.reuse->func;
            cand.hash = cand.reuse->hash;
            return;
        }
        Schedule sch(workload, cand.schedule_seed);
        sch.setDecisionOverrides(std::move(cand.overrides));
        sketch(sch);
        cand.decisions = sch.decisions();
        cand.traced = true;
        // Threading validation (§3.3) filters false positives before
        // they reach a measurement.
        if (!verifyThreadBindings(sch.func()).ok) {
            markRejected(cand, span, RejectKind::kInvalid);
            return;
        }
        cand.hash = structuralHash(sch.func());
        cand.func = sch.func();
    } catch (const FatalError&) {
        cand.traced = false;
        markRejected(cand, span, RejectKind::kInvalid);
    } catch (const std::exception&) {
        cand.traced = false;
        markRejected(cand, span, RejectKind::kRuntime);
    }
}

/**
 * Static memory analysis on the lowered program (§3.3): a program with
 * a *provable* cross-thread hazard or out-of-bounds access never
 * reaches a measurement. Only error-severity findings reject — a
 * correct-but-unprovable schedule survives as a warning, so the
 * population cannot be emptied by analysis incompleteness. The
 * concrete-enumeration fallback stays off here (it is quadratic in
 * thread extents; the symbolic proofs are the cheap path). Returns the
 * reject kind, or nullopt when the program passes.
 */
std::optional<RejectKind>
staticVerdict(const PrimFunc& func, bool lint_filter)
{
    analysis::AnalysisOptions options;
    options.exhaustive_pair_limit = 0;
    options.max_diagnostics = 4;
    // Contained like instantiation: an analysis that throws rejects
    // this structure, never the search.
    try {
        analysis::AnalysisReport report;
        {
            // The filter runs on every distinct structure, so this is
            // where an analysis slowdown would hide.
            trace::Span span("candidate.analysis");
            report = analysis::analyzeFunc(func, options);
            span.addArg(trace::arg(
                "diagnostics",
                static_cast<int64_t>(report.diagnostics.size())));
        }
        if (!report.ok()) {
            return report.hasError(analysis::DiagKind::kOutOfBounds)
                       ? RejectKind::kBounds
                       : RejectKind::kRace;
        }
        // Dataflow lint gate (opt-in): only the error-severity
        // use-before-init finding rejects — it means a read provably
        // observes uninitialized memory on every execution. Dead-store
        // and redundant-barrier findings are warnings (performance,
        // not correctness) and never empty the population.
        if (lint_filter) {
            trace::Span span("candidate.lint");
            analysis::AnalysisReport lint =
                analysis::lintFunc(func, options);
            span.addArg(trace::arg(
                "diagnostics",
                static_cast<int64_t>(lint.diagnostics.size())));
            if (lint.hasError(analysis::DiagKind::kUseBeforeInit)) {
                return RejectKind::kLint;
            }
        }
        return std::nullopt;
    } catch (const FatalError&) {
        return RejectKind::kInvalid;
    } catch (const std::exception&) {
        return RejectKind::kRuntime;
    }
}

/**
 * Evaluate one structure the search has not seen: its static verdict
 * and, when that passes, the stats walk, features and device estimate.
 * Runs on any pool thread. An evaluation that throws (bad_alloc,
 * interpreter fuel exhaustion, injected fault) is contained as
 * `eval_failed`, so structural duplicates reject identically without
 * re-running it.
 */
MemoEntry
evaluateStructure(const Candidate& cand, const hwsim::DeviceModel& device,
                  bool lint_filter)
{
    trace::Span span("candidate.evaluate");
    MemoEntry entry;
    entry.reject = staticVerdict(cand.func, lint_filter);
    if (entry.reject) {
        span.addArg(trace::arg(
            "reject", std::string(rejectField(*entry.reject).name)));
        return entry;
    }
    try {
        // Keyed by structural hash: a chaos schedule fails the same
        // candidates at every parallelism setting.
        if (failpoint::inject("search.evaluate", cand.hash)) {
            entry.eval_failed = true;
            return entry;
        }
        hwsim::ProgramStats stats = hwsim::extractStats(cand.func);
        entry.features = extractFeatures(stats);
        entry.estimate = device.estimate(stats);
    } catch (const std::exception&) {
        entry = MemoEntry();
        entry.eval_failed = true;
    }
    return entry;
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
 * One evolutionary search (§4.4), written as the stages every batch of
 * candidates flows through — each round of the initial population and
 * each generation alike:
 *
 *  - instantiate: replay, thread-binding check and structural hash,
 *    once per decision trace (a completed trace is reused);
 *  - evaluate: static analysis, the opt-in lint, stats, features and
 *    the device estimate, once per structure, into the memo;
 *  - screen: rank a generation's valid children by the cost model and
 *    pick the ones to measure;
 *  - measure: numeric spot-check and measurement, in order;
 *  - survive: keep the fittest individuals.
 *
 * Pool workers run the per-candidate and per-structure work; every fold
 * runs on the calling thread in candidate order. The progress callback
 * and the journal observe the state at each checkpoint.
 */
class Search
{
  public:
    Search(const PrimFunc& workload, const SketchApplier& sketch,
           const hwsim::DeviceModel& device, const TuneOptions& options);

    TuneResult run();

  private:
    void instantiate(std::vector<Candidate>& batch);
    std::vector<size_t> evaluate(std::vector<Candidate>& batch);
    std::vector<size_t> screen(const std::vector<Candidate>& batch,
                               std::vector<size_t> children, int gen);
    void measure(std::vector<Candidate>& batch,
                 const std::vector<size_t>& picks, int& checked, int cap);
    void survive();
    void checkpoint(int index);

    bool restore();
    void seedPopulation();
    void evolve(int gen);
    void fitCostModel(int gen);
    double commitMeasurement(const Candidate& cand);
    bool numericGate(const Candidate& cand, int& checked);
    std::optional<RejectKind> numericCheck(const Candidate& cand);
    bool ensureOracle();
    void forEach(size_t n, const std::function<void(size_t)>& fn);
    void markDirty(uint64_t hash);

    const PrimFunc& workload_;
    const SketchApplier& sketch_;
    const hwsim::DeviceModel& device_;
    const TuneOptions& options_;
    const double start_s_;
    TuneResult result_;
    std::unique_ptr<MeasureBackend> measurer_;
    /** Null at parallelism 1. Created after the measurer, whose runner
     *  forks its worker while this process has no pool threads. */
    std::unique_ptr<support::ThreadPool> pool_;
    Gbdt cost_model_;
    std::vector<FeatureVec> train_x_;
    std::vector<double> train_y_;
    MemoCache memo_;
    TraceOutcomes traces_;
    std::vector<JournalIndividual> population_;
    // Checkpoint journal and what changed since its last checkpoint:
    // per-generation deltas keep the records small.
    std::optional<JournalWriter> journal_;
    size_t journal_samples_flushed_ = 0;
    std::vector<uint64_t> journal_dirty_memo_;
    // Numeric spot-check oracle, built on first use: seeded inputs
    // plus the unscheduled workload's outputs from the tree-walking
    // reference interpreter (runtime/interpreter.h).
    std::vector<runtime::NDArray> oracle_inputs_;
    std::vector<runtime::NDArray> oracle_outputs_;
    int oracle_state_ = 0; // 0 = unbuilt, 1 = ready, -1 = unavailable
};

Search::Search(const PrimFunc& workload, const SketchApplier& sketch,
               const hwsim::DeviceModel& device, const TuneOptions& options)
    : workload_(workload), sketch_(sketch), device_(device),
      options_(options), start_s_(trace::nowSeconds())
{
    // Measurement backend for the measure stage (meta/measure.h); a
    // malformed name fails here, before any work is done.
    MeasureConfig config;
    config.warmup = options.measure_warmup;
    config.repeats = options.measure_repeats_real;
    config.compile_budget_ms = options.compile_budget_ms;
    config.seed = options.seed;
    measurer_ = makeMeasureBackend(options.measure_backend, workload, config);
    result_.parallelism_used = resolveParallelism(options);
    if (result_.parallelism_used > 1) {
        pool_ = std::make_unique<support::ThreadPool>(
            result_.parallelism_used);
    }
}

TuneResult
Search::run()
{
    const bool restored = restore();
    if (!restored) seedPopulation();
    TIR_CHECK(!population_.empty())
        << "search could not instantiate any valid schedule";
    if (!restored) checkpoint(0);
    // Checkpoint g + 1 follows generation g, so a resume continues with
    // the generation after the last one restored.
    for (int gen = restored ? result_.generations_replayed - 1 : 0;
         gen < options_.generations; ++gen) {
        evolve(gen);
    }
    result_.timings.total_s = trace::nowSeconds() - start_s_;
    return std::move(result_);
}

void
Search::forEach(size_t n, const std::function<void(size_t)>& fn)
{
    if (pool_) {
        pool_->parallelFor(n, fn);
    } else {
        for (size_t i = 0; i < n; ++i) fn(i);
    }
}

void
Search::markDirty(uint64_t hash)
{
    if (journal_) journal_dirty_memo_.push_back(hash);
}

/**
 * Initial random population, measured directly. Attempts run in rounds
 * of `population` so a mostly-valid sketch space does not
 * over-generate; the cap of 8 rounds matches the serial budget of
 * population * 8 attempts.
 */
void
Search::seedPopulation()
{
    uint64_t attempt_index = 0;
    int checked = 0; // the numeric-check budget spans all rounds
    for (int round = 0;
         round < 8 &&
         static_cast<int>(population_.size()) < options_.population;
         ++round) {
        trace::Span round_span(
            "search.init_round",
            trace::arg("round", static_cast<int64_t>(round)));
        // Later rounds only cover the remaining deficit (times a slack
        // factor for the invalid rate) instead of instantiating and
        // device-estimating a full population-sized batch for one or
        // two missing survivors.
        int needed = options_.population -
                     static_cast<int>(population_.size());
        int round_size = round == 0
                             ? options_.population
                             : std::min(options_.population, needed * 2);
        std::vector<Candidate> batch(static_cast<size_t>(round_size));
        for (Candidate& c : batch) {
            Rng rng = Rng::derive(options_.seed, 0, attempt_index++);
            c.schedule_seed = rng.next();
        }
        instantiate(batch);
        // Every attempt's reject is counted, even once the population
        // is full, so the filter counters keep the serial meaning of
        // "attempts that failed validation".
        measure(batch, evaluate(batch), checked, options_.population);
    }
}

/** One evolution generation: refit the cost model, mutate children of
 *  fitness-weighted parents and run them through every stage. */
void
Search::evolve(int gen)
{
    trace::Span gen_span("search.generation",
                         trace::arg("gen", static_cast<int64_t>(gen)));
    fitCostModel(gen);
    // Parents weighted by fitness (inverse latency).
    std::vector<double> weights;
    for (const JournalIndividual& ind : population_) {
        weights.push_back(1.0 / (1e-6 + ind.latency_us));
    }
    // Children by mutation. Each child's RNG derives from
    // (seed, generation, child_index), so parent choice and mutation
    // are reproducible regardless of thread count.
    std::vector<Candidate> batch(
        static_cast<size_t>(options_.children_per_generation));
    for (int c = 0; c < options_.children_per_generation; ++c) {
        Rng rng = Rng::derive(options_.seed, static_cast<uint64_t>(gen) + 1,
                              static_cast<uint64_t>(c));
        const JournalIndividual& parent =
            population_[rng.weightedChoice(weights)];
        Candidate& child = batch[static_cast<size_t>(c)];
        child.overrides = mutate(parent.decisions, rng);
        child.schedule_seed = rng.next();
    }
    instantiate(batch);
    int checked = 0;
    measure(batch, screen(batch, evaluate(batch), gen), checked,
            std::numeric_limits<int>::max());
    survive();
    checkpoint(gen + 1);
}

void
Search::fitCostModel(int gen)
{
    if (!options_.use_cost_model || train_x_.size() < 8) return;
    trace::AccumSpan fit("search.model_fit", result_.timings.model_s);
    // Graceful degradation: fit into a fresh model and adopt it only on
    // success. An in-place refit that throws halfway would leave the
    // live model half-built; a non-finite loss means a poisoned
    // training set whose predictions would be garbage. Either way the
    // search keeps ranking children with the last good model instead
    // of dying.
    Gbdt refit;
    bool fit_ok = true;
    try {
        refit.fit(train_x_, train_y_, pool_.get());
        fit_ok = std::isfinite(refit.lastFitLoss());
    } catch (const std::exception&) {
        fit_ok = false;
    }
    if (fit_ok) {
        cost_model_ = std::move(refit);
    } else {
        bump(result_, &TuneCounters::model_fallbacks);
        trace::instant("search.model_fallback",
                       trace::arg("gen", static_cast<int64_t>(gen)));
    }
}

/**
 * Instantiate stage: every candidate concurrently, except that one
 * whose overrides are a completed trace takes its recorded outcome.
 */
void
Search::instantiate(std::vector<Candidate>& batch)
{
    trace::AccumSpan stage("search.instantiate_batch",
                           result_.timings.generate_s);
    for (Candidate& c : batch) {
        auto it = traces_.find(c.overrides);
        if (it == traces_.end()) continue;
        c.reuse = &it->second;
        trace::counterAdd("search.trace_reuses", 1);
    }
    forEach(batch.size(), [&](size_t i) {
        instantiateCandidate(workload_, sketch_, batch[i]);
    });
    // Batch order, first one wins: which candidate a later child reuses
    // never depends on thread placement.
    for (const Candidate& c : batch) {
        if (!c.traced) continue;
        traces_.try_emplace(c.decisions,
                            TraceOutcome{c.func != nullptr, c.func, c.hash});
    }
}

/**
 * Evaluate stage: evaluate the structures this search has not seen
 * concurrently and commit them to the memo in batch order, then give
 * every instantiated candidate its structure's verdict. Counts each
 * rejected candidate under its kind and returns the valid ones in
 * batch order.
 */
std::vector<size_t>
Search::evaluate(std::vector<Candidate>& batch)
{
    std::vector<size_t> fresh; // first sighting of each unseen structure
    {
        trace::AccumSpan stage("search.memo_scan",
                               result_.timings.reduce_s);
        std::unordered_set<uint64_t> pending;
        for (size_t i = 0; i < batch.size(); ++i) {
            const Candidate& c = batch[i];
            if (c.func && !memo_.find(c.hash) &&
                pending.insert(c.hash).second) {
                fresh.push_back(i);
            }
        }
    }

    std::vector<MemoEntry> entries(fresh.size());
    {
        trace::AccumSpan stage("search.evaluate_batch",
                               result_.timings.evaluate_s);
        forEach(fresh.size(), [&](size_t j) {
            entries[j] = evaluateStructure(batch[fresh[j]], device_,
                                           options_.lint_filter);
        });
    }

    trace::AccumSpan stage("search.memo_commit", result_.timings.reduce_s);
    for (size_t j = 0; j < fresh.size(); ++j) {
        uint64_t hash = batch[fresh[j]].hash;
        memo_.insert(hash, std::move(entries[j]));
        markDirty(hash);
    }
    std::vector<size_t> valid;
    size_t next_fresh = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        Candidate& c = batch[i];
        const bool evaluated_here =
            next_fresh < fresh.size() && fresh[next_fresh] == i;
        if (evaluated_here) ++next_fresh;
        if (c.func) {
            MemoEntry* entry = memo_.find(c.hash);
            if (entry->reject) {
                c.reject = *entry->reject;
            } else {
                // A memo hit: a candidate that passed analysis and
                // takes the evaluation of an earlier sighting.
                if (!evaluated_here) {
                    bump(result_, &TuneCounters::memo_hits);
                }
                if (entry->eval_failed) {
                    c.reject = RejectKind::kRuntime;
                } else {
                    c.memo = entry;
                }
            }
        }
        if (c.memo) {
            valid.push_back(i);
        } else {
            reject(result_, c.reject);
        }
    }
    return valid;
}

/**
 * Screen stage: rank a generation's valid children by predicted latency
 * and return the measured_per_generation of them to measure.
 */
std::vector<size_t>
Search::screen(const std::vector<Candidate>& batch,
               std::vector<size_t> children, int gen)
{
    if (cost_model_.trained()) {
        trace::AccumSpan rank("search.model_rank", result_.timings.model_s);
        std::vector<FeatureVec> child_features;
        child_features.reserve(children.size());
        for (size_t i : children) {
            child_features.push_back(batch[i].memo->features);
        }
        std::vector<double> predicted =
            cost_model_.predictBatch(child_features, pool_.get());
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
    int to_measure = std::max(
        0, std::min<int>(options_.measured_per_generation,
                         static_cast<int>(children.size())));
    // Epsilon-greedy exploration (Ansor-style): when the model ranked
    // the children, reserve part of the measurement budget for uniform
    // picks from the unranked tail. A model trained only on bad
    // candidates ranks *every* unfamiliar (often genuinely good) child
    // last and the search locks into a local optimum; the exploration
    // slots are the escape hatch. The picks draw from a stream derived
    // per generation, disjoint from the child streams, so results stay
    // parallelism-invariant.
    if (cost_model_.trained() &&
        to_measure < static_cast<int>(children.size())) {
        int explore = std::max(1, to_measure / 4);
        size_t tail_size = children.size() - static_cast<size_t>(to_measure);
        Rng pick_rng = Rng::derive(
            options_.seed, static_cast<uint64_t>(gen) + 1,
            static_cast<uint64_t>(options_.children_per_generation));
        // Sample without replacement: each pick first moves to the end
        // of a shrinking window, and the ranked candidate it evicts
        // lands outside that window, so a later pick can neither repeat
        // a tail candidate nor pull an evicted one back into the
        // measured set.
        for (int k = 0; k < explore && k < to_measure &&
                        static_cast<size_t>(k) < tail_size;
             ++k) {
            size_t window = tail_size - static_cast<size_t>(k);
            size_t last = static_cast<size_t>(to_measure) + window - 1;
            size_t j = static_cast<size_t>(to_measure) +
                       static_cast<size_t>(pick_rng.randInt(
                           static_cast<int64_t>(window)));
            std::swap(children[j], children[last]);
            size_t slot = static_cast<size_t>(to_measure - 1 - k);
            std::swap(children[slot], children[last]);
            trace::instant(
                "search.epsilon_pick",
                trace::arg("slot", static_cast<int64_t>(slot)) + "," +
                    trace::arg("tail_index", static_cast<int64_t>(j)));
        }
    }
    children.resize(static_cast<size_t>(to_measure));
    return children;
}

/**
 * Measure stage: spot-check and measure the picked candidates in order.
 * Each one measured with a finite latency joins the population while it
 * holds fewer than `cap` individuals.
 */
void
Search::measure(std::vector<Candidate>& batch,
                const std::vector<size_t>& picks, int& checked, int cap)
{
    trace::AccumSpan fold("search.measure_fold", result_.timings.reduce_s);
    for (size_t i : picks) {
        if (static_cast<int>(population_.size()) >= cap) break;
        Candidate& cand = batch[i];
        if (!numericGate(cand, checked)) continue;
        double latency = commitMeasurement(cand);
        if (std::isfinite(latency)) {
            population_.push_back({latency, std::move(cand.decisions)});
        }
    }
}

/** Survive stage: keep the fittest individuals. */
void
Search::survive()
{
    std::stable_sort(population_.begin(), population_.end(),
                     [](const JournalIndividual& a,
                        const JournalIndividual& b) {
                         return a.latency_us < b.latency_us;
                     });
    if (static_cast<int>(population_.size()) > options_.population) {
        population_.resize(static_cast<size_t>(options_.population));
    }
}

/**
 * Charge one hardware measurement for a candidate. The memo serves a
 * structurally-duplicate candidate from cache — for the analytical
 * backend that is exactly what re-measuring would produce; for a
 * wall-clock backend it is also what keeps duplicate trials (and
 * journal replay) deterministic, since a kernel is timed at most once
 * per search — but the *simulated* Table 1 accounting still charges the
 * full profiling cost: the paper's tuners re-profile duplicates, and
 * crediting a dedup cache only to our personas would skew the
 * TVM-vs-TensorIR comparison. Returns the measured latency (infinity
 * when the measurement rejects the program).
 */
double
Search::commitMeasurement(const Candidate& cand)
{
    MemoEntry* entry = cand.memo;
    if (entry->measured) {
        bump(result_, &TuneCounters::memo_measure_hits);
    } else {
        Measurement m;
        {
            trace::AccumSpan measure_span("search.measure_real",
                                          result_.timings.measure_s);
            m = measurer_->measure(cand.func, entry->estimate);
        }
        if (m.fallback) bump(result_, &TuneCounters::measure_fallbacks);
        entry->measured = true;
        entry->compile_timed_out = m.compile_timeout;
        entry->crashed = m.crashed;
        entry->hanged = m.hanged;
        entry->measured_latency_us = m.latency_us;
        // The flip can land generations after the entry was journaled,
        // and for a wall-clock backend the committed latency exists
        // nowhere but here; journaling the entry again keeps
        // memo_measure_hits *and* the measured trajectory exact across
        // a checkpoint resume.
        markDirty(cand.hash);
    }
    // Over the compile budget, crashed, or timeout-killed: no run
    // produced a latency, so this is *not* a trial. Duplicates reject
    // identically from the memo without re-compiling, re-running code
    // known to kill its process, or hanging another worker for the full
    // timeout.
    if (entry->compile_timed_out || entry->crashed || entry->hanged) {
        reject(result_, entry->compile_timed_out ? RejectKind::kCompileTimeout
                        : entry->crashed         ? RejectKind::kCrash
                                                 : RejectKind::kHang);
        return std::numeric_limits<double>::infinity();
    }
    bump(result_, &TuneCounters::trials_measured);
    // Charge compile+launch always; run repetitions only for programs
    // the measurement accepts (a rejected one has latency infinity,
    // which would poison the simulated total).
    result_.tuning_cost_us += options_.measure_overhead_us;
    double latency = entry->measured_latency_us;
    if (!std::isfinite(latency)) {
        // Intended Table 1 accounting, pinned by a regression test
        // (trials_measured == measured_valid + measured_invalid): a
        // program rejected at measurement time still consumed a trial
        // and the compile+launch overhead — the paper's tuners discover
        // invalidity only by *attempting* the measurement — so it
        // counts in trials_measured and is charged measure_overhead_us,
        // just no run repetitions. The reject is also counted in
        // invalid_filtered so that Table 1 column keeps its historical
        // meaning.
        bump(result_, &TuneCounters::measured_invalid);
        reject(result_, RejectKind::kInvalid);
        trace::instant("search.measure", trace::arg("valid", int64_t{0}));
        return std::numeric_limits<double>::infinity();
    }
    bump(result_, &TuneCounters::measured_valid);
    result_.tuning_cost_us += latency * options_.measure_repeats;
    trace::instant("search.measure", trace::arg("latency_us", latency));
    train_x_.push_back(entry->features);
    train_y_.push_back(std::log1p(latency));
    if (latency < result_.best_latency_us) {
        result_.best_latency_us = latency;
        result_.best_func = cand.func;
        result_.best_decisions = cand.decisions;
        trace::gauge("search.best_latency_us", latency);
    }
    return latency;
}

/** Build the numeric spot-check oracle on first use; false when the
 *  workload itself cannot be executed. Checked candidates re-run on
 *  copies of the same inputs, on the same tree-walker, and must agree
 *  within numeric_check_tolerance. */
bool
Search::ensureOracle()
{
    if (oracle_state_ != 0) return oracle_state_ > 0;
    trace::Span span("search.numeric_oracle_build");
    try {
        // A derivation index no candidate stream uses, so the oracle
        // inputs never correlate with schedule sampling.
        Rng rng = Rng::derive(options_.seed, 0, ~uint64_t{0});
        oracle_inputs_ = runtime::seededArguments(workload_, rng);
        oracle_outputs_ = oracle_inputs_;
        std::vector<runtime::NDArray*> out_ptrs;
        for (runtime::NDArray& a : oracle_outputs_) out_ptrs.push_back(&a);
        runtime::Interpreter interp;
        interp.run(workload_, out_ptrs);
        oracle_state_ = 1;
    } catch (const std::exception&) {
        // A workload the reference itself cannot execute (fuel
        // exhaustion, unregistered intrinsic) disables the check
        // instead of rejecting every candidate against garbage.
        oracle_inputs_.clear();
        oracle_outputs_.clear();
        oracle_state_ = -1;
        trace::instant("search.numeric_oracle_unavailable");
    }
    return oracle_state_ > 0;
}

/** The numeric spot-check of one candidate: kNumeric when its outputs
 *  diverge from the oracle's, kRuntime when it throws, nullopt when it
 *  agrees (or no oracle could be built). */
std::optional<RejectKind>
Search::numericCheck(const Candidate& cand)
{
    trace::Span span("candidate.numeric_check");
    try {
        // Keyed by structural hash: an injected mismatch hits the same
        // candidates at every parallelism setting.
        if (failpoint::inject("search.numeric_check", cand.hash)) {
            span.addArg(trace::arg("injected", int64_t{1}));
            return RejectKind::kNumeric;
        }
        if (!ensureOracle()) return std::nullopt;
        std::vector<runtime::NDArray> args = oracle_inputs_;
        std::vector<runtime::NDArray*> arg_ptrs;
        for (runtime::NDArray& a : args) arg_ptrs.push_back(&a);
        runtime::Interpreter().run(cand.func, arg_ptrs);
        for (size_t i = 0; i < args.size(); ++i) {
            double diff = args[i].maxAbsDiff(oracle_outputs_[i]);
            // NaN-propagating comparison: a NaN diff is a mismatch.
            if (!(diff <= options_.numeric_check_tolerance)) {
                span.addArg(trace::arg("max_abs_diff", diff));
                return RejectKind::kNumeric;
            }
        }
        return std::nullopt;
    } catch (const std::exception&) {
        // Contained like every per-candidate failure: an execution that
        // throws (fuel, bounds, injected fault) is a runtime reject,
        // never process death.
        return RejectKind::kRuntime;
    }
}

/** The numeric spot-check of the first numeric_check_topk candidates
 *  of a measurement set; true when the candidate may be measured. */
bool
Search::numericGate(const Candidate& cand, int& checked)
{
    if (checked >= options_.numeric_check_topk) return true;
    ++checked;
    std::optional<RejectKind> verdict = numericCheck(cand);
    if (verdict) reject(result_, *verdict);
    return !verdict;
}

/**
 * Open the checkpoint journal (meta/journal.h), when one is configured,
 * and on a resume restore the search state as of its last completed
 * checkpoint. Because the search is deterministic for a fixed seed,
 * re-running the remaining generations from that state reproduces the
 * uninterrupted run exactly. Returns whether a checkpoint was restored.
 */
bool
Search::restore()
{
    if (options_.journal_path.empty()) return false;
    const std::string identity =
        journalIdentity(structuralHash(workload_), options_);
    JournalContents contents = readJournal(options_.journal_path);
    // Reopen past the last intact record: a torn trailing frame left by
    // a crash is truncated away before appending.
    journal_.emplace(options_.journal_path, contents.valid_bytes);
    const JournalSection* section =
        options_.resume ? contents.findSection(identity) : nullptr;
    if (!section || section->generations.empty()) {
        journal_->beginSection(identity);
        return false;
    }
    const JournalGeneration& last = section->generations.back();
    result_.counters() = last.counters;
    result_.tuning_cost_us = last.tuning_cost_us;
    result_.best_latency_us = last.best_latency_us;
    result_.best_decisions = last.best_decisions;
    result_.history = last.history;
    result_.generations_replayed =
        static_cast<int>(section->generations.size());
    population_ = last.population;
    for (const JournalGeneration& g : section->generations) {
        for (const JournalSample& s : g.new_samples) {
            train_x_.push_back(s.features);
            train_y_.push_back(s.target);
        }
        // An entry measured after it was first journaled was journaled
        // again; the later record wins. For a wall-clock backend its
        // latency is the ground truth a resume runs on — the kernel is
        // never re-timed.
        for (const auto& [hash, entry] : g.memo) memo_.insert(hash, entry);
    }
    journal_samples_flushed_ = train_x_.size();
    // The winner is re-derived from its decision trace (the same
    // mechanism as database replay, §5.2) instead of serializing
    // programs into the journal.
    if (std::isfinite(result_.best_latency_us)) {
        Schedule sch(workload_, options_.seed);
        sch.setDecisionOverrides(result_.best_decisions);
        sketch_(sch);
        result_.best_func = sch.func();
    }
    // Re-write the restored section: later records must follow their
    // own header for the file to stay parseable, and another section
    // may have been appended since the crash.
    journal_->beginSection(identity);
    for (const JournalGeneration& g : section->generations) {
        journal_->appendGeneration(g);
    }
    trace::instant("search.journal_resume",
                   trace::arg("generations_replayed",
                              static_cast<int64_t>(
                                  result_.generations_replayed)));
    return true;
}

/**
 * Checkpoint `index` (0 after the initial population, g + 1 after
 * generation g): record the best-so-far in the history, announce it to
 * TuneOptions::progress, and append it to the journal.
 */
void
Search::checkpoint(int index)
{
    result_.history.push_back(result_.best_latency_us);
    // Streaming hook: announce the best-so-far state at checkpoint
    // granularity, journal or not. Runs before the record is persisted,
    // so a client acting on the announcement can rely on
    // at-least-this-good results even if the process dies mid-write.
    if (options_.progress) {
        TuneProgress p;
        p.generation = index;
        p.generations_total = options_.generations;
        p.best_latency_us = result_.best_latency_us;
        p.best_decisions = result_.best_decisions;
        p.tuning_cost_us = result_.tuning_cost_us;
        options_.progress(p);
        trace::instant("search.progress",
                       trace::arg("gen", static_cast<int64_t>(index)));
    }
    if (!journal_) return;
    // The kill-mid-generation site: a `throw` schedule here crashes the
    // search after a generation finished but before it was persisted —
    // the worst-case data-loss window the resume test exercises.
    failpoint::inject("search.checkpoint");
    JournalGeneration g;
    g.index = index;
    g.counters = result_.counters();
    g.tuning_cost_us = result_.tuning_cost_us;
    g.best_latency_us = result_.best_latency_us;
    g.best_decisions = result_.best_decisions;
    g.history = result_.history;
    g.population = population_;
    for (size_t i = journal_samples_flushed_; i < train_x_.size(); ++i) {
        g.new_samples.push_back({train_x_[i], train_y_[i]});
    }
    journal_samples_flushed_ = train_x_.size();
    std::unordered_set<uint64_t> written;
    for (uint64_t hash : journal_dirty_memo_) {
        if (written.insert(hash).second) {
            g.memo.emplace_back(hash, *memo_.find(hash));
        }
    }
    journal_dirty_memo_.clear();
    journal_->appendGeneration(g);
    trace::instant("search.checkpoint",
                   trace::arg("gen", static_cast<int64_t>(index)));
}

} // namespace

TuneResult
evolutionarySearch(const PrimFunc& workload, const SketchApplier& sketch,
                   const hwsim::DeviceModel& device,
                   const TuneOptions& options)
{
    // The trace span bracketing every per-generation and per-candidate
    // event of the search.
    trace::Span search_span(
        "search.run",
        trace::arg("population",
                   static_cast<int64_t>(options.population)) +
            "," +
            trace::arg("generations",
                       static_cast<int64_t>(options.generations)));
    // Interpreter fuel for every evaluation under this search (the
    // numeric spot-checks and the measurement worker's runs): a
    // pathological candidate aborts with a structured EvalError (a
    // contained runtime reject) instead of hanging the session.
    runtime::ScopedStepLimit step_limit(options.eval_step_limit);
    return Search(workload, sketch, device, options).run();
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
            // server's improve-only commit and PendingTune) filter by
            // latency.
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
