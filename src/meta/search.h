/**
 * @file
 * Evolutionary search over sketch decisions (§4.4) with a learned cost
 * model and validation filtering, plus the top-level auto-tuner that
 * wires together candidate generation, sketch generation, and search.
 *
 * The search runs as named stages shared by the initial population and
 * every generation (instantiate -> evaluate -> screen -> measure ->
 * survive, see search.cpp). Candidate instantiation (sketch replay +
 * threading validation) and per-structure evaluation (static analysis,
 * features, device estimate) are distributed over a std::jthread pool,
 * while all result folding (measurement, cost-model training data,
 * best tracking, population survival) happens sequentially in
 * candidate-index order.
 *
 * Determinism contract: for a fixed `TuneOptions::seed`, tuning results
 * — `best_decisions`, `best_latency_us`, `best_sketch`, `history`,
 * every TuneCounters counter — are byte-identical for every
 * value of `TuneOptions::parallelism` (1, 4, hardware_concurrency, …).
 * This holds because each candidate's RNG is derived from
 * (seed, generation, child_index) via Rng::derive instead of a shared
 * mutable generator, and every reduction over candidate results runs on
 * the main thread in a fixed order. Only `TuneResult::timings` (real
 * wall-clock) varies between runs.
 *
 * The contract assumes a deterministic measurement backend (the
 * default analytical model). With `measure_backend = "jit"` the
 * latencies are real host wall clock — still parallelism-invariant
 * within a run (measurements happen only in the sequential fold) but
 * not reproducible across runs; such a run is replayed exactly only
 * through its checkpoint journal, which records every committed
 * measurement (see docs/EXECUTION.md, "Measurement backends").
 */
#ifndef TENSORIR_META_SEARCH_H
#define TENSORIR_META_SEARCH_H

#include <functional>
#include <iosfwd>

#include "hwsim/device.h"
#include "meta/auto_tensorize.h"
#include "meta/gbdt.h"
#include "meta/sketch.h"

namespace tir {
namespace meta {

/** Feature vector of a scheduled program (input to the cost model). */
FeatureVec extractFeatures(const PrimFunc& func);
/** Same, from already-extracted program stats (avoids a second walk
 *  when the stats also feed the device model). */
FeatureVec extractFeatures(const hwsim::ProgramStats& stats);

/**
 * Streaming progress snapshot, delivered after every completed
 * checkpoint of a search: index 0 is the state after the initial
 * random population, index g+1 the state after evolution generation g
 * — the same granularity as the crash-safe journal's records.
 */
struct TuneProgress
{
    /** Checkpoint index (0 = initial population). */
    int generation = 0;
    /** Total evolution generations configured for this search. */
    int generations_total = 0;
    /** Best latency found so far (infinity before any valid
     *  measurement). */
    double best_latency_us = std::numeric_limits<double>::infinity();
    /** Decision trace of the best-so-far schedule (replayable exactly
     *  like a TuningDatabase record). */
    std::vector<Decision> best_decisions;
    /** Sketch family of best_decisions ("tensor" or "loop"). Filled by
     *  autoTune, which knows which applier it handed the search; empty
     *  from a bare evolutionarySearch. */
    std::string sketch;
    /** Simulated tuning cost spent so far. */
    double tuning_cost_us = 0;
};

/** Search configuration. */
struct TuneOptions
{
    /** Survivor population size kept between generations. Larger values
     *  preserve more diversity at the cost of more initial
     *  measurements. */
    int population = 16;
    /** Number of evolution rounds after the initial random population.
     *  `history` gets one entry per generation plus the initial one. */
    int generations = 5;
    /** Candidates generated per generation by mutating sampled parents.
     *  All of them are instantiated, validated, and feature-extracted
     *  (in parallel); only the cost-model favorites are measured. */
    int children_per_generation = 32;
    /** How many cost-model–screened children get a simulated hardware
     *  measurement per generation (the expensive step: Table 1's
     *  tuning time is dominated by it). */
    int measured_per_generation = 8;
    /** Root seed. Every candidate RNG is derived from
     *  (seed, generation, child_index), so results are reproducible for
     *  any parallelism (see the determinism contract above). */
    uint64_t seed = 1;
    /** Train a GBDT cost model on measured candidates and use it to
     *  pre-screen children. Disabled by the AMOS-like persona. */
    bool use_cost_model = true;
    /** Simulated cost charged per hardware measurement (compile + run
     *  repetitions), used for the Table 1 tuning-time accounting. */
    double measure_overhead_us = 300000.0; // ~0.3 s compile+launch
    /** Simulated run repetitions charged per measurement. */
    double measure_repeats = 100;
    /**
     * Measurement backend for the sequential measurement fold
     * (meta/measure.h). "" or "hwsim" (the default) scores candidates
     * with the analytical device model — deterministic and instant.
     * "jit" compiles each candidate through the native tier
     * (runtime/jit.h) and times it on the host CPU in a forked worker
     * with warmup + median-of-k repeats on std::chrono::steady_clock.
     * The device model remains the validity oracle either way; under
     * "jit", candidates the native tier cannot run (GPU thread
     * bindings, missing toolchain, no measurement worker) fall back to
     * the analytical estimate, counted in
     * TuneResult::measure_fallbacks.
     * A malformed name raises FatalError up front.
     */
    std::string measure_backend;
    /** Wall-clock backends: untimed warmup runs per candidate before
     *  the timed repeats (steady-state discipline). */
    int measure_warmup = 2;
    /** Wall-clock backends: timed repeats per candidate; the reported
     *  latency is the median (robust to scheduler hiccups). */
    int measure_repeats_real = 5;
    /** Wall-clock backends: per-candidate native-compile budget in
     *  milliseconds. A candidate whose compile exceeds it is rejected
     *  into TuneResult::compile_timeout_filtered without being charged
     *  as a trial; duplicates reject from the memo without re-invoking
     *  the compiler. 0 = unlimited. */
    double compile_budget_ms = 0;
    /**
     * Worker threads for the pipeline (candidate instantiation, feature
     * extraction, cost-model fit). 0 (the default) resolves to the
     * TENSORIR_PARALLELISM environment variable if set, otherwise to
     * std::thread::hardware_concurrency(). 1 disables threading
     * entirely; any value yields byte-identical tuning results.
     */
    int parallelism = 0;
    /**
     * Interpreter fuel budget per candidate evaluation: the maximum
     * number of statements a simulated measurement may execute before
     * it is aborted with a structured EvalError (a contained runtime
     * reject, counted in `runtime_filtered`, not process death; native
     * hangs are the measurement runner's SIGKILL, `hang_filtered`).
     * 0 = unlimited.
     * The default is generous — real candidates finish in well under
     * a millionth of it — so it only catches pathological programs
     * that would otherwise spin the interpreter forever.
     */
    uint64_t eval_step_limit = 1ull << 33;
    /**
     * Numeric spot-check budget: when > 0, the first
     * `numeric_check_topk` candidates of each measurement set (the
     * initial population and every generation) are executed on seeded
     * inputs on the tree-walking interpreter and compared against its
     * reference run of the unscheduled workload. A per-element
     * divergence beyond `numeric_check_tolerance` rejects the
     * candidate — counted in TuneResult::numeric_filtered — before it
     * is measured or admitted to the population. The check runs in the sequential measurement
     * fold, so the rejected set (and the whole TuneResult) stays
     * byte-identical for any `parallelism`. 0 (the default) disables
     * the check.
     */
    int numeric_check_topk = 0;
    /**
     * Run the dataflow lints (tir/analysis/dataflow.h) as a candidate
     * filter: candidates with an error-severity TIR-L001
     * use-before-init finding — a read of an intermediate buffer that
     * provably observes uninitialized memory — are rejected before any
     * measurement, counted in TuneResult::lint_filtered. Warnings
     * (dead stores, redundant barriers) never reject: they are
     * optimization opportunities, not correctness hazards. Off by
     * default; the race/bounds filters already gate correctness.
     */
    bool lint_filter = false;
    /** Maximum per-element |candidate - reference| the numeric
     *  spot-check tolerates. */
    double numeric_check_tolerance = 1e-4;
    /**
     * When non-empty, the search appends a crash-safe checkpoint
     * journal here (meta/journal.h): one checksummed record per
     * generation. Combined with `resume`, a killed session restarts
     * from the last completed generation instead of from scratch.
     */
    std::string journal_path;
    /**
     * Resume from `journal_path`: completed generations recorded there
     * (for a matching workload/seed/options section) are replayed from
     * the journal instead of re-run, then the search continues. The
     * final TuneResult is byte-identical to an uninterrupted run (the
     * deterministic-replay contract extends across process restarts).
     * Ignored when the journal has no matching section.
     */
    bool resume = false;
    /** Section label within the journal; autoTune sets this per sketch
     *  family. Single token (no whitespace). */
    std::string journal_label;
    /**
     * Generation-progress callback, invoked on the sequential search
     * thread at every checkpoint — after the initial population and
     * after each evolution generation — with the best-so-far decision
     * trace. This is the streaming hook the schedule server
     * (serve/server.h) uses to surface improving results to waiting
     * clients while a background tune runs. Independent of the
     * journal: it fires whether or not `journal_path` is set (when it
     * is, the callback runs just before the checkpoint record is
     * persisted). Generations restored by a journal resume are *not*
     * re-announced — only work actually performed reports progress.
     * The callback must not throw; an escaping exception aborts the
     * search. Purely observational: tuning decisions and latencies are
     * byte-identical with or without it.
     */
    std::function<void(const TuneProgress&)> progress;
    /**
     * When non-empty, autoTune opens a trace session (support/trace.h)
     * writing Chrome-trace JSON here — per-generation and per-candidate
     * spans, memo/filter counters, cost-model loss gauges — unless a
     * session is already active (e.g. started by runModelTuned for a
     * whole model, or by the TENSORIR_TRACE environment variable for
     * the whole process), in which case events join that session.
     * Tracing is observational only: tuning decisions and simulated
     * latencies are byte-identical with tracing on or off.
     */
    std::string trace_path;
};

/**
 * Why the search dropped a candidate (§3.3's validation, plus the
 * search's own containment of failing candidates). Each kind has one
 * `*_filtered` counter in TuneCounters, at the same index of
 * TuneCounters::kFields.
 */
enum class RejectKind : uint8_t
{
    /** Structural: sketch application threw FatalError, threading
     *  validation failed, or the measurement found a device-constraint
     *  violation. */
    kInvalid,
    /** Static race analysis found a provable memory hazard. */
    kRace,
    /** Static bounds analysis found a provable out-of-bounds access. */
    kBounds,
    /** Instantiation, evaluation or the numeric check threw a
     *  non-FatalError exception (std::bad_alloc, interpreter fuel
     *  exhaustion, an injected fault). */
    kRuntime,
    /** No producer: the search has no wall-clock cutoff (interpreter
     *  fuel and the runner's SIGKILL bound every evaluation). Kept
     *  because the benchmark's reject count (perfbench/worker.cpp)
     *  still reads `timeout_filtered`. */
    kTimeout,
    /** Dataflow lint found an error-severity use-before-init read. */
    kLint,
    /** The numeric spot-check diverged from the reference. */
    kNumeric,
    /** The native compile exceeded its per-candidate budget. */
    kCompileTimeout,
    /** The isolated measurement worker died running the kernel. */
    kCrash,
    /** The isolated measurement hit the hard timeout and was killed. */
    kHang,
};

/** Number of RejectKind values. */
inline constexpr size_t kNumRejectKinds = 10;

/**
 * The search's accounting: one int per reject kind plus the trial,
 * memo and fallback counts. Every consumer — accumulation, the
 * checkpoint journal, equality, the reports — iterates kFields, so a
 * new counter is one member plus one table entry. The search bumps
 * each one together with the trace counter "search.<name>".
 */
struct TuneCounters
{
    /** Structural rejects (RejectKind::kInvalid), including programs
     *  the measurement rejected (also counted in measured_invalid). */
    int invalid_filtered = 0;
    /** Provable cross-thread write-write or unsynchronized
     *  read-after-write hazards in the lowered program. */
    int race_filtered = 0;
    /** Provable out-of-bounds accesses. */
    int bounds_filtered = 0;
    /** Contained non-FatalError exceptions (std::bad_alloc, injected
     *  faults, interpreter fuel exhaustion, …). */
    int runtime_filtered = 0;
    /** Always 0: RejectKind::kTimeout has no producer. */
    int timeout_filtered = 0;
    /** Error-severity TIR-L001 use-before-init reads (only with
     *  TuneOptions::lint_filter). */
    int lint_filtered = 0;
    /** Numeric spot-check divergences beyond
     *  TuneOptions::numeric_check_tolerance. */
    int numeric_filtered = 0;
    /** Native compiles over TuneOptions::compile_budget_ms (wall-clock
     *  backends). Rejected before any run, so *not* trials. */
    int compile_timeout_filtered = 0;
    /** Isolated measurement workers that died of a fatal signal or
     *  nonzero exit on the candidate's kernel (Measurement::crashed).
     *  Not trials; structural duplicates reject from the memo without
     *  re-running the crashing kernel. */
    int crash_filtered = 0;
    /** Isolated measurements SIGKILLed at the hard wall-clock timeout
     *  (Measurement::hanged). Not trials. */
    int hang_filtered = 0;
    int trials_measured = 0;
    /** Trials whose measurement committed a finite latency.
     *  `trials_measured == measured_valid + measured_invalid` holds for
     *  every backend — the regression-tested Table 1 accounting
     *  invariant (see commitMeasurement in search.cpp). */
    int measured_valid = 0;
    /** Trials rejected at measurement time: a device-constraint
     *  violation, or (wall-clock backends) a failed native execution. */
    int measured_invalid = 0;
    /** Measurements the wall-clock backend served from the analytical
     *  model instead of native timing (unsupported construct, missing
     *  toolchain, or no measurement worker). */
    int measure_fallbacks = 0;
    /** Cost-model retrains that failed (threw, or produced a non-finite
     *  loss) and fell back to the last good model. */
    int model_fallbacks = 0;
    /** Candidates that passed static analysis and took their
     *  features/estimate from the structural-hash memo instead of being
     *  evaluated again (duplicate schedules). */
    int memo_hits = 0;
    /** Measurements served from the memo because a structurally
     *  identical candidate was already measured (nothing re-run; the
     *  simulated profiling cost is still charged so the Table 1
     *  accounting stays comparable across personas). */
    int memo_measure_hits = 0;

    /** A counter's name, its trace counter ("search.<name>") and its
     *  member. */
    struct Field
    {
        const char* name;
        const char* trace_name;
        int TuneCounters::*member;
    };
    /** Every counter, in declaration order; the first kNumRejectKinds
     *  entries are the reject counters in RejectKind order. */
    static const Field kFields[17];

    TuneCounters& operator+=(const TuneCounters& other);
    bool operator==(const TuneCounters&) const = default;
};

#define TIR_TUNE_COUNTER(field)                                           \
    {#field, "search." #field, &TuneCounters::field}
inline constexpr TuneCounters::Field TuneCounters::kFields[17] = {
    TIR_TUNE_COUNTER(invalid_filtered),
    TIR_TUNE_COUNTER(race_filtered),
    TIR_TUNE_COUNTER(bounds_filtered),
    TIR_TUNE_COUNTER(runtime_filtered),
    TIR_TUNE_COUNTER(timeout_filtered),
    TIR_TUNE_COUNTER(lint_filtered),
    TIR_TUNE_COUNTER(numeric_filtered),
    TIR_TUNE_COUNTER(compile_timeout_filtered),
    TIR_TUNE_COUNTER(crash_filtered),
    TIR_TUNE_COUNTER(hang_filtered),
    TIR_TUNE_COUNTER(trials_measured),
    TIR_TUNE_COUNTER(measured_valid),
    TIR_TUNE_COUNTER(measured_invalid),
    TIR_TUNE_COUNTER(measure_fallbacks),
    TIR_TUNE_COUNTER(model_fallbacks),
    TIR_TUNE_COUNTER(memo_hits),
    TIR_TUNE_COUNTER(memo_measure_hits),
};
#undef TIR_TUNE_COUNTER
static_assert(TuneCounters::kFields[static_cast<size_t>(RejectKind::kHang)]
                      .member == &TuneCounters::hang_filtered &&
                  kNumRejectKinds ==
                      static_cast<size_t>(RejectKind::kHang) + 1,
              "reject counters must lead kFields in RejectKind order");

/** "name=value" for every counter (gtest failure messages, logs). */
std::ostream& operator<<(std::ostream& os, const TuneCounters& counters);

/** Outcome of a tuning run. The counters live in the TuneCounters
 *  base, so callers read `result.race_filtered` and friends directly. */
struct TuneResult : TuneCounters
{
    PrimFunc best_func;
    double best_latency_us = std::numeric_limits<double>::infinity();
    /** Decision trace of the winner (replayable via a TuningDatabase). */
    std::vector<Decision> best_decisions;
    /** Sketch family of the winner ("tensor" or "loop"). */
    std::string best_sketch;
    /** Generations restored from the checkpoint journal instead of
     *  re-run (only with TuneOptions::resume). */
    int generations_replayed = 0;
    /** Simulated wall-clock tuning cost (profiling dominates). */
    double tuning_cost_us = 0;
    /** Best latency after each generation. */
    std::vector<double> history;
    /** True when the result was replayed from a database record. */
    bool from_database = false;
    /** Threads the pipeline actually used (resolved parallelism). */
    int parallelism_used = 1;

    /** Human-readable aggregate of the trace session (span totals,
     *  counter finals) captured at the end of autoTune; empty when
     *  tracing was not active. Cumulative over the session, so with a
     *  model-level or process-level session it covers everything traced
     *  so far, not just this task. */
    std::string trace_summary;

    /** Real wall-clock spent per pipeline stage, in seconds, recorded
     *  by trace::AccumSpan scopes around each stage (the same scopes
     *  that emit trace spans when a session is active). Unlike
     *  everything above, these are *not* deterministic — they time this
     *  process, not the simulated hardware. */
    struct StageTimings
    {
        /** Instantiate stage: sketch replay, thread-binding check and
         *  structural hash. */
        double generate_s = 0;
        /** Evaluate stage: static analysis (and the opt-in lint),
         *  stats/feature extraction and device-model estimates, once
         *  per distinct structure. */
        double evaluate_s = 0;
        /** Cost-model fitting and child ranking. */
        double model_s = 0;
        /** Sequential folds: measurement commits, survival, bookkeeping. */
        double reduce_s = 0;
        /** Real measurement time (wall-clock backends: compile +
         *  warmup + timed repeats; 0 for the analytical backend). */
        double measure_s = 0;
        /** Whole search. */
        double total_s = 0;
    };
    StageTimings timings;

    TuneCounters& counters() { return *this; }
    const TuneCounters& counters() const { return *this; }
};

/**
 * Resolve TuneOptions::parallelism (explicit > environment >
 * hardware_concurrency). A set-but-non-empty TENSORIR_PARALLELISM
 * must be a positive integer in range — garbage, zero, a sign
 * character, or overflow raise FatalError instead of being silently
 * ignored (the std::atoi behaviour this replaced). An empty value
 * counts as unset. Exposed for the env-parsing regression tests.
 */
int resolveParallelism(const TuneOptions& options);

/** Evolutionary search over the decisions of one sketch family. */
TuneResult evolutionarySearch(const PrimFunc& workload,
                              const SketchApplier& sketch,
                              const hwsim::DeviceModel& device,
                              const TuneOptions& options);

/** Which tuner persona to emulate (for the paper's baselines). */
enum class TunerStyle
{
    /** Full system: auto-tensorization + AutoCopy data movement. */
    kTensorIR,
    /** Loop-nest-only search (TVM/Ansor-like baseline). */
    kLoopOnly,
    /** Tensorizes but with fixed data-movement policy (AMOS-like). */
    kAmosLike,
};

/** A workload to tune. */
struct TuneTask
{
    PrimFunc func;
    std::string einsum_block;
    /** "gpu" or "cpu". */
    std::string target = "gpu";
    /** Intrinsics available on the target. */
    std::vector<std::string> intrins;
};

class TuningDatabase;

/**
 * Tune one task end to end with the requested persona. When `database`
 * is given, a hit replays the stored decisions (one measurement, no
 * search — the paper's §5.2 record caching) and a miss commits the new
 * winner.
 */
TuneResult autoTune(const TuneTask& task,
                    const hwsim::DeviceModel& device,
                    const TuneOptions& options,
                    TunerStyle style = TunerStyle::kTensorIR,
                    TuningDatabase* database = nullptr);

} // namespace meta
} // namespace tir

#endif // TENSORIR_META_SEARCH_H
