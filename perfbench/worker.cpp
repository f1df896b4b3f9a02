/**
 * @file
 * Worker process of the repository benchmark. `perfbench/run.py`
 * builds it, starts it once per tune pass (after a crash, again from
 * the next task) or serving round, reads its JSON lines and turns them
 * into the benchmark's metrics. Every line on stdout is one JSON
 * object:
 *
 *   {"event":"ready", ...}     set-up finished, timed work starts
 *   {"event":"progress", ...}  a tune reached a search checkpoint
 *   {"event":"task", ...}      one tune task finished (tune-gpu/-jit)
 *   {"event":"round", ...}     the serving round finished (serve-zipf)
 *   {"event":"done"}           the worker exits normally
 *
 * A worker that dies by a signal leaves its current task without a
 * "task" line; run.py counts that task as failed and continues with
 * the next task in a fresh worker. `--crash-task I` makes the worker
 * kill itself with SIGSEGV when it starts task I, so that the smoke
 * test can check that accounting.
 *
 * Usage:
 *   perfbench_worker tune  --workload tune-gpu|tune-jit --seed S
 *                          [--pass K] [--first I] [--trace 0|1] [--smoke 0|1]
 *                          [--journal-dir D] [--ref-dir D] [--spans FILE]
 *                          [--crash-task I] [--setup-only]
 *   perfbench_worker serve --seed S [--pass K] [--trace 0|1]
 *                          [--smoke 0|1] [--spans FILE] [--setup-only]
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "codegen/c_codegen.h"
#include "graph/models.h"
#include "hwsim/stats.h"
#include "intrin/tensor_intrin.h"
#include "ir/structural_hash.h"
#include "lower/lower.h"
#include "meta/auto_tensorize.h"
#include "meta/gbdt.h"
#include "meta/measure.h"
#include "meta/search.h"
#include "meta/sketch.h"
#include "runtime/interpreter.h"
#include "runtime/jit.h"
#include "serve/server.h"
#include "support/double_bits.h"
#include "support/rng.h"
#include "tir/analysis/analysis.h"
#include "tir/schedule.h"
#include "tir/verify.h"
#include "workloads/workloads.h"

#include "spans.h"

namespace {

using namespace tir;
using perfbench::Clock;
using perfbench::Tracer;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds(int who = RUSAGE_SELF)
{
    rusage ru{};
    getrusage(who, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/** CPU seconds of this process plus the children it has waited for
 *  (the C compiler, isolated measurement workers): the cost of the
 *  work, without the time a virtual CPU was stolen by the host. */
double
workCpuSeconds()
{
    return cpuSeconds(RUSAGE_SELF) + cpuSeconds(RUSAGE_CHILDREN);
}

/** One JSON object on one line; doubles keep all 17 digits. */
class JsonLine
{
  public:
    explicit JsonLine(const char* event) { str("event", event); }

    JsonLine&
    num(const char* key, double value)
    {
        char buf[64];
        // JSON has no infinity or NaN; such a value is written as null.
        if (std::isfinite(value)) {
            std::snprintf(buf, sizeof(buf), "%.17g", value);
        } else {
            std::snprintf(buf, sizeof(buf), "null");
        }
        return raw(key, buf);
    }
    JsonLine&
    integer(const char* key, long long value)
    {
        return raw(key, std::to_string(value));
    }
    JsonLine&
    str(const char* key, const std::string& value)
    {
        std::string quoted = "\"";
        for (char c : value) {
            if (c == '"' || c == '\\') quoted += '\\';
            if (static_cast<unsigned char>(c) < 0x20) continue;
            quoted += c;
        }
        return raw(key, quoted + "\"");
    }
    JsonLine&
    nums(const char* key, const std::vector<double>& values)
    {
        std::string list = "[";
        char buf[64];
        for (size_t i = 0; i < values.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                          values[i]);
            list += buf;
        }
        return raw(key, list + "]");
    }
    JsonLine&
    strs(const char* key, const std::vector<std::string>& values)
    {
        std::string list = "[";
        for (size_t i = 0; i < values.size(); ++i) {
            list += (i ? ",\"" : "\"") + values[i] + "\"";
        }
        return raw(key, list + "]");
    }
    /** Span self times per layer, as {"name": [count, self_s], ...}. */
    JsonLine&
    layers(const char* key,
           const std::map<std::string, perfbench::LayerTotal>& totals)
    {
        std::string obj = "{";
        char buf[160];
        bool first = true;
        for (const auto& [name, t] : totals) {
            std::snprintf(buf, sizeof(buf), "%s\"%s\":[%llu,%.17g]",
                          first ? "" : ",", name.c_str(),
                          (unsigned long long)t.count, 1e-9 * t.self_ns);
            obj += buf;
            first = false;
        }
        return raw(key, obj + "}");
    }
    void
    print()
    {
        std::printf("{%s}\n", body_.c_str());
        std::fflush(stdout);
    }

  private:
    JsonLine&
    raw(const char* key, const std::string& value)
    {
        if (!body_.empty()) body_ += ",";
        body_ += "\"";
        body_ += key;
        body_ += "\":";
        body_ += value;
        return *this;
    }
    std::string body_;
};

struct Args
{
    std::string mode;
    std::string workload;
    uint64_t seed = 1;
    int first = 0;
    int pass = 0;
    int crash_task = -1;
    bool trace = false;
    bool smoke = false;
    bool setup_only = false;
    std::string journal_dir;
    std::string ref_dir;
    std::string spans_path;
};

Args
parseArgs(int argc, char** argv)
{
    Args args;
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_worker tune|serve ...\n");
        std::exit(2);
    }
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--setup-only") {
            args.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", flag.c_str());
            std::exit(2);
        }
        std::string value = argv[++i];
        if (flag == "--workload") args.workload = value;
        else if (flag == "--seed") args.seed = std::stoull(value);
        else if (flag == "--first") args.first = std::stoi(value);
        else if (flag == "--pass") args.pass = std::stoi(value);
        else if (flag == "--crash-task") args.crash_task = std::stoi(value);
        else if (flag == "--trace") args.trace = value == "1";
        else if (flag == "--smoke") args.smoke = value == "1";
        else if (flag == "--journal-dir") args.journal_dir = value;
        else if (flag == "--ref-dir") args.ref_dir = value;
        else if (flag == "--spans") args.spans_path = value;
        else {
            std::fprintf(stderr, "unknown argument: %s\n", flag.c_str());
            std::exit(2);
        }
    }
    return args;
}

// ---------------------------------------------------------------------
// Tune workloads
// ---------------------------------------------------------------------

struct Task
{
    std::string name;
    meta::TuneTask tune;
    int count = 1;
    meta::TuneOptions options;
    /** Seed of the output check's inputs; the same in every pass. */
    uint64_t input_seed = 0;
};

/** Table 1's end-to-end budget (the values of bench::endToEndOptions,
 *  copied so that a change to the figure harnesses cannot change the
 *  benchmark). */
meta::TuneOptions
table1Budget(uint64_t seed)
{
    meta::TuneOptions options;
    options.population = 8;
    options.generations = 3;
    options.children_per_generation = 16;
    options.measured_per_generation = 6;
    options.measure_overhead_us = 13.5e6;
    options.measure_repeats = 4500;
    options.seed = seed;
    return options;
}

/** Table 1's real-vs-simulated measurement budget (CPU, wall clock). */
meta::TuneOptions
jitBudget(uint64_t seed)
{
    meta::TuneOptions options;
    options.population = 8;
    options.generations = 3;
    options.children_per_generation = 16;
    options.measured_per_generation = 6;
    options.seed = seed;
    options.measure_backend = "jit";
    options.measure_warmup = 1;
    options.measure_repeats_real = 3;
    return options;
}

meta::TuneOptions
smokeBudget(meta::TuneOptions options)
{
    options.population = 4;
    options.generations = 1;
    options.children_per_generation = 8;
    options.measured_per_generation = 2;
    return options;
}

/** Worker threads of every tune. One: with two or more, autoTune's
 *  thread pool crashes the worker now and then (a claim race in
 *  ThreadPool::workerLoop), and a run must not lose work to that. */
constexpr int kTuneParallelism = 1;

std::vector<Task>
buildTasks(const Args& args)
{
    std::vector<Task> tasks;
    if (args.workload == "tune-gpu") {
        const std::vector<std::string> intrins = {"wmma_16x16x16_f16"};
        std::vector<graph::ModelSpec> models = {graph::resnet50Gpu(),
                                                graph::bertLargeGpu()};
        if (args.smoke) {
            // One convolution and one GEMM of ResNet-50.
            graph::ModelSpec small = models[0];
            small.layers = {models[0].layers[1], models[0].layers.back()};
            models = {small};
        }
        for (const graph::ModelSpec& model : models) {
            // Per-layer seeds as graph::runModelTuned assigns them.
            uint64_t seed = args.seed;
            for (const graph::Layer& layer : model.layers) {
                Task task;
                task.name = model.name + "/" + layer.op.name;
                task.tune = {layer.op.func, layer.op.einsum_block, "gpu",
                             intrins};
                task.count = layer.count;
                task.options = table1Budget(seed++);
                if (args.smoke) task.options = smokeBudget(task.options);
                tasks.push_back(std::move(task));
            }
        }
    } else if (args.workload == "tune-jit") {
        const std::vector<std::string> intrins = {"arm_sdot_1x1x4",
                                                  "arm_gemm_8x12x4"};
        std::vector<workloads::OpSpec> ops;
        if (args.smoke) {
            ops = {workloads::conv2d(1, 6, 6, 8, 8, 3, 1, 1, 1,
                                     DataType::f32(), DataType::f32()),
                   workloads::gmm(32, 32, 32, DataType::i8(),
                                  DataType::i32())};
        } else {
            ops = {workloads::conv2d(1, 14, 14, 32, 32, 3, 1, 1, 1,
                                     DataType::f32(), DataType::f32()),
                   workloads::gmm(128, 128, 128, DataType::i8(),
                                  DataType::i32())};
        }
        // Host timings steer this search, so a repeat of one seed is
        // not a repeat of the same work: each pass tunes its own seed
        // and a run averages over several trajectories.
        uint64_t seed = args.seed + 1000003ull * args.pass;
        for (const workloads::OpSpec& op : ops) {
            Task task;
            task.name = op.name;
            task.tune = {op.func, op.einsum_block, "cpu", intrins};
            task.input_seed = args.seed + tasks.size();
            task.options = jitBudget(seed++);
            if (args.smoke) task.options = smokeBudget(task.options);
            tasks.push_back(std::move(task));
        }
    } else {
        std::fprintf(stderr, "unknown tune workload: %s\n",
                     args.workload.c_str());
        std::exit(2);
    }
    for (Task& task : tasks) task.options.parallelism = kTuneParallelism;
    return tasks;
}

int
rejectCount(const meta::TuneResult& r)
{
    return r.invalid_filtered + r.race_filtered + r.bounds_filtered +
           r.runtime_filtered + r.timeout_filtered + r.lint_filtered +
           r.numeric_filtered + r.compile_timeout_filtered +
           r.crash_filtered + r.hang_filtered;
}

bool
sameDecisions(const std::vector<Decision>& a,
              const std::vector<Decision>& b)
{
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind != b[i].kind || a[i].values != b[i].values) {
            return false;
        }
    }
    return true;
}

/** Seeded inputs for a workload's parameters (ints in [-4, 4)). */
std::vector<runtime::NDArray>
seededInputs(const PrimFunc& func, uint64_t seed)
{
    Rng rng = Rng::derive(seed, 0x70657266, 0);
    std::vector<runtime::NDArray> arrays;
    for (const Buffer& param : func->params) {
        std::vector<int64_t> shape;
        for (size_t d = 0; d < param->ndim(); ++d) {
            shape.push_back(param->shapeInt(d));
        }
        runtime::NDArray array(param->dtype, shape);
        if (param->dtype.isInt()) {
            array.fillRandom(rng, -4, 4);
        } else {
            array.fillRandom(rng);
        }
        arrays.push_back(std::move(array));
    }
    return arrays;
}

std::vector<runtime::NDArray*>
pointers(std::vector<runtime::NDArray>& arrays)
{
    std::vector<runtime::NDArray*> out;
    for (runtime::NDArray& a : arrays) out.push_back(&a);
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** The sketch appliers autoTune builds for the TensorIR persona:
 *  the tensorized family when the target has a matching intrinsic,
 *  and the loop family it also searches. */
struct SketchFamilies
{
    meta::SketchApplier tensor; ///< empty when nothing tensorizes
    meta::SketchApplier loop;
};

SketchFamilies
sketchFamilies(const meta::TuneTask& task)
{
    bool gpu = task.target == "gpu";
    SketchFamilies fams;
    std::vector<meta::TensorizeCandidate> cands =
        meta::generateTensorizeCandidates(task.func, task.einsum_block,
                                          task.intrins);
    if (!cands.empty()) {
        fams.tensor = meta::makeTensorSketchApplier(
            cands[meta::selectTensorizeCandidate(cands)], gpu, {});
    }
    fams.loop = meta::makeLoopSketchApplier(task.einsum_block, gpu);
    return fams;
}

/** Outcome of the traced replay of one task's candidates. */
struct ReplayStats
{
    int candidates = 0;
    int rejected = 0;
    std::vector<double> winner_run_us;
    double isolated_ms = 0;
    double c_bytes = 0;
    int c_sources = 0;
};

/**
 * Push a seeded sample of the task's sketch space, plus the winner,
 * through the pipeline the search runs, one public call at a time, with
 * a span around each call. The tune-jit replay continues through the
 * native tier: lower, emit C, compile into an empty cache, run.
 */
ReplayStats
replayTask(const Task& task, const meta::TuneResult& tuned,
           const hwsim::DeviceModel& device, bool native, bool smoke,
           Tracer& tracer, Tracer::Buffer& buf, uint64_t task_span)
{
    using Span = Tracer::Span;
    ReplayStats out;
    SketchFamilies fams = sketchFamilies(task.tune);
    struct Cand
    {
        const meta::SketchApplier* applier;
        uint64_t seed;
        const std::vector<Decision>* overrides; ///< winner only
    };
    const int per_family = smoke ? 2 : (native ? 4 : 8);
    std::vector<Cand> cands;
    for (int k = 0; k < per_family; ++k) {
        uint64_t seed = Rng::mixSeed(task.options.seed, 0x5eed00 + k);
        if (fams.tensor) cands.push_back({&fams.tensor, seed, nullptr});
        cands.push_back({&fams.loop, seed, nullptr});
    }
    const meta::SketchApplier* winner_applier =
        tuned.best_sketch == "loop" || !fams.tensor ? &fams.loop
                                                    : &fams.tensor;
    cands.push_back(
        {winner_applier, task.options.seed, &tuned.best_decisions});

    analysis::AnalysisOptions analysis_opts;
    analysis_opts.exhaustive_pair_limit = 0;
    analysis_opts.max_diagnostics = 4;

    std::vector<runtime::NDArray> inputs;
    if (native) inputs = seededInputs(task.tune.func, task.input_seed);

    std::vector<meta::FeatureVec> features;
    std::vector<double> targets;
    std::vector<uint64_t> sample_groups;
    for (const Cand& c : cands) {
        const bool is_winner = c.overrides != nullptr;
        uint64_t group = tracer.newId();
        Span cand_span(tracer, buf, "candidate", group, task_span);
        ++out.candidates;
        Schedule sch(task.tune.func, c.seed);
        try {
            Span s(tracer, buf, "tir.replay", group, cand_span.id());
            if (is_winner) sch.setDecisionOverrides(*c.overrides);
            (*c.applier)(sch);
        } catch (const std::exception&) {
            ++out.rejected;
            continue;
        }
        PrimFunc func = sch.func();
        {
            Span s(tracer, buf, "tir.verify", group, cand_span.id());
            if (!verifyThreadBindings(func).ok) {
                ++out.rejected;
                continue;
            }
        }
        {
            Span s(tracer, buf, "tir.analysis", group, cand_span.id());
            if (!analysis::analyzeFunc(func, analysis_opts).ok()) {
                ++out.rejected;
                continue;
            }
        }
        {
            Span s(tracer, buf, "ir.structural_hash", group,
                   cand_span.id());
            (void)structuralHash(func);
        }
        hwsim::ProgramStats stats;
        hwsim::RunEstimate estimate;
        {
            Span s(tracer, buf, "hwsim.estimate", group, cand_span.id());
            stats = hwsim::extractStats(func);
            estimate = device.estimate(stats);
        }
        {
            Span s(tracer, buf, "meta.features", group, cand_span.id());
            features.push_back(meta::extractFeatures(stats));
        }
        targets.push_back(estimate.valid()
                              ? std::log(estimate.latency_us + 1e-9)
                              : 30.0);
        sample_groups.push_back(group);
        if (!native) continue;

        PrimFunc lowered;
        {
            Span s(tracer, buf, "lower.to_loops", group, cand_span.id());
            lowered = lowerToLoops(func);
        }
        try {
            Span s(tracer, buf, "codegen.emit", group, cand_span.id());
            codegen::JitSource src = codegen::emitJitC(lowered);
            out.c_bytes += static_cast<double>(src.code.size());
            ++out.c_sources;
        } catch (const std::exception&) {
            // Not expressible in C: the native tier would fall back to
            // the VM, and so does the replay.
            continue;
        }
        std::shared_ptr<const runtime::JitModule> module;
        {
            Span s(tracer, buf, "runtime.jit.compile", group,
                   cand_span.id());
            module = runtime::jitCompile(func);
        }
        if (!module) continue;
        std::vector<runtime::NDArray> args = inputs;
        const int runs = is_winner ? 7 : 1;
        std::vector<double> run_us;
        for (int r = 0; r < runs; ++r) {
            Span s(tracer, buf, "runtime.jit.run", group, cand_span.id());
            auto t0 = Clock::now();
            module->run(pointers(args));
            run_us.push_back(1e6 * secondsSince(t0));
        }
        if (!is_winner) continue;
        double run_median = median(run_us);
        out.winner_run_us.push_back(run_median);
        // One isolated measurement of the compiled winner: everything
        // it costs beyond its own runs is the runner's overhead.
        meta::MeasureConfig config;
        config.warmup = task.options.measure_warmup;
        config.repeats = task.options.measure_repeats_real;
        config.seed = task.options.seed;
        meta::JitMeasurer measurer(task.tune.func, config);
        auto t0 = Clock::now();
        {
            Span s(tracer, buf, "meta.measure.isolated", group,
                   cand_span.id());
            (void)measurer.measure(func, estimate);
        }
        double wall_ms = 1e3 * secondsSince(t0);
        out.isolated_ms =
            wall_ms -
            1e-3 * run_median * (config.warmup + config.repeats);
    }

    // The cost model the search trains, fitted on the replayed sample.
    if (features.size() >= 2) {
        meta::Gbdt model;
        uint64_t group = tracer.newId();
        {
            Span s(tracer, buf, "meta.gbdt.fit", group, task_span);
            model.fit(features, targets);
        }
        for (size_t i = 0; i < features.size(); ++i) {
            Span s(tracer, buf, "meta.gbdt.predict", sample_groups[i],
                   task_span);
            (void)model.predict(features[i]);
        }
    }
    return out;
}

/** The unscheduled workload's outputs on the check's seeded inputs,
 *  from the tree-walking interpreter. The first pass of a run computes
 *  them; later passes read them back from `ref_dir`. */
std::vector<runtime::NDArray>
treeWalkedReference(const Task& task, const std::string& ref_dir)
{
    std::vector<runtime::NDArray> ref =
        seededInputs(task.tune.func, task.input_seed);
    std::string path =
        ref_dir + "/ref-" + std::to_string(task.input_seed) + ".bin";
    FILE* f = ref_dir.empty() ? nullptr : std::fopen(path.c_str(), "rb");
    if (f) {
        bool ok = true;
        for (runtime::NDArray& a : ref) {
            size_t n = static_cast<size_t>(a.numel());
            ok = ok && std::fread(a.data(), sizeof(double), n, f) == n;
        }
        std::fclose(f);
        if (ok) return ref;
        ref = seededInputs(task.tune.func, task.input_seed);
    }
    runtime::Interpreter interp;
    interp.run(task.tune.func, pointers(ref));
    if (ref_dir.empty()) return ref;
    std::string tmp = path + ".tmp";
    if ((f = std::fopen(tmp.c_str(), "wb"))) {
        bool ok = true;
        for (runtime::NDArray& a : ref) {
            size_t n = static_cast<size_t>(a.numel());
            ok = ok && std::fwrite(a.data(), sizeof(double), n, f) == n;
        }
        ok = std::fclose(f) == 0 && ok;
        if (ok) std::rename(tmp.c_str(), path.c_str());
    }
    return ref;
}

/** tune-jit output checks: the winner runs natively and matches the
 *  tree-walked unscheduled workload; a resume from the completed
 *  journal reproduces the result without measuring anything. */
struct JitChecks
{
    std::vector<std::string> failed;
    int performed = 0;
    double max_abs_diff = 0;
    double resume_s = 0;
    double journal_bytes = 0;
};

JitChecks
checkJitTask(const Task& task, const meta::TuneResult& tuned,
             const hwsim::DeviceModel& device, const std::string& ref_dir,
             Tracer& tracer, Tracer::Buffer& buf, uint64_t task_span)
{
    JitChecks out;
    ++out.performed;
    try {
        std::vector<runtime::NDArray> got =
            seededInputs(task.tune.func, task.input_seed);
        std::vector<runtime::NDArray> ref =
            treeWalkedReference(task, ref_dir);
        std::shared_ptr<const runtime::JitModule> module =
            tuned.best_func ? runtime::jitCompile(tuned.best_func)
                            : nullptr;
        if (!module) {
            out.failed.push_back("winner_not_native");
        } else {
            module->run(pointers(got));
            for (size_t i = 0; i < got.size(); ++i) {
                double diff = got[i].maxAbsDiff(ref[i]);
                if (!(diff <= 1e-4)) {
                    out.max_abs_diff = diff;
                    out.failed.push_back("winner_output");
                    break;
                }
                out.max_abs_diff = std::max(out.max_abs_diff, diff);
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "output check: %s\n", e.what());
        out.failed.push_back("winner_output");
    }

    ++out.performed;
    std::error_code ec;
    out.journal_bytes = static_cast<double>(
        std::filesystem::file_size(task.options.journal_path, ec));
    meta::TuneOptions resume = task.options;
    resume.resume = true;
    resume.progress = nullptr;
    runtime::JitStats before = runtime::jitStats();
    meta::TuneResult again;
    auto t0 = Clock::now();
    try {
        Tracer::Span s(tracer, buf, "meta.journal.resume",
                       tracer.newId(), task_span);
        again = meta::autoTune(task.tune, device, resume,
                               meta::TunerStyle::kTensorIR);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "resume check: %s\n", e.what());
        out.failed.push_back("journal_resume");
        return out;
    }
    out.resume_s = secondsSince(t0);
    runtime::JitStats after = runtime::jitStats();
    bool same =
        sameDecisions(again.best_decisions, tuned.best_decisions) &&
        support::doubleBitsHex(again.best_latency_us) ==
            support::doubleBitsHex(tuned.best_latency_us) &&
        again.best_sketch == tuned.best_sketch;
    bool remeasured = again.timings.measure_s != 0 ||
                      after.compiles != before.compiles;
    if (!same || remeasured) out.failed.push_back("journal_resume");
    return out;
}

int
runTune(const Args& args)
{
    std::vector<Task> tasks = buildTasks(args);
    std::unique_ptr<hwsim::DeviceModel> device;
    const bool native = args.workload == "tune-jit";
    if (native) {
        device = std::make_unique<hwsim::CpuDevice>();
        // The toolchain probe is part of set-up: a user's first tune
        // pays it before any candidate compiles.
        if (!runtime::jitAvailable()) {
            std::fprintf(stderr, "no usable C compiler for the JIT\n");
            return 3;
        }
        for (size_t i = 0; i < tasks.size(); ++i) {
            tasks[i].options.journal_path =
                args.journal_dir + "/task" + std::to_string(i) +
                ".journal";
        }
    } else {
        device = std::make_unique<hwsim::GpuDevice>();
    }
    std::vector<double> counts;
    for (const Task& task : tasks) counts.push_back(task.count);
    JsonLine("ready")
        .num("setup_s", workCpuSeconds())
        .integer("tasks", static_cast<long long>(tasks.size()))
        .nums("counts", counts)
        .integer("parallelism", kTuneParallelism)
        .num("worker_cpu_s", workCpuSeconds())
        .print();
    if (args.setup_only) return 0;

    for (size_t i = static_cast<size_t>(args.first); i < tasks.size();
         ++i) {
        Task& task = tasks[i];
        if (static_cast<int>(i) == args.crash_task) std::raise(SIGSEGV);
        // Spans of one task, reported with its "task" line so that a
        // later crash loses none of them.
        Tracer tracer(args.trace);
        Tracer::Buffer& buf = tracer.buffer();
        double first_s = -1;
        double first_cpu_s = -1;
        auto t0 = Clock::now();
        double work0 = workCpuSeconds();
        task.options.progress = [&](const meta::TuneProgress& p) {
            double work_s = workCpuSeconds() - work0;
            if (first_s < 0) {
                first_s = secondsSince(t0);
                first_cpu_s = work_s;
            }
            JsonLine("progress")
                .integer("task", static_cast<long long>(i))
                .num("best_us", p.best_latency_us)
                .num("work_cpu_s", work_s)
                .print();
        };
        runtime::JitStats jit_before = runtime::jitStats();
        double cpu0 = cpuSeconds();
        uint64_t task_group = tracer.newId();
        meta::TuneResult r;
        double wall_s = 0;
        {
            Tracer::Span s(tracer, buf, "meta.search", task_group);
            t0 = Clock::now();
            work0 = workCpuSeconds();
            r = meta::autoTune(task.tune, *device, task.options,
                               meta::TunerStyle::kTensorIR);
            wall_s = secondsSince(t0);
        }
        double work_cpu_s = workCpuSeconds() - work0;
        double cpu_s = cpuSeconds() - cpu0;
        runtime::JitStats jit_after = runtime::jitStats();
        task.options.progress = nullptr;

        // The winner's simulated latency: the search's own number on
        // the analytical backend, the device model's verdict on the
        // winner the host timings picked under the jit backend.
        double sim_us = r.best_latency_us;
        if (native && r.best_func) {
            sim_us = device->run(r.best_func).latency_us;
        }

        std::vector<std::string> failed_checks;
        int checks = 1;
        if (!r.best_func || !std::isfinite(r.best_latency_us)) {
            failed_checks.push_back("no_winner");
        }
        JitChecks jit;
        if (native && r.best_func) {
            jit = checkJitTask(task, r, *device, args.ref_dir, tracer, buf,
                               task_group);
            checks += jit.performed;
            failed_checks.insert(failed_checks.end(), jit.failed.begin(),
                                 jit.failed.end());
        }

        JsonLine line("task");
        line.integer("index", static_cast<long long>(i))
            .str("name", task.name)
            .integer("count", task.count)
            .num("wall_s", wall_s)
            .num("first_s", first_s)
            .num("work_cpu_s", work_cpu_s)
            .num("first_cpu_s", first_cpu_s)
            .num("cpu_s", cpu_s)
            .num("latency_us", r.best_latency_us)
            .str("latency_bits", support::doubleBitsHex(r.best_latency_us))
            .num("sim_us", sim_us)
            .str("sketch", r.best_sketch)
            .integer("trials", r.trials_measured)
            .integer("measured_valid", r.measured_valid)
            .integer("rejected", rejectCount(r))
            .integer("memo_hits", r.memo_hits)
            .num("generate_s", r.timings.generate_s)
            .num("evaluate_s", r.timings.evaluate_s)
            .num("model_s", r.timings.model_s)
            .num("reduce_s", r.timings.reduce_s)
            .num("measure_s", r.timings.measure_s)
            .integer("jit_compiles",
                     static_cast<long long>(jit_after.compiles -
                                            jit_before.compiles))
            .integer("jit_cache_hits",
                     static_cast<long long>(
                         jit_after.memory_hits + jit_after.disk_hits -
                         jit_before.memory_hits - jit_before.disk_hits))
            .integer("measure_failures",
                     r.crash_filtered + r.hang_filtered +
                         r.measure_fallbacks + r.compile_timeout_filtered)
            .integer("checks", checks)
            .strs("failed_checks", failed_checks)
            .num("journal_bytes", jit.journal_bytes)
            .num("resume_s", jit.resume_s)
            .num("max_abs_diff", jit.max_abs_diff);

        if (args.trace && r.best_func) {
            if (native) {
                // Compile into an empty cache: a fresh cache directory
                // and no modules kept from the tune.
                std::string dir = args.journal_dir + "/replay-jit-cache-" +
                                  std::to_string(i);
                setenv("TENSORIR_JIT_CACHE", dir.c_str(), 1);
                runtime::jitResetForTesting();
                (void)runtime::jitAvailable();
            }
            ReplayStats rs = replayTask(task, r, *device, native,
                                        args.smoke, tracer, buf,
                                        task_group);
            line.integer("replayed", rs.candidates)
                .integer("replay_rejected", rs.rejected)
                .nums("winner_run_us", rs.winner_run_us)
                .num("isolated_ms", rs.isolated_ms)
                .num("c_bytes", rs.c_bytes)
                .integer("c_sources", rs.c_sources);
        }
        if (args.trace) {
            line.layers("layers", tracer.totals());
            if (!args.spans_path.empty()) tracer.write(args.spans_path);
        }
        // What this worker has used so far: run.py charges a task whose
        // worker dies with the CPU the worker used after this.
        line.num("worker_cpu_s", workCpuSeconds()).print();
    }
    JsonLine("done").print();
    return 0;
}

// ---------------------------------------------------------------------
// serve-zipf
// ---------------------------------------------------------------------

struct ServeSetup
{
    std::vector<meta::TuneTask> tasks;
    std::vector<uint64_t> hashes;
    std::vector<double> cumulative; ///< Zipf(s=1) CDF, unnormalised
    serve::ServeOptions options;
    int requests = 0;
    int clients = 2;
};

/** The traffic shape of bench/serve_load: distinct GEMM shapes ranked
 *  by popularity, cheapest-to-tune first. */
ServeSetup
buildServe(const Args& args)
{
    ServeSetup s;
    const int workloads = args.smoke ? 8 : 48;
    s.requests = args.smoke ? 2000 : 200000;
    for (int r = 0; r < workloads; ++r) {
        int n = 64 + 16 * (r % 8);
        int m = 64 + 16 * ((r / 2) % 8);
        int k = 64 + 64 * (r / 16);
        workloads::OpSpec op = workloads::gmm(n, m, k);
        s.tasks.push_back(meta::TuneTask{op.func, op.einsum_block, "gpu",
                                         {"wmma_16x16x16_f16"}});
        s.hashes.push_back(structuralHash(op.func));
    }
    double total = 0;
    for (int r = 0; r < workloads; ++r) {
        total += 1.0 / (r + 1);
        s.cumulative.push_back(total);
    }
    s.options.tune_workers = 2;
    s.options.tune.population = 4;
    s.options.tune.generations = 2;
    s.options.tune.children_per_generation = 8;
    s.options.tune.measured_per_generation = 3;
    s.options.tune.parallelism = 1;
    // One tuning seed steers every workload's search at once, so each
    // round (pass) of a run tunes its own and a run averages over them.
    s.options.tune.seed = args.seed + 1000003ull * args.pass;
    return s;
}

double
percentile(std::vector<double>& values, double p)
{
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
    return values[std::min(idx, values.size() - 1)];
}

/** One closed-loop round against a fresh server. */
void
serveRound(const Args& args, const ServeSetup& setup,
           serve::ScheduleServer& server)
{
    using Span = Tracer::Span;
    Tracer tracer(args.trace);
    struct Miss
    {
        Clock::time_point query;
        std::shared_ptr<serve::PendingTune> pending;
        double done_s = -1; ///< query -> tune finished
    };
    std::mutex misses_mutex;
    std::vector<Miss> misses; // guarded by misses_mutex
    std::atomic<bool> clients_done{false};
    std::atomic<int> wait_failures{0};
    std::vector<std::vector<double>> query_us(setup.clients);
    std::vector<std::vector<double>> first_ms(setup.clients);
    size_t pending_max = 0;
    double last_done_s = 0;

    auto start = Clock::now();
    // Stamps when each background tune finishes; the last stamp is the
    // time to tune every requested workload.
    std::thread watcher([&] {
        size_t next_open = 0;
        while (true) {
            // Read before the scan: once the clients are done, the scan
            // sees every miss they registered.
            const bool clients_finished = clients_done.load();
            bool all_done = true;
            {
                std::lock_guard<std::mutex> lock(misses_mutex);
                for (size_t i = next_open; i < misses.size(); ++i) {
                    Miss& m = misses[i];
                    if (m.done_s >= 0) continue;
                    if (m.pending->done()) {
                        m.done_s = secondsSince(m.query);
                        last_done_s =
                            std::max(last_done_s, secondsSince(start));
                    } else {
                        all_done = false;
                    }
                }
                while (next_open < misses.size() &&
                       misses[next_open].done_s >= 0) {
                    ++next_open;
                }
            }
            pending_max = std::max(pending_max, server.pendingPoolTasks());
            if (all_done && clients_finished) break;
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    });

    std::vector<std::thread> clients;
    for (int c = 0; c < setup.clients; ++c) {
        clients.emplace_back([&, c] {
            Tracer::Buffer& buf = tracer.buffer();
            Rng rng(Rng::mixSeed(setup.options.tune.seed,
                                 static_cast<uint64_t>(c)));
            int budget = setup.requests / setup.clients +
                         (c < setup.requests % setup.clients ? 1 : 0);
            query_us[c].reserve(static_cast<size_t>(budget));
            const double total = setup.cumulative.back();
            for (int i = 0; i < budget; ++i) {
                double draw = rng.randDouble() * total;
                size_t rank = static_cast<size_t>(
                    std::lower_bound(setup.cumulative.begin(),
                                     setup.cumulative.end(), draw) -
                    setup.cumulative.begin());
                rank = std::min(rank, setup.tasks.size() - 1);
                uint64_t group = args.trace ? tracer.newId() : 0;
                Span req(tracer, buf, "serve.request", group);
                if (args.trace) {
                    Span s(tracer, buf, "ir.structural_hash", group,
                           req.id());
                    (void)structuralHash(setup.tasks[rank].func);
                }
                auto t0 = Clock::now();
                serve::ScheduleServer::Response resp;
                {
                    Span s(tracer, buf, "serve.query", group, req.id());
                    resp = server.query(setup.tasks[rank]);
                }
                auto t1 = Clock::now();
                query_us[c].push_back(
                    std::chrono::duration<double, std::micro>(t1 - t0)
                        .count());
                if (!resp.record && resp.pending) {
                    {
                        std::lock_guard<std::mutex> lock(misses_mutex);
                        misses.push_back({t0, resp.pending});
                    }
                    Span s(tracer, buf, "serve.wait_first", group,
                           req.id());
                    auto got =
                        resp.pending->waitFirst(std::chrono::minutes(2));
                    if (got.has_value()) {
                        first_ms[c].push_back(
                            std::chrono::duration<double, std::milli>(
                                Clock::now() - t0)
                                .count());
                    } else {
                        wait_failures.fetch_add(1);
                    }
                }
            }
        });
    }
    for (std::thread& t : clients) t.join();
    double client_wall_s = secondsSince(start);
    clients_done.store(true);
    watcher.join();
    server.shutdown();
    serve::ServerStats stats = server.stats();
    size_t leaked = server.pendingPoolTasks();

    // serve_load --check's invariants, plus: every served record
    // replays through its sketch to the latency it was served with.
    std::vector<std::string> failed;
    int checks = 0;
    auto expect = [&](bool ok, const char* name) {
        ++checks;
        if (!ok) failed.push_back(name);
    };
    expect(stats.queries == static_cast<uint64_t>(setup.requests) &&
               wait_failures.load() == 0,
           "every_request_answered");
    expect(stats.tunes_started >= 1 &&
               stats.tunes_started <= setup.tasks.size() &&
               server.target("gpu").database().size() ==
                   stats.tunes_started,
           "single_flight");
    expect(stats.tunes_completed == stats.tunes_started &&
               stats.tunes_failed == 0,
           "every_tune_completed");
    expect(leaked == 0 && server.pendingTunes() == 0, "no_leaked_tasks");

    Tracer::Buffer& buf = tracer.buffer();
    size_t resolvable = 0;
    std::vector<double> served_us;
    bool replays = true;
    const hwsim::DeviceModel& device = server.target("gpu").device();
    for (size_t w = 0; w < setup.tasks.size(); ++w) {
        std::optional<meta::TuneRecord> rec =
            server.target("gpu").database().lookup(setup.hashes[w]);
        if (!rec) continue;
        ++resolvable;
        served_us.push_back(rec->latency_us);
        uint64_t group = tracer.newId();
        try {
            SketchFamilies fams = sketchFamilies(setup.tasks[w]);
            Schedule sch(setup.tasks[w].func, setup.options.tune.seed);
            {
                Span s(tracer, buf, "tir.replay", group);
                sch.setDecisionOverrides(rec->decisions);
                (rec->sketch == "loop" || !fams.tensor ? fams.loop
                                                       : fams.tensor)(sch);
            }
            hwsim::RunEstimate est;
            {
                Span s(tracer, buf, "hwsim.estimate", group);
                est = device.run(sch.func());
            }
            if (!est.valid() ||
                support::doubleBitsHex(est.latency_us) !=
                    support::doubleBitsHex(rec->latency_us)) {
                replays = false;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "record replay: %s\n", e.what());
            replays = false;
        }
    }
    expect(resolvable == stats.tunes_started, "records_map_to_requests");
    expect(replays, "records_replay");

    std::vector<double> all_query;
    std::vector<double> all_first;
    for (int c = 0; c < setup.clients; ++c) {
        all_query.insert(all_query.end(), query_us[c].begin(),
                         query_us[c].end());
        all_first.insert(all_first.end(), first_ms[c].begin(),
                         first_ms[c].end());
    }
    std::vector<double> tune_ms;
    for (const Miss& m : misses) tune_ms.push_back(1e3 * m.done_s);

    JsonLine line("round");
    line.integer("requests", setup.requests)
        .integer("answered",
                 setup.requests - wait_failures.load())
        .num("client_wall_s", client_wall_s)
        .num("tune_s", last_done_s)
        .num("query_p50_us", percentile(all_query, 0.50))
        .num("query_p99_us", percentile(all_query, 0.99))
        .nums("first_ms", all_first)
        .nums("served_us", served_us)
        .integer("hot_hits", static_cast<long long>(stats.hot_hits))
        .integer("shard_hits", static_cast<long long>(stats.shard_hits))
        .integer("misses", static_cast<long long>(stats.misses))
        .integer("coalesced", static_cast<long long>(stats.coalesced))
        .integer("tunes_started",
                 static_cast<long long>(stats.tunes_started))
        .integer("records_streamed",
                 static_cast<long long>(stats.records_streamed))
        .nums("tune_ms", tune_ms)
        .integer("pending_max", static_cast<long long>(pending_max))
        .integer("checks", checks)
        .strs("failed_checks", failed);
    if (args.trace) line.layers("layers", tracer.totals());
    line.print();
    if (args.trace && !args.spans_path.empty()) {
        tracer.write(args.spans_path);
    }
}

int
runServe(const Args& args)
{
    ServeSetup setup = buildServe(args);
    // Register the builtin tensor intrinsics before any tune starts, as
    // autoTune does before it spawns its own pool. Registration is lazy
    // and unsynchronised (registerBuiltinIntrinsics), and the server's
    // first two background tunes start at once in a fresh process, so
    // left to them one can read the registry while the other fills it.
    // Without this call a serve worker died with SIGSEGV now and then.
    (void)TensorIntrin::list();
    serve::ScheduleServer server(setup.options);
    JsonLine("ready")
        .num("setup_s", workCpuSeconds())
        .integer("workloads", static_cast<long long>(setup.tasks.size()))
        .integer("tune_workers", setup.options.tune_workers)
        .integer("clients", setup.clients)
        .print();
    if (args.setup_only) return 0;
    serveRound(args, setup, server);
    JsonLine("done").print();
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args = parseArgs(argc, argv);
    try {
        if (args.mode == "tune") return runTune(args);
        if (args.mode == "serve") return runServe(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_worker: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown mode: %s\n", args.mode.c_str());
    return 2;
}
