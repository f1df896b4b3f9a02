#include "meta/measure.h"

#include <algorithm>
#include <chrono>

#include "ir/structural_hash.h"
#include "meta/runner.h"
#include "runtime/interpreter.h"
#include "runtime/jit.h"
#include "runtime/vm.h"
#include "support/cpu_pin.h"
#include "support/env.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/trace.h"

namespace tir {
namespace meta {

namespace {

double
elapsedUs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

Measurement
HwsimMeasurer::measure(const PrimFunc& func,
                       const hwsim::RunEstimate& estimate)
{
    (void)func;
    Measurement m;
    if (estimate.valid()) m.latency_us = estimate.latency_us;
    return m;
}

bool
resolveIsolate(bool fallback)
{
    return support::envFlag("TENSORIR_ISOLATE", fallback);
}

double
resolveMeasureTimeoutMs(double fallback)
{
    // Bounded at one day: a larger "timeout" is a typo, not a budget.
    return static_cast<double>(support::envUint(
        "TENSORIR_MEASURE_TIMEOUT_MS",
        static_cast<uint64_t>(fallback), 0, 86400000));
}

int
resolveRunnerRetries(int fallback)
{
    return static_cast<int>(support::envUint(
        "TENSORIR_RUNNER_RETRIES", static_cast<uint64_t>(fallback), 0,
        100));
}

JitMeasurer::JitMeasurer(PrimFunc workload, MeasureConfig config)
    : workload_(std::move(workload)), config_(std::move(config))
{
    if (config_.isolate && MeasureRunner::available()) {
        RunnerConfig rc;
        rc.timeout_ms = config_.timeout_ms;
        rc.retries = config_.retries;
        rc.backoff_ms = config_.backoff_ms;
        rc.seed = config_.seed;
        // Pre-forks here, in the measurer's constructor — before the
        // search builds its thread pool (search.cpp constructs the
        // backend first), so the initial forks see a single-threaded
        // process.
        runner_ =
            std::make_unique<MeasureRunner>(workload_, std::move(rc));
    }
}

JitMeasurer::~JitMeasurer() = default;

bool
JitMeasurer::isolationActive() const
{
    return runner_ != nullptr && !runner_degraded_;
}

bool
JitMeasurer::ensureArguments()
{
    if (arg_state_ != 0) return arg_state_ > 0;
    try {
        // A derivation stream disjoint from every candidate stream
        // (generation + 1 indices) and from the numeric oracle's
        // (0, ~0), so measurement inputs never correlate with schedule
        // sampling or the spot-check data.
        Rng rng = Rng::derive(config_.seed, ~uint64_t{0}, 1);
        for (const Buffer& param : workload_->params) {
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
            args_.push_back(std::move(array));
        }
        for (runtime::NDArray& a : args_) arg_ptrs_.push_back(&a);
        arg_state_ = 1;
    } catch (const std::exception&) {
        args_.clear();
        arg_ptrs_.clear();
        arg_state_ = -1;
    }
    return arg_state_ > 0;
}

Measurement
JitMeasurer::measure(const PrimFunc& func,
                     const hwsim::RunEstimate& estimate)
{
    trace::Span span("measure.jit", trace::arg("func", func->name));
    Measurement m;
    auto wall_start = std::chrono::steady_clock::now();
    // The device model stays the validity oracle: a candidate that
    // violates device constraints (threading validation, §3.3) is
    // rejected before any native compile is attempted.
    if (!estimate.valid()) {
        span.addArg(trace::arg("valid", int64_t{0}));
        return m;
    }
    auto compile_start = std::chrono::steady_clock::now();
    std::shared_ptr<const runtime::JitModule> module =
        runtime::jitCompile(func);
    double compile_ms = elapsedUs(compile_start) / 1000.0;
    if (!module) {
        // Native execution impossible (no toolchain, GPU thread
        // bindings, compiler failure): serve the analytical estimate
        // so the tune proceeds instead of rejecting every candidate.
        m.latency_us = estimate.latency_us;
        m.fallback = true;
        trace::counterAdd("measure.jit_fallbacks", 1);
        span.addArg(trace::arg("fallback", int64_t{1}));
        m.wall_us = elapsedUs(wall_start);
        return m;
    }
    if (config_.compile_budget_ms > 0 &&
        compile_ms > config_.compile_budget_ms) {
        m.compile_timeout = true;
        trace::counterAdd("measure.compile_timeouts", 1);
        span.addArg(trace::arg("compile_ms", compile_ms));
        m.wall_us = elapsedUs(wall_start);
        return m;
    }
    if (runner_ && !runner_degraded_) {
        // Isolated path: ship the compiled object to a forked worker
        // and let *it* dlopen and run the kernel — generated-code
        // death (SIGSEGV, abort, a native infinite loop) is contained
        // to the worker and comes back as a classification instead of
        // taking this process down.
        RunnerRequest req;
        req.object_path = module->objectPath();
        req.entry_symbol = module->entrySymbol();
        req.num_params = module->numParams();
        const std::vector<Buffer>& slots = module->buffers();
        for (size_t s = module->numParams(); s < slots.size(); ++s) {
            int64_t count = 1;
            for (size_t d = 0; d < slots[s]->ndim(); ++d) {
                count *= slots[s]->shapeInt(d);
            }
            req.local_counts.push_back(count);
        }
        req.warmup = config_.warmup;
        req.repeats = std::max(1, config_.repeats);
        req.step_limit = runtime::Interpreter::defaultStepLimit();
        req.pin_cpu = config_.pin_cpu;
        req.key = structuralHash(func);
        RunnerResult outcome = runner_->run(req);
        switch (outcome.status) {
          case RunnerStatus::kOk:
            m.latency_us = outcome.latency_us;
            span.addArg(trace::arg("latency_us", m.latency_us));
            m.wall_us = elapsedUs(wall_start);
            return m;
          case RunnerStatus::kReject:
            // The kernel ran and rejected itself (fuel exhaustion,
            // injected fault): same verdict as the in-process catch
            // block — latency stays infinity.
            span.addArg(trace::arg("valid", int64_t{0}));
            m.wall_us = elapsedUs(wall_start);
            return m;
          case RunnerStatus::kCrash:
            m.crashed = true;
            trace::counterAdd("measure.crashes", 1);
            span.addArg(trace::arg("crashed", int64_t{1}));
            m.wall_us = elapsedUs(wall_start);
            return m;
          case RunnerStatus::kHang:
            m.hanged = true;
            trace::counterAdd("measure.hangs", 1);
            span.addArg(trace::arg("hanged", int64_t{1}));
            m.wall_us = elapsedUs(wall_start);
            return m;
          case RunnerStatus::kUnavailable:
            // Every transient retry failed (or fork is impossible):
            // degrade to the in-process path for the rest of this
            // tune instead of re-paying the startup backoff per
            // candidate. PR 8 behaviour, minus the isolation.
            runner_degraded_ = true;
            trace::counterAdd("measure.isolation_degraded", 1);
            break;
        }
    }
    if (!ensureArguments()) {
        m.latency_us = estimate.latency_us;
        m.fallback = true;
        trace::counterAdd("measure.jit_fallbacks", 1);
        m.wall_us = elapsedUs(wall_start);
        return m;
    }
    support::ScopedCpuPin pin(config_.pin_cpu);
    try {
        for (int i = 0; i < config_.warmup; ++i) {
            module->run(arg_ptrs_);
        }
        int repeats = std::max(1, config_.repeats);
        std::vector<double> samples(static_cast<size_t>(repeats));
        for (int i = 0; i < repeats; ++i) {
            auto run_start = std::chrono::steady_clock::now();
            module->run(arg_ptrs_);
            samples[static_cast<size_t>(i)] = elapsedUs(run_start);
        }
        auto mid = samples.begin() +
                   static_cast<std::ptrdiff_t>(samples.size() / 2);
        std::nth_element(samples.begin(), mid, samples.end());
        // Clamp to a nanosecond: a kernel faster than the clock's
        // resolution must still report a positive latency (zero would
        // poison the fitness weights and the log1p training target).
        m.latency_us = std::max(*mid, 1e-3);
        span.addArg(trace::arg("latency_us", m.latency_us));
    } catch (const std::exception&) {
        // A failed native execution (fuel exhaustion, injected fault)
        // rejects the candidate like a device-invalid one; latency
        // stays infinity. Contained per candidate, never process death.
        m.latency_us = std::numeric_limits<double>::infinity();
        span.addArg(trace::arg("valid", int64_t{0}));
    }
    m.wall_us = elapsedUs(wall_start);
    return m;
}

std::unique_ptr<MeasureBackend>
makeMeasureBackend(const std::string& name, const PrimFunc& workload,
                   const MeasureConfig& config)
{
    if (name.empty() || name == "hwsim") {
        return std::make_unique<HwsimMeasurer>();
    }
    TIR_CHECK(name == "jit")
        << "TuneOptions::measure_backend \"" << name
        << "\" is not a backend name (expected hwsim or jit)";
    // Isolation knobs resolve environment-over-config here (strictly:
    // a malformed value fails the tune up front), so TuneOptions and
    // the journal header stay unchanged — a journaled trajectory
    // replays identically whether its measurements ran isolated or
    // in-process, because every committed latency and classification
    // is journaled.
    MeasureConfig resolved = config;
    resolved.isolate = resolveIsolate(resolved.isolate);
    resolved.timeout_ms = resolveMeasureTimeoutMs(resolved.timeout_ms);
    resolved.retries = resolveRunnerRetries(resolved.retries);
    return std::make_unique<JitMeasurer>(workload, resolved);
}

} // namespace meta
} // namespace tir
