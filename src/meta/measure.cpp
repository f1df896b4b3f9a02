#include "meta/measure.h"

#include <algorithm>
#include <chrono>

#include "ir/structural_hash.h"
#include "meta/runner.h"
#include "runtime/interpreter.h"
#include "runtime/jit.h"
#include "support/env.h"
#include "support/logging.h"
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
    : config_(std::move(config))
{
    RunnerConfig rc;
    rc.timeout_ms = config_.timeout_ms;
    rc.retries = config_.retries;
    rc.backoff_ms = config_.backoff_ms;
    rc.seed = config_.seed;
    // Pre-forks here, in the measurer's constructor — before the
    // search builds its thread pool (search.cpp constructs the backend
    // first), so the initial forks see a single-threaded process.
    runner_ = std::make_unique<MeasureRunner>(std::move(workload),
                                              std::move(rc));
}

JitMeasurer::~JitMeasurer() = default;

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
    // Native timing impossible (no toolchain, GPU thread bindings,
    // compiler failure, no worker): serve the analytical estimate so
    // the tune proceeds instead of rejecting every candidate.
    auto fallBack = [&]() {
        m.latency_us = estimate.latency_us;
        m.fallback = true;
        trace::counterAdd("measure.jit_fallbacks", 1);
        span.addArg(trace::arg("fallback", int64_t{1}));
        m.wall_us = elapsedUs(wall_start);
        return m;
    };
    if (runner_unavailable_) return fallBack();
    auto compile_start = std::chrono::steady_clock::now();
    std::shared_ptr<const runtime::JitModule> module =
        runtime::jitCompile(func);
    double compile_ms = elapsedUs(compile_start) / 1000.0;
    if (!module) return fallBack();
    if (config_.compile_budget_ms > 0 &&
        compile_ms > config_.compile_budget_ms) {
        m.compile_timeout = true;
        trace::counterAdd("measure.compile_timeouts", 1);
        span.addArg(trace::arg("compile_ms", compile_ms));
        m.wall_us = elapsedUs(wall_start);
        return m;
    }
    // Ship the compiled object to a forked worker and let *it* dlopen
    // and run the kernel — generated-code death (SIGSEGV, abort, a
    // native infinite loop) is contained to the worker and comes back
    // as a classification instead of taking this process down.
    RunnerRequest req;
    req.object_path = module->objectPath();
    req.entry_symbol = module->entrySymbol();
    req.num_params = module->numParams();
    const std::vector<Buffer>& slots = module->buffers();
    for (size_t s = module->numParams(); s < slots.size(); ++s) {
        req.local_counts.push_back(slots[s]->numel());
    }
    req.warmup = config_.warmup;
    req.repeats = std::max(1, config_.repeats);
    req.step_limit = runtime::Interpreter::defaultStepLimit();
    req.key = structuralHash(func);
    RunnerResult outcome = runner_->run(req);
    switch (outcome.status) {
      case RunnerStatus::kOk:
        m.latency_us = outcome.latency_us;
        span.addArg(trace::arg("latency_us", m.latency_us));
        break;
      case RunnerStatus::kReject:
        // The kernel ran and rejected itself (fuel exhaustion, injected
        // fault): the candidate is invalid, latency stays infinity.
        span.addArg(trace::arg("valid", int64_t{0}));
        break;
      case RunnerStatus::kCrash:
        m.crashed = true;
        trace::counterAdd("measure.crashes", 1);
        span.addArg(trace::arg("crashed", int64_t{1}));
        break;
      case RunnerStatus::kHang:
        m.hanged = true;
        trace::counterAdd("measure.hangs", 1);
        span.addArg(trace::arg("hanged", int64_t{1}));
        break;
      case RunnerStatus::kUnavailable:
        // Every transient retry failed: serve the estimate for the rest
        // of this tune instead of re-paying the startup backoff per
        // candidate.
        runner_unavailable_ = true;
        trace::counterAdd("measure.runner_unavailable", 1);
        return fallBack();
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
    // Runner knobs resolve environment-over-config here (strictly: a
    // malformed value fails the tune up front), so TuneOptions and the
    // journal header stay unchanged.
    MeasureConfig resolved = config;
    resolved.timeout_ms = resolveMeasureTimeoutMs(resolved.timeout_ms);
    resolved.retries = resolveRunnerRetries(resolved.retries);
    return std::make_unique<JitMeasurer>(workload, resolved);
}

} // namespace meta
} // namespace tir
