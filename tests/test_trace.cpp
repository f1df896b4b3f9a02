/**
 * @file
 * The tracing subsystem's contract (support/trace.h): disabled means
 * no-op, a session produces well-formed Chrome trace-event JSON
 * covering the instrumented pipeline, and tracing never perturbs
 * tuning — results are byte-identical with a session on or off.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "meta/search.h"
#include "support/trace.h"
#include "workloads/workloads.h"

#include "test_util.h"

namespace tir {
namespace {

meta::TuneOptions
demoOptions()
{
    meta::TuneOptions options;
    options.population = 8;
    options.generations = 3;
    options.children_per_generation = 16;
    options.measured_per_generation = 8;
    options.seed = 17;
    options.parallelism = 2;
    return options;
}

meta::TuneResult
tuneOnce(const meta::TuneOptions& options)
{
    workloads::OpSpec op = workloads::gmm(128, 128, 128);
    hwsim::GpuDevice gpu;
    meta::TuneTask task{op.func, "C", "gpu", {"wmma_16x16x16_f16"}};
    return meta::autoTune(task, gpu, options,
                          meta::TunerStyle::kTensorIR);
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing trace file " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(TraceTest, DisabledByDefault)
{
    // No TENSORIR_TRACE in the test environment, no explicit start:
    // every hook must be a no-op.
    ASSERT_FALSE(trace::enabled());
    EXPECT_EQ(trace::summaryText(), "");
    {
        trace::Span span("never.recorded");
        span.addArg(trace::arg("x", int64_t{1}));
        trace::counterAdd("never.counted", 1);
        trace::gauge("never.gauged", 1.0);
        trace::instant("never.instant");
    }
    EXPECT_FALSE(trace::enabled());
    EXPECT_EQ(trace::summaryText(), "");
}

TEST(TraceTest, AccumSpanAccumulatesWithoutSession)
{
    // The stage timings in TuneResult flow through AccumSpan, which
    // must keep working when no session is active.
    ASSERT_FALSE(trace::enabled());
    double seconds = 0;
    {
        trace::AccumSpan span("never.recorded", seconds);
    }
    EXPECT_GE(seconds, 0.0);
    double again = seconds;
    {
        trace::AccumSpan span("never.recorded", again);
    }
    EXPECT_GE(again, seconds);
}

TEST(TraceTest, SessionWritesChromeTraceJson)
{
    testutil::ScopedTempDir dir;
    std::string path = dir.file("trace.json");
    meta::TuneOptions options = demoOptions();
    options.trace_path = path;
    meta::TuneResult result = tuneOnce(options);
    // The session closed when autoTune returned, but its roll-up was
    // captured first. (The meta.auto_tune span itself is still open at
    // capture time, so the summary reports the closed inner spans.)
    EXPECT_FALSE(trace::enabled());
    EXPECT_NE(result.trace_summary.find("search.run"),
              std::string::npos);
    EXPECT_NE(result.trace_summary.find("search.trials_measured"),
              std::string::npos);

    std::string text = readFile(path);
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    // Spans from every instrumented layer of the pipeline.
    for (const char* name :
         {"meta.auto_tune", "search.run", "search.generation",
          "candidate.instantiate", "candidate.analysis",
          "candidate.evaluate", "lower.to_loops"}) {
        EXPECT_NE(text.find(std::string("\"name\":\"") + name + "\""),
                  std::string::npos)
            << "trace is missing span " << name;
    }
    // Counter samples ("ph":"C") and thread metadata are present.
    EXPECT_NE(text.find("\"search.trials_measured\""),
              std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
}

TEST(TraceTest, TracingIsObservationalOnly)
{
    // The determinism contract extends to tracing: a session on the
    // same seed changes nothing about the tuning outcome.
    meta::TuneResult plain = tuneOnce(demoOptions());

    testutil::ScopedTempDir dir;
    meta::TuneOptions traced_options = demoOptions();
    traced_options.trace_path = dir.file("trace_determinism.json");
    meta::TuneResult traced = tuneOnce(traced_options);

    EXPECT_EQ(plain.best_latency_us, traced.best_latency_us);
    EXPECT_EQ(plain.best_sketch, traced.best_sketch);
    EXPECT_EQ(plain.history, traced.history);
    EXPECT_EQ(plain.counters(), traced.counters());
    EXPECT_EQ(plain.tuning_cost_us, traced.tuning_cost_us);
    ASSERT_EQ(plain.best_decisions.size(), traced.best_decisions.size());
    for (size_t i = 0; i < plain.best_decisions.size(); ++i) {
        EXPECT_EQ(plain.best_decisions[i].values,
                  traced.best_decisions[i].values)
            << "decision " << i;
    }
    // Only the traced run carries a summary.
    EXPECT_TRUE(plain.trace_summary.empty());
    EXPECT_FALSE(traced.trace_summary.empty());
}

TEST(TraceTest, NestedSessionsComposeOutermostWins)
{
    testutil::ScopedTempDir dir;
    std::string outer_path = dir.file("trace_outer.json");
    std::string inner_path = dir.file("trace_inner.json");
    {
        trace::SessionGuard outer(outer_path);
        ASSERT_TRUE(outer.owns());
        ASSERT_TRUE(trace::enabled());
        {
            // An inner guard (what autoTune opens for its trace_path)
            // must join the active session, not displace it.
            trace::SessionGuard inner(inner_path);
            EXPECT_FALSE(inner.owns());
            trace::Span span("nested.work");
        }
        // Inner guard closing must not have ended the outer session.
        EXPECT_TRUE(trace::enabled());
    }
    EXPECT_FALSE(trace::enabled());
    std::string text = readFile(outer_path);
    EXPECT_NE(text.find("\"nested.work\""), std::string::npos);
    // The inner path was never written.
    std::ifstream inner_file(inner_path);
    EXPECT_FALSE(inner_file.good());
}

TEST(TraceTest, CountersAggregateAcrossThreadsInSummary)
{
    testutil::ScopedTempDir dir;
    std::string path = dir.file("trace_counters.json");
    {
        trace::SessionGuard session(path);
        ASSERT_TRUE(session.owns());
        trace::counterAdd("test.counter", 2);
        trace::counterAdd("test.counter", 3);
        trace::gauge("test.gauge", 1.5);
        trace::gauge("test.gauge", 2.5);
        std::string summary = trace::summaryText();
        EXPECT_NE(summary.find("test.counter"), std::string::npos);
        EXPECT_NE(summary.find("5"), std::string::npos);
        // Gauges report the latest sample.
        EXPECT_NE(summary.find("2.5"), std::string::npos);
    }
}

} // namespace
} // namespace tir
