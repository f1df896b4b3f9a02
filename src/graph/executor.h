/**
 * @file
 * End-to-end graph execution estimates: tune every unique layer of a
 * model with a given tuner persona, sum per-layer latencies (weighted by
 * occurrence count), and account the simulated tuning cost — the inputs
 * to Figure 12/14 and Table 1.
 */
#ifndef TENSORIR_GRAPH_EXECUTOR_H
#define TENSORIR_GRAPH_EXECUTOR_H

#include "baselines/libraries.h"
#include "graph/models.h"
#include "meta/search.h"

namespace tir {
namespace graph {

/** Result of compiling + timing a model with one system. */
struct ModelResult
{
    std::string system;
    double latency_us = 0;
    /** Simulated wall-clock time spent tuning (profiling-dominated). */
    double tuning_minutes = 0;
    bool supported = true;
    /** Search counters (reject reasons, trials, memo hits) summed over
     *  all tuned layers. */
    meta::TuneCounters counters;
};

/** Tune a model with one of our tuner personas and sum layer times. */
ModelResult runModelTuned(const ModelSpec& model,
                          const hwsim::DeviceModel& device,
                          const std::string& target,
                          const std::vector<std::string>& intrins,
                          meta::TunerStyle style,
                          const meta::TuneOptions& options);

/** Estimate a model under a vendor library / framework persona. */
ModelResult runModelLibrary(const ModelSpec& model,
                            baselines::Library library,
                            const hwsim::GpuDevice& gpu,
                            const hwsim::CpuDevice& cpu, bool is_gpu,
                            double per_op_overhead_us);

} // namespace graph
} // namespace tir

#endif // TENSORIR_GRAPH_EXECUTOR_H
