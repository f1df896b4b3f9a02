#include "graph/executor.h"

#include "support/trace.h"

namespace tir {
namespace graph {

ModelResult
runModelTuned(const ModelSpec& model, const hwsim::DeviceModel& device,
              const std::string& target,
              const std::vector<std::string>& intrins,
              meta::TunerStyle style, const meta::TuneOptions& options)
{
    // Owns the trace session for the whole model when per-task autoTune
    // calls would otherwise each open and close their own.
    trace::SessionGuard trace_session(options.trace_path);
    trace::Span model_span("graph.run_model",
                           trace::arg("model", model.name));
    ModelResult result;
    switch (style) {
      case meta::TunerStyle::kTensorIR: result.system = "TensorIR"; break;
      case meta::TunerStyle::kLoopOnly: result.system = "TVM"; break;
      case meta::TunerStyle::kAmosLike: result.system = "AMOS"; break;
    }
    uint64_t seed = options.seed;
    for (const Layer& layer : model.layers) {
        trace::Span layer_span("graph.layer");
        layer_span.addArg(trace::arg("func", layer.op.func->name));
        layer_span.addArg(
            trace::arg("count", static_cast<int64_t>(layer.count)));
        meta::TuneTask task{layer.op.func, layer.op.einsum_block, target,
                            intrins};
        meta::TuneOptions opts = options;
        opts.seed = seed++;
        if (style == meta::TunerStyle::kLoopOnly) {
            // The paper's Table 1 observation: without tensorization the
            // search space is larger, so the baseline spends more trials
            // per task to converge.
            opts.generations = options.generations +
                               (options.generations + 1) / 2;
        }
        meta::TuneResult tuned =
            meta::autoTune(task, device, opts, style);
        result.latency_us += tuned.best_latency_us * layer.count;
        result.tuning_minutes += tuned.tuning_cost_us / 60e6;
        result.counters += tuned.counters();
    }
    return result;
}

ModelResult
runModelLibrary(const ModelSpec& model, baselines::Library library,
                const hwsim::GpuDevice& gpu, const hwsim::CpuDevice& cpu,
                bool is_gpu, double per_op_overhead_us)
{
    ModelResult result;
    result.system = baselines::libraryName(library);
    if (is_gpu && library == baselines::Library::kTensorRT &&
        model.tensorrt_unsupported) {
        result.supported = false;
        return result;
    }
    for (const Layer& layer : model.layers) {
        std::optional<double> latency =
            is_gpu ? baselines::libraryLatencyUs(library, layer.op, gpu)
                   : baselines::libraryLatencyUsCpu(library, layer.op,
                                                    cpu);
        if (!latency) {
            result.supported = false;
            return result;
        }
        result.latency_us += *latency * layer.count;
    }
    // Eager frameworks pay per-op dispatch for the elementwise glue that
    // compilers fuse away.
    result.latency_us += model.framework_extra_ops * per_op_overhead_us;
    return result;
}

} // namespace graph
} // namespace tir
