/**
 * @file
 * CI chaos check for the process-isolated measurement runner: run a
 * tiny fixed-seed tune with measure_backend="jit" while failpoints
 * kill and wedge measurement workers (runner.crash aborts the worker,
 * runner.hang parks it until the hard timeout SIGKILLs it), then
 * demand that (1) the tune completed anyway, (2) both crash_filtered
 * and hang_filtered are nonzero — the classifications actually
 * happened and were counted, not swallowed — and (3) a journal resume
 * reproduces the chaos run byte for byte, because classifications are
 * journaled alongside committed latencies.
 *
 * Skips (exit 0 with a message) when no native toolchain is available:
 * without compiled kernels the workers never run anything to kill.
 *
 * Usage: runner_chaos_smoke <journal-path>
 * Exits nonzero on any mismatch.
 */
#include <cmath>
#include <cstdio>
#include <string>

#include "ir/printer.h"
#include "meta/journal.h"
#include "meta/runner.h"
#include "meta/search.h"
#include "meta/sketch.h"
#include "runtime/jit.h"
#include "support/failpoint.h"
#include "workloads/workloads.h"

using namespace tir;

namespace {

int failures = 0;

void
check(bool ok, const char* what)
{
    if (!ok) {
        std::fprintf(stderr, "runner_chaos_smoke: MISMATCH: %s\n",
                     what);
        ++failures;
    }
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <journal-path>\n", argv[0]);
        return 2;
    }
    if (!runtime::jitAvailable()) {
        std::printf("runner_chaos_smoke: skipped (needs a native "
                    "toolchain)\n");
        return 0;
    }
    const std::string journal = argv[1];
    meta::resetJournal(journal);

    workloads::OpSpec op =
        workloads::gmm(16, 16, 16, DataType::f32(), DataType::f32());
    hwsim::CpuDevice cpu;
    meta::SketchApplier sketch =
        meta::makeLoopSketchApplier(op.einsum_block, /*gpu=*/false);

    meta::TuneOptions options;
    options.population = 4;
    options.generations = 2;
    options.children_per_generation = 8;
    options.measured_per_generation = 3;
    options.seed = 91;
    options.parallelism = 1;
    options.measure_backend = "jit";
    options.measure_warmup = 0;
    options.measure_repeats_real = 1;
    options.journal_path = journal;
    options.journal_label = "runner_chaos_smoke";

    // Data-keyed chaos: some candidates abort their worker, others
    // wedge it until the hard timeout SIGKILLs it (the ambient
    // TENSORIR_MEASURE_TIMEOUT_MS — ci.sh sets it short). Keyed by
    // structural hash, so the same candidates die in every run and on
    // every resume.
    failpoint::ScopedFailpoints chaos(
        "seed=23; runner.crash=error(0.3); runner.hang=error(0.4)");

    meta::TuneResult wall =
        meta::evolutionarySearch(op.func, sketch, cpu, options);
    std::printf("chaos run: trials=%d valid=%d invalid=%d crashes=%d "
                "hangs=%d best=%.3f us\n",
                wall.trials_measured, wall.measured_valid,
                wall.measured_invalid, wall.crash_filtered,
                wall.hang_filtered, wall.best_latency_us);

    check(wall.crash_filtered > 0,
          "no worker crash was classified (crash_filtered == 0)");
    check(wall.hang_filtered > 0,
          "no worker hang was classified (hang_filtered == 0)");
    check(wall.trials_measured ==
              wall.measured_valid + wall.measured_invalid,
          "trials_measured != measured_valid + measured_invalid");
    check(wall.trials_measured > 0,
          "chaos starved the tune of every measurement");
    check(std::isfinite(wall.best_latency_us),
          "chaos run found no valid candidate");

    meta::TuneOptions resume_options = options;
    resume_options.resume = true;
    meta::TuneResult replay =
        meta::evolutionarySearch(op.func, sketch, cpu, resume_options);
    std::printf(
        "journal replay: generations_replayed=%d crashes=%d hangs=%d "
        "best=%.3f us\n",
        replay.generations_replayed, replay.crash_filtered,
        replay.hang_filtered, replay.best_latency_us);

    check(replay.generations_replayed == options.generations + 1,
          "replay re-ran generations instead of restoring them");
    check(replay.counters() == wall.counters(), "counters");
    check(replay.best_latency_us == wall.best_latency_us,
          "best_latency_us");
    check(replay.history == wall.history, "history");
    check(replay.tuning_cost_us == wall.tuning_cost_us,
          "tuning_cost_us");
    check(funcToString(replay.best_func) ==
              funcToString(wall.best_func),
          "best_func");

    if (failures != 0) {
        std::fprintf(stderr,
                     "runner_chaos_smoke: FAILED (%d mismatches)\n",
                     failures);
        return 1;
    }
    std::printf("runner_chaos_smoke: crashed and hung workers were "
                "classified, counted, and replayed byte-identically\n");
    return 0;
}
