/**
 * @file
 * CI smoke check for the wall-clock measurement backend: run a tiny
 * fixed-seed tune with measure_backend="jit" journaled to a file, then
 * resume from the (complete) journal and demand the replay reproduce
 * the wall-clock run byte for byte. Wall-clock latencies are not
 * reproducible across runs — the journal is; this binary proves that
 * contract end to end on a real toolchain (and degrades to hwsim
 * fallbacks, still byte-identical, when no compiler is available).
 *
 * Usage: measure_jit_smoke <journal-path>
 * Exits nonzero on any mismatch.
 */
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "ir/printer.h"
#include "meta/journal.h"
#include "meta/search.h"
#include "meta/sketch.h"
#include "workloads/workloads.h"

using namespace tir;

namespace {

int failures = 0;

void
check(bool ok, const char* what)
{
    if (!ok) {
        std::fprintf(stderr, "measure_jit_smoke: MISMATCH: %s\n", what);
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
    options.measure_backend = "jit";
    options.measure_warmup = 1;
    options.measure_repeats_real = 3;
    options.journal_path = journal;
    options.journal_label = "measure_jit_smoke";

    meta::TuneResult wall =
        meta::evolutionarySearch(op.func, sketch, cpu, options);
    std::printf("wall-clock run: trials=%d valid=%d invalid=%d "
                "fallbacks=%d best=%.3f us\n",
                wall.trials_measured, wall.measured_valid,
                wall.measured_invalid, wall.measure_fallbacks,
                wall.best_latency_us);

    check(wall.trials_measured ==
              wall.measured_valid + wall.measured_invalid,
          "trials_measured != measured_valid + measured_invalid");
    check(std::isfinite(wall.best_latency_us),
          "wall-clock run found no valid candidate");

    meta::TuneOptions resume_options = options;
    resume_options.resume = true;
    meta::TuneResult replay =
        meta::evolutionarySearch(op.func, sketch, cpu, resume_options);
    std::printf("journal replay: generations_replayed=%d best=%.3f us\n",
                replay.generations_replayed, replay.best_latency_us);

    check(replay.generations_replayed == options.generations + 1,
          "replay re-ran generations instead of restoring them");
    // Byte-identical means bit-identical doubles, not approximately
    // equal: the journal stores IEEE-754 bit patterns.
    check(replay.best_latency_us == wall.best_latency_us,
          "best_latency_us");
    check(replay.history == wall.history, "history");
    check(replay.counters() == wall.counters(), "counters");
    check(replay.tuning_cost_us == wall.tuning_cost_us,
          "tuning_cost_us");
    check(funcToString(replay.best_func) == funcToString(wall.best_func),
          "best_func");

    if (failures != 0) {
        std::fprintf(stderr, "measure_jit_smoke: FAILED (%d mismatches)\n",
                     failures);
        return 1;
    }
    std::printf("measure_jit_smoke: journaled wall-clock run resumed "
                "byte-identically\n");
    return 0;
}
