/**
 * @file
 * Code generation end to end: auto-tune an int8 matmul for the ARM
 * persona, lower the winner (erasing blocks), emit a standalone C
 * program, compile it with the system C compiler, run it, and check the
 * checksum against the functional interpreter. This is the full
 * schedule -> validate -> lower -> codegen pipeline on real output.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "codegen/c_codegen.h"
#include "lower/lower.h"
#include "meta/search.h"
#include "runtime/interpreter.h"
#include "workloads/workloads.h"

using namespace tir;

namespace {

/** A fresh directory under $TMPDIR (or /tmp), removed with everything
 *  in it on scope exit, so concurrent runs never share a file. */
class TempDir
{
  public:
    TempDir()
    {
        const char* base = std::getenv("TMPDIR");
        std::string tmpl = std::string(base && *base ? base : "/tmp") +
                           "/tensorir-c-kernel-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (::mkdtemp(buf.data())) path_ = buf.data();
    }
    ~TempDir()
    {
        std::error_code ec;
        if (!path_.empty()) std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    /** Empty when the directory could not be made. */
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

int
main()
{
    workloads::OpSpec op = workloads::gmm(64, 64, 64, DataType::i8(),
                                          DataType::i32());
    hwsim::CpuDevice cpu;
    meta::TuneTask task{op.func, "C", "cpu",
                        {"arm_sdot_1x1x4", "arm_gemm_8x12x4"}};
    meta::TuneOptions options;
    options.population = 6;
    options.generations = 2;
    meta::TuneResult tuned =
        meta::autoTune(task, cpu, options, meta::TunerStyle::kTensorIR);
    std::printf("tuned int8 GMM: %.1f simulated us (sketch: %s)\n",
                tuned.best_latency_us, tuned.best_sketch.c_str());

    PrimFunc lowered = lowerToLoops(tuned.best_func);
    std::printf("lowered: block-free = %s\n",
                isBlockFree(lowered->body) ? "yes" : "no");

    std::string code = codegen::emitStandaloneC(tuned.best_func, 1);
    TempDir dir;
    if (dir.path().empty()) {
        std::printf("could not create a temporary directory\n");
        return 1;
    }
    std::string src = dir.path() + "/generated_gmm.c";
    std::string bin = dir.path() + "/generated_gmm";
    {
        std::ofstream out(src);
        out << code;
    }
    std::printf("emitted %zu bytes of C\n", code.size());

    std::string compile =
        "cc -O2 -o '" + bin + "' '" + src + "' -lm";
    if (std::system(compile.c_str()) != 0) {
        std::printf("compilation failed\n");
        return 1;
    }
    FILE* pipe = popen(("'" + bin + "'").c_str(), "r");
    double compiled_sum = 0;
    if (!pipe || fscanf(pipe, "%lf", &compiled_sum) != 1) {
        std::printf("running the generated binary failed\n");
        return 1;
    }
    pclose(pipe);

    // Interpreter reference with the same deterministic inputs.
    std::vector<runtime::NDArray> args;
    for (const Buffer& p : op.func->params) {
        std::vector<int64_t> shape;
        for (size_t d = 0; d < p->ndim(); ++d) {
            shape.push_back(p->shapeInt(d));
        }
        args.emplace_back(p->dtype, shape);
    }
    for (size_t i = 0; i + 1 < args.size(); ++i) {
        for (int64_t e = 0; e < args[i].numel(); ++e) {
            args[i].at(e) = static_cast<double>((e % 7) - 3);
        }
    }
    std::vector<runtime::NDArray*> ptrs;
    for (auto& a : args) ptrs.push_back(&a);
    runtime::Interpreter interp;
    interp.run(op.func, ptrs);
    double expect = 0;
    for (int64_t e = 0; e < args.back().numel(); ++e) {
        expect += args.back().at(e);
    }
    std::printf("checksum: compiled %.6e vs interpreter %.6e (%s)\n",
                compiled_sum, expect,
                std::abs(compiled_sum - expect) < 1e-3 ? "MATCH"
                                                       : "MISMATCH");
    return std::abs(compiled_sum - expect) < 1e-3 ? 0 : 1;
}
