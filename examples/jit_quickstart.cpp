/**
 * @file
 * The native execution tier end to end: schedule a matmul, JIT-compile
 * it (C codegen -> system compiler -> dlopen), verify the native run
 * against the tree-walking oracle bit for bit, and print measured
 * wall-clock for both engines — tree-walker and native — on the same
 * inputs. The engine contract behind this example is documented in
 * docs/EXECUTION.md.
 */
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "runtime/jit.h"
#include "te/te.h"
#include "tir/schedule.h"

using namespace tir;

namespace {

PrimFunc
matmul(int64_t n)
{
    te::Builder builder;
    Buffer a = builder.placeholder("A", {n, n});
    Buffer b = builder.placeholder("B", {n, n});
    Buffer c = builder.sumReduce(
        "C", {n, n}, {n},
        [&](const std::vector<Var>& s, const std::vector<Var>& r) {
            return bufferLoad(a, {s[0], r[0]}) *
                   bufferLoad(b, {r[0], s[1]});
        });
    return builder.build("matmul", {c});
}

std::vector<runtime::NDArray>
randomArgs(const PrimFunc& func)
{
    Rng rng(42);
    std::vector<runtime::NDArray> args;
    for (const Buffer& p : func->params) {
        std::vector<int64_t> shape;
        for (size_t d = 0; d < p->ndim(); ++d) {
            shape.push_back(p->shapeInt(d));
        }
        args.emplace_back(p->dtype, shape);
        args.back().fillRandom(rng);
    }
    return args;
}

std::vector<runtime::NDArray*>
ptrs(std::vector<runtime::NDArray>& args)
{
    std::vector<runtime::NDArray*> out;
    for (runtime::NDArray& a : args) out.push_back(&a);
    return out;
}

double
secondsOf(int repeats, const std::function<void()>& fn)
{
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < repeats; ++i) fn();
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    return dt.count() / repeats;
}

} // namespace

int
main()
{
    const int64_t n = 128;
    PrimFunc original = matmul(n);
    // A simple tiled schedule, as the tuner would produce.
    Schedule sch(original);
    std::vector<Var> loops = sch.getLoops("C");
    std::vector<Var> i_split = sch.split(loops[0], {-1, 8});
    std::vector<Var> j_split = sch.split(loops[1], {-1, 8});
    sch.reorder({i_split[0], j_split[0], i_split[1], j_split[1]});
    PrimFunc func = sch.func();

    if (!runtime::jitAvailable()) {
        std::printf("no working C compiler (set TENSORIR_CC); only "
                    "the tree-walker can run here\n");
        return 0;
    }

    // Compile once; the object lands in the on-disk cache keyed by
    // structural hash + compiler identity.
    auto compile_start = std::chrono::steady_clock::now();
    std::shared_ptr<const runtime::JitModule> mod =
        runtime::jitCompile(func);
    std::chrono::duration<double> compile_dt =
        std::chrono::steady_clock::now() - compile_start;
    if (!mod) {
        std::printf("JIT compilation failed\n");
        return 1;
    }
    std::printf("jit-compiled %s in %.0f ms -> %s\n",
                func->name.c_str(), compile_dt.count() * 1e3,
                mod->objectPath().c_str());

    // Correctness first: native output must equal the oracle's bit for
    // bit on this machine (docs/EXECUTION.md scopes that claim).
    std::vector<runtime::NDArray> jit_args = randomArgs(func);
    std::vector<runtime::NDArray> tw_args = randomArgs(func);
    std::vector<runtime::NDArray*> jit_ptrs = ptrs(jit_args);
    std::vector<runtime::NDArray*> tw_ptrs = ptrs(tw_args);
    mod->run(jit_ptrs);
    runtime::Interpreter interp;
    interp.run(func, tw_ptrs);
    double diff = jit_args.back().maxAbsDiff(tw_args.back());
    std::printf("max |native - oracle| = %g (%s)\n", diff,
                diff == 0.0 ? "bit-exact" : "DIVERGED");
    if (diff != 0.0) return 1;

    // Wall-clock, same inputs, one engine at a time. The compiled
    // module is reused across repeats, as a repeated caller (a
    // benchmark loop) would hold it.
    double tw_s = secondsOf(1, [&] {
        runtime::Interpreter i2;
        i2.run(func, jit_ptrs);
    });
    double jit_s = secondsOf(50, [&] { mod->run(jit_ptrs); });

    std::printf("tree-walker: %9.3f ms\n", tw_s * 1e3);
    std::printf("native JIT : %9.3f ms  (%.0fx vs oracle)\n",
                jit_s * 1e3, tw_s / jit_s);
    return 0;
}
