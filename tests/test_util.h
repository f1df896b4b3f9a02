/**
 * @file
 * Shared test helpers: build common workloads and sketches, check that
 * a transformed function computes the same values as the original,
 * scope an environment variable or a temporary directory, damage text
 * for the fuzz tests, and read a trace summary.
 */
#ifndef TENSORIR_TESTS_TEST_UTIL_H
#define TENSORIR_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "meta/sketch.h"
#include "runtime/interpreter.h"
#include "support/rng.h"
#include "te/te.h"

namespace tir {
namespace testutil {

/** Set an environment variable for one scope, restoring the previous
 *  value (or unsetting) on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (const char* old = std::getenv(name)) saved_ = old;
        if (value) {
            ::setenv(name, value, 1);
        } else {
            ::unsetenv(name);
        }
    }
    ~ScopedEnv()
    {
        if (saved_) {
            ::setenv(name_.c_str(), saved_->c_str(), 1);
        } else {
            ::unsetenv(name_.c_str());
        }
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    std::string name_;
    std::optional<std::string> saved_;
};

/** A fresh directory under ::testing::TempDir() (mkdtemp), removed
 *  with everything in it on scope exit, so a test run leaves nothing
 *  behind in the temp directory. */
class ScopedTempDir
{
  public:
    ScopedTempDir()
    {
        // TempDir() is TEST_TMPDIR verbatim when that is set (no
        // trailing slash), "/tmp/" otherwise.
        std::string tmpl = ::testing::TempDir();
        if (tmpl.empty() || tmpl.back() != '/') tmpl += '/';
        tmpl += "tensorir-test-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (!::mkdtemp(buf.data())) {
            throw std::runtime_error("mkdtemp failed for " + tmpl);
        }
        path_ = buf.data();
    }
    ~ScopedTempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScopedTempDir(const ScopedTempDir&) = delete;
    ScopedTempDir& operator=(const ScopedTempDir&) = delete;

    const std::string& path() const { return path_; }
    /** Path of `name` inside the directory. */
    std::string file(const std::string& name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

/** The first number on the line of a trace::summaryText() roll-up
 *  that starts with `label` (a span name, or "counter <name>"); 0 when
 *  there is no such line. */
inline int64_t
summaryValue(const std::string& summary, const std::string& label)
{
    size_t at = summary.find("\n  " + label + " ");
    if (at == std::string::npos) return 0;
    return std::stoll(summary.substr(at + 3 + label.size()));
}

/** One random damage to a non-empty `text`, the fuzz tests' mutation:
 *  flip a few bytes, truncate, or splice a chunk of the text into
 *  another place. */
inline std::string
damage(const std::string& text, Rng& rng)
{
    std::string out = text;
    switch (rng.randInt(3)) {
      case 0:
        for (int64_t n = 1 + rng.randInt(4); n > 0; --n) {
            out[static_cast<size_t>(rng.randInt(
                static_cast<int64_t>(out.size())))] ^=
                static_cast<char>(1 + rng.randInt(255));
        }
        break;
      case 1:
        out.resize(static_cast<size_t>(
            rng.randInt(static_cast<int64_t>(out.size()))));
        break;
      default: {
        size_t from = static_cast<size_t>(
            rng.randInt(static_cast<int64_t>(text.size())));
        size_t len = static_cast<size_t>(
            1 + rng.randInt(static_cast<int64_t>(
                    std::min<size_t>(256, text.size() - from))));
        size_t to = static_cast<size_t>(
            rng.randInt(static_cast<int64_t>(out.size()) + 1));
        out.insert(to, text.substr(from, len));
      }
    }
    return out;
}

/** Build a plain matmul C[n,m] = A[n,k] * B[k,m]. */
inline PrimFunc
matmul(int64_t n, int64_t m, int64_t k,
       DataType dtype = DataType::f32())
{
    te::Builder builder;
    Buffer a = builder.placeholder("A", {n, k}, dtype);
    Buffer b = builder.placeholder("B", {k, m}, dtype);
    Buffer c = builder.sumReduce(
        "C", {n, m}, {k},
        [&](const std::vector<Var>& s, const std::vector<Var>& r) {
            return bufferLoad(a, {s[0], r[0]}) *
                   bufferLoad(b, {r[0], s[1]});
        },
        dtype);
    return builder.build("matmul", {c});
}

/** Build matmul followed by relu (the paper's Figure 8 workload). */
inline PrimFunc
matmulRelu(int64_t n, int64_t m, int64_t k)
{
    te::Builder builder;
    Buffer a = builder.placeholder("A", {n, k});
    Buffer b = builder.placeholder("B", {k, m});
    Buffer c = builder.sumReduce(
        "C", {n, m}, {k},
        [&](const std::vector<Var>& s, const std::vector<Var>& r) {
            return bufferLoad(a, {s[0], r[0]}) *
                   bufferLoad(b, {r[0], s[1]});
        });
    Buffer d = builder.compute(
        "D", {n, m},
        [&](const std::vector<Var>& v) {
            return maxExpr(bufferLoad(c, {v[0], v[1]}), floatImm(0.0));
        });
    return builder.build("matmul_relu", {d});
}

/**
 * A sketch family for the 32x32x32 GMM (workloads::gmm) where one
 * categorical decision picks the loop of block "C" to bind to
 * threadIdx.x: the reduction choice races (static analysis filters and
 * counts it), the two spatial choices are clean. Three distinct
 * structures in all.
 */
inline meta::SketchApplier
racyBindingSketch()
{
    return [](Schedule& sch) {
        std::vector<Var> loops = sch.getLoops("C");
        int64_t choice =
            sch.sampleCategorical({0, 1, 2}, {1.0, 1.0, 1.0});
        sch.bind(loops[static_cast<size_t>(choice)], "threadIdx.x");
    };
}

/**
 * Run `candidate` and `reference` on identical random inputs and compare
 * every output buffer. Both functions must share the parameter list
 * layout (same count, shapes, dtypes, same input/output split).
 */
inline void
expectSameResults(const PrimFunc& candidate, const PrimFunc& reference,
                  int num_outputs = 1, double tolerance = 1e-6,
                  uint64_t seed = 123)
{
    ASSERT_EQ(candidate->params.size(), reference->params.size());
    Rng rng(seed);
    std::vector<runtime::NDArray> ref_args =
        runtime::seededArguments(reference, rng);
    std::vector<runtime::NDArray> cand_args = ref_args;
    std::vector<runtime::NDArray*> cand_ptrs;
    std::vector<runtime::NDArray*> ref_ptrs;
    for (auto& a : cand_args) cand_ptrs.push_back(&a);
    for (auto& a : ref_args) ref_ptrs.push_back(&a);

    runtime::Interpreter().run(candidate, cand_ptrs);
    runtime::Interpreter().run(reference, ref_ptrs);

    size_t first_output = reference->params.size() -
                          static_cast<size_t>(num_outputs);
    for (size_t i = first_output; i < reference->params.size(); ++i) {
        double diff = cand_args[i].maxAbsDiff(ref_args[i]);
        EXPECT_LE(diff, tolerance)
            << "output " << i << " diverged after scheduling";
    }
}

} // namespace testutil
} // namespace tir

#endif // TENSORIR_TESTS_TEST_UTIL_H
