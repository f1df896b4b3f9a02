/**
 * @file
 * Binary-wide test environment: unless TENSORIR_JIT_CACHE is set, every
 * test compiles native code into a private cache directory under
 * ::testing::TempDir(), removed when the run ends. Tests that tune with
 * measure_backend = "jit" or compile kernels through the native tier
 * would otherwise fill the user's default cache
 * (runtime::jitCacheDir()). Forked measurement workers inherit the
 * setting.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

#include "test_util.h"

namespace tir {
namespace {

class PrivateJitCache : public ::testing::Environment
{
  public:
    void
    SetUp() override
    {
        const char* set = std::getenv("TENSORIR_JIT_CACHE");
        if (set && *set) return;
        dir_.emplace();
        env_.emplace("TENSORIR_JIT_CACHE", dir_->path().c_str());
    }

    void
    TearDown() override
    {
        env_.reset();
        dir_.reset();
    }

  private:
    std::optional<testutil::ScopedTempDir> dir_;
    std::optional<testutil::ScopedEnv> env_;
};

const ::testing::Environment* const kPrivateJitCache =
    ::testing::AddGlobalTestEnvironment(new PrivateJitCache);

} // namespace
} // namespace tir
