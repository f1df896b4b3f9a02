/**
 * @file
 * The failpoint framework: spec parsing, deterministic seeded triggers,
 * the zero-cost disabled path, counter- vs data-keyed sites, @skip,
 * byte corruption, and stats accounting.
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "support/failpoint.h"
#include "support/logging.h"

namespace tir {
namespace {

/** Every test leaves the global registry the way it found it. */
class FailpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = failpoint::currentSpec(); }
    void TearDown() override { failpoint::configure(saved_); }

  private:
    std::string saved_;
};

TEST_F(FailpointTest, DisabledPathIsInert)
{
    failpoint::configure("");
    EXPECT_FALSE(failpoint::enabled());
    // No schedule: sites never fire, never throw, never touch stats.
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(failpoint::inject("some.site"));
        EXPECT_FALSE(failpoint::inject("some.site", 42));
    }
    std::string data = "payload";
    EXPECT_FALSE(failpoint::injectCorrupt("some.site", data));
    EXPECT_EQ(data, "payload");
    EXPECT_EQ(failpoint::stats("some.site").evaluated, 0u);
}

TEST_F(FailpointTest, UnconfiguredSitesStayInertUnderASchedule)
{
    failpoint::configure("other.site=throw");
    EXPECT_TRUE(failpoint::enabled());
    EXPECT_FALSE(failpoint::inject("some.site"));
    EXPECT_THROW(failpoint::inject("other.site"),
                 failpoint::InjectedFault);
}

TEST_F(FailpointTest, SeededTriggersAreDeterministic)
{
    // The same (seed, site, probability) schedule fires on the same
    // evaluation indices, run after run.
    auto firedSet = [&] {
        failpoint::configure("seed=99; chaos.site=error(0.3)");
        std::set<int> fired;
        for (int i = 0; i < 200; ++i) {
            if (failpoint::inject("chaos.site")) fired.insert(i);
        }
        return fired;
    };
    std::set<int> first = firedSet();
    std::set<int> second = firedSet();
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty()) << "p=0.3 over 200 draws never fired";
    EXPECT_LT(first.size(), 200u) << "p=0.3 fired every single time";

    // A different seed draws a different set.
    failpoint::configure("seed=100; chaos.site=error(0.3)");
    std::set<int> other;
    for (int i = 0; i < 200; ++i) {
        if (failpoint::inject("chaos.site")) other.insert(i);
    }
    EXPECT_NE(first, other);
}

TEST_F(FailpointTest, DataKeyedTriggerIsPureFunctionOfKey)
{
    failpoint::configure("seed=7; keyed.site=error(0.5)");
    // Call order must not matter for keyed sites: the decision is a
    // pure function of (seed, site, key) — the property that keeps
    // chaos schedules parallelism-invariant in the search.
    std::vector<bool> forward;
    for (uint64_t k = 0; k < 64; ++k) {
        forward.push_back(failpoint::inject("keyed.site", k));
    }
    std::vector<bool> backward(64);
    for (uint64_t k = 64; k-- > 0;) {
        backward[k] = failpoint::inject("keyed.site", k);
    }
    EXPECT_EQ(forward, backward);
}

TEST_F(FailpointTest, SkipSuppressesEarlyEvaluations)
{
    // `throw(1)@3` is the "crash exactly at the N-th call" tool: the
    // first three evaluations pass, the fourth throws.
    failpoint::configure("crash.site=throw(1)@3");
    EXPECT_FALSE(failpoint::inject("crash.site"));
    EXPECT_FALSE(failpoint::inject("crash.site"));
    EXPECT_FALSE(failpoint::inject("crash.site"));
    EXPECT_THROW(failpoint::inject("crash.site"),
                 failpoint::InjectedFault);
}

TEST_F(FailpointTest, CorruptFlipsBytesDeterministically)
{
    failpoint::configure("seed=5; disk.site=corrupt(1,3)");
    std::string original(256, 'x');
    std::string a = original;
    EXPECT_TRUE(failpoint::injectCorrupt("disk.site", a));
    EXPECT_NE(a, original) << "corrupt action left the buffer intact";
    EXPECT_EQ(a.size(), original.size());
    // Same schedule, same evaluation index, same buffer → same damage.
    failpoint::configure("seed=5; disk.site=corrupt(1,3)");
    std::string b = original;
    EXPECT_TRUE(failpoint::injectCorrupt("disk.site", b));
    EXPECT_EQ(a, b);
}

TEST_F(FailpointTest, CorruptAtPlainSiteDegradesToError)
{
    failpoint::configure("plain.site=corrupt");
    EXPECT_TRUE(failpoint::inject("plain.site"));
}

TEST_F(FailpointTest, StatsCountEvaluationsAndFires)
{
    failpoint::configure("seed=3; counted.site=error(0.5)");
    uint64_t fired = 0;
    for (int i = 0; i < 100; ++i) {
        if (failpoint::inject("counted.site")) ++fired;
    }
    failpoint::SiteStats stats = failpoint::stats("counted.site");
    EXPECT_EQ(stats.evaluated, 100u);
    EXPECT_EQ(stats.fired, fired);
    EXPECT_GT(stats.fired, 0u);
    auto all = failpoint::allStats();
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].first, "counted.site");
    EXPECT_EQ(all[0].second.evaluated, 100u);
}

TEST_F(FailpointTest, MalformedSpecsThrowAndLeaveScheduleIntact)
{
    failpoint::configure("keep.site=error");
    EXPECT_THROW(failpoint::configure("no_equals_sign"), FatalError);
    EXPECT_THROW(failpoint::configure("x=unknownkind"), FatalError);
    EXPECT_THROW(failpoint::configure("x=error(1.5)"), FatalError);
    EXPECT_THROW(failpoint::configure("x=error(0.5"), FatalError);
    EXPECT_THROW(failpoint::configure("x=delay(1,inf)"), FatalError);
    EXPECT_THROW(failpoint::configure("x=corrupt(1,1e10)"), FatalError);
    EXPECT_THROW(failpoint::configure("x=throw@abc"), FatalError);
    EXPECT_THROW(failpoint::configure("seed=abc"), FatalError);
    // The previous schedule survived every failed configure.
    EXPECT_EQ(failpoint::currentSpec(), "keep.site=error");
    EXPECT_TRUE(failpoint::inject("keep.site"));
}

TEST_F(FailpointTest, ScopedFailpointsRestoresOnExit)
{
    failpoint::configure("outer.site=error");
    {
        failpoint::ScopedFailpoints scoped("inner.site=error");
        EXPECT_TRUE(failpoint::inject("inner.site"));
        EXPECT_FALSE(failpoint::inject("outer.site"));
    }
    EXPECT_EQ(failpoint::currentSpec(), "outer.site=error");
    EXPECT_TRUE(failpoint::inject("outer.site"));
    EXPECT_FALSE(failpoint::inject("inner.site"));
}

TEST_F(FailpointTest, DelayActionSleepsThenDoesNotFire)
{
    failpoint::configure("slow.site=delay(1,5)");
    // A delay site slows the caller but reports "not fired": the
    // caller's logic is unaffected, only its wall-clock (the tool for
    // timeout and interleaving tests).
    EXPECT_FALSE(failpoint::inject("slow.site"));
    EXPECT_EQ(failpoint::stats("slow.site").fired, 1u);
}

} // namespace
} // namespace tir
