/**
 * @file
 * Seeded, bounded fuzz of the configuration parsers: the failpoint
 * schedule grammar (failpoint::configure, read from
 * TENSORIR_FAILPOINTS) and the strict environment parsers every numeric
 * or flag TENSORIR_* knob goes through (support::envUint,
 * support::envFlag). Inputs are valid schedules and values damaged the
 * way the persistence fuzz damages records (testutil::damage: byte
 * flips, truncations, splices) plus random strings. Properties: no
 * crash and no hang; configure accepts exactly the schedules a
 * reference grammar (regular expressions plus range checks) accepts,
 * and a rejected schedule throws FatalError and leaves the previous
 * schedule in force; envUint accepts exactly the non-empty, all-digit,
 * in-range strings and returns their value; envFlag accepts exactly
 * "1", "0", "on" and "off".
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "support/env.h"
#include "support/failpoint.h"
#include "support/logging.h"
#include "support/rng.h"

#include "test_util.h"

namespace tir {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

/** A random string of up to 24 characters: mostly from `alphabet`,
 *  sometimes any byte but NUL (environment values cannot hold one). */
std::string
randomText(Rng& rng, const std::string& alphabet)
{
    std::string out;
    for (int64_t n = rng.randInt(25); n > 0; --n) {
        if (rng.randInt(8) == 0) {
            out += static_cast<char>(1 + rng.randInt(255));
        } else {
            out += alphabet[static_cast<size_t>(
                rng.randInt(static_cast<int64_t>(alphabet.size())))];
        }
    }
    return out;
}

/** Input `i` of a fuzz round, in turn: a corpus entry as it is, a
 *  damaged corpus entry, a random string. */
std::string
fuzzInput(const std::vector<std::string>& corpus,
          const std::string& alphabet, Rng& rng, int i)
{
    if (i % 3 == 2) return randomText(rng, alphabet);
    const std::string& seed = corpus[static_cast<size_t>(
        rng.randInt(static_cast<int64_t>(corpus.size())))];
    return i % 3 == 0 ? seed : testutil::damage(seed, rng);
}

/** `text` as the environment stores it: cut at the first NUL (a byte
 *  flip can make one). */
std::string
envValue(std::string text)
{
    text.resize(std::min(text.size(), text.find('\0')));
    return text;
}

/** The reference envUint grammar: the value of a non-empty, all-digit
 *  string that fits in 64 bits; nullopt for anything else. */
std::optional<uint64_t>
referenceUint(const std::string& text)
{
    if (text.empty()) return std::nullopt;
    uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9') return std::nullopt;
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (kMax - digit) / 10) return std::nullopt;
        value = value * 10 + digit;
    }
    return value;
}

/** The reference failpoint grammar (support/failpoint.h): whether
 *  failpoint::configure must accept `spec`. Entries are split on ';'
 *  and trimmed of blanks and tabs; an action is a kind, optional plain
 *  decimal parameters and an optional @skip. */
bool
referenceSpecValid(const std::string& spec)
{
    static const std::regex action(
        "(throw|error|delay|corrupt)"
        "(\\(([0-9]+(\\.[0-9]+)?)(,([0-9]+(\\.[0-9]+)?))?\\))?"
        "(@([0-9]+))?");
    size_t pos = 0;
    while (pos <= spec.size()) {
        const size_t end = std::min(spec.find(';', pos), spec.size());
        std::string entry = spec.substr(pos, end - pos);
        pos = end + 1;
        const size_t first = entry.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        const size_t last = entry.find_last_not_of(" \t");
        entry = entry.substr(first, last + 1 - first);
        const size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0) return false;
        const std::string value = entry.substr(eq + 1);
        if (entry.substr(0, eq) == "seed") {
            if (!referenceUint(value)) return false;
            continue;
        }
        std::smatch m;
        if (!std::regex_match(value, m, action)) return false;
        if (m[3].matched && std::stod(m[3].str()) > 1) return false;
        if (m[6].matched &&
            std::stod(m[6].str()) > std::numeric_limits<int>::max()) {
            return false;
        }
        if (m[9].matched && !referenceUint(m[9].str())) return false;
    }
    return true;
}

class ConfigFuzzTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = failpoint::currentSpec(); }
    void TearDown() override { failpoint::configure(saved_); }

  private:
    std::string saved_;
};

TEST_F(ConfigFuzzTest, FailpointGrammarRejectsWithoutSideEffects)
{
    const std::vector<std::string> corpus = {
        "seed=7; search.instantiate=throw(0.05); "
        "search.evaluate=error(0.05)",
        "seed=3; thread_pool.claim=delay(0.2,1)",
        "jit.compile=delay(1,50)",
        "journal.append=corrupt(1,3)@2; interp.run=error(1)",
        "a=throw; b=error(0.5)@10; seed=42",
        "  x.y=error  ;  ; z=corrupt@0",
    };
    const std::string alphabet = "abxyz._=;()@,0123456789 .eE+-\t";
    const std::string keep = "keep.site=error(0.5)@1";
    Rng rng(0xfa11);
    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < 4000; ++i) {
        std::string spec = fuzzInput(corpus, alphabet, rng, i);
        failpoint::configure(keep);
        const bool valid = referenceSpecValid(spec);
        try {
            failpoint::configure(spec);
        } catch (const FatalError&) {
            ASSERT_NE(i % 3, 0) << "valid spec rejected: " << spec;
            ASSERT_FALSE(valid) << "valid spec rejected: " << spec;
            ++rejected;
            ASSERT_EQ(failpoint::currentSpec(), keep)
                << "rejected spec changed the schedule: " << spec;
            ASSERT_EQ(failpoint::allStats().size(), 1u) << spec;
            continue;
        }
        ASSERT_TRUE(valid) << "invalid spec accepted: " << spec;
        ++accepted;
        ASSERT_EQ(failpoint::currentSpec(), spec);
        // An accepted schedule configures again to the same sites.
        const size_t sites = failpoint::allStats().size();
        failpoint::configure(spec);
        ASSERT_EQ(failpoint::allStats().size(), sites) << spec;
    }
    // Damage and noise must reach both outcomes, or they have drifted
    // away from the grammar (a third of the inputs are valid specs).
    EXPECT_GT(accepted, 1333 + 100);
    EXPECT_GT(rejected, 1000);
}

TEST_F(ConfigFuzzTest, EnvUintAcceptsExactlyInRangeDigitStrings)
{
    const std::vector<std::string> corpus = {
        "0",        "1",        "42",      "00012",      "4096",
        "86400000", "10000",    "65536",   "4294967296",
        "18446744073709551615", "18446744073709551616",
        "99999999999999999999999",
    };
    const std::string alphabet = "0123456789+- x.e";
    struct Range
    {
        uint64_t min_value;
        uint64_t max_value;
    };
    const std::vector<Range> ranges = {
        {0, kMax}, {1, 1024}, {0, 86400000}, {0, 100}, {4096, 4096},
    };
    testutil::ScopedEnv unset("TENSORIR_FUZZ_VALUE", nullptr);
    Rng rng(0xe1);
    int accepted = 0;
    for (int i = 0; i < 4000; ++i) {
        std::string text = envValue(fuzzInput(corpus, alphabet, rng, i));
        const Range& r = ranges[static_cast<size_t>(
            rng.randInt(static_cast<int64_t>(ranges.size())))];
        testutil::ScopedEnv env("TENSORIR_FUZZ_VALUE", text.c_str());
        if (text.empty()) {
            // Empty means unset: the caller's fallback, unchecked.
            EXPECT_EQ(support::envUint("TENSORIR_FUZZ_VALUE", 7,
                                       r.min_value, r.max_value),
                      7u);
            continue;
        }
        std::optional<uint64_t> value = referenceUint(text);
        if (value && *value >= r.min_value && *value <= r.max_value) {
            ++accepted;
            EXPECT_EQ(support::envUint("TENSORIR_FUZZ_VALUE", 7,
                                       r.min_value, r.max_value),
                      *value)
                << "\"" << text << "\"";
        } else {
            EXPECT_THROW(support::envUint("TENSORIR_FUZZ_VALUE", 7,
                                          r.min_value, r.max_value),
                         FatalError)
                << "\"" << text << "\"";
        }
    }
    EXPECT_GT(accepted, 500);
}

TEST_F(ConfigFuzzTest, EnvFlagAcceptsExactlyTheFourSpellings)
{
    const std::vector<std::string> corpus = {"1", "0", "on", "off"};
    const std::string alphabet = "01onfONF ";
    Rng rng(0xf1a9);
    int accepted = 0;
    for (int i = 0; i < 4000; ++i) {
        std::string text = envValue(fuzzInput(corpus, alphabet, rng, i));
        testutil::ScopedEnv env("TENSORIR_FUZZ_VALUE", text.c_str());
        if (text.empty()) {
            EXPECT_TRUE(support::envFlag("TENSORIR_FUZZ_VALUE", true));
            EXPECT_FALSE(support::envFlag("TENSORIR_FUZZ_VALUE", false));
        } else if (text == "1" || text == "on") {
            ++accepted;
            EXPECT_TRUE(support::envFlag("TENSORIR_FUZZ_VALUE", false));
        } else if (text == "0" || text == "off") {
            ++accepted;
            EXPECT_FALSE(support::envFlag("TENSORIR_FUZZ_VALUE", true));
        } else {
            EXPECT_THROW(support::envFlag("TENSORIR_FUZZ_VALUE", false),
                         FatalError)
                << "\"" << text << "\"";
        }
    }
    EXPECT_GT(accepted, 1000);
}

} // namespace
} // namespace tir
