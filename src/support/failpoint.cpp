#include "support/failpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include "support/env.h"
#include "support/logging.h"
#include "support/rng.h"

namespace tir {
namespace failpoint {

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

enum class Action : uint8_t
{
    kThrow,
    kError,
    kDelay,
    kCorrupt,
};

struct SiteConfig
{
    std::string name;
    Action action = Action::kError;
    double probability = 1.0;
    /** delay: milliseconds; corrupt: bytes to flip. */
    double arg = 0;
    /** Counter-keyed sites: evaluations below this index never fire. */
    uint64_t skip = 0;
};

struct SiteState
{
    SiteConfig config;
    uint64_t counter = 0;
    SiteStats stats;
};

struct Registry
{
    std::mutex mutex;
    std::string spec;
    uint64_t seed = 0x5eed;
    std::vector<SiteState> sites;
};

Registry&
registry()
{
    static Registry r;
    return r;
}

/** FNV-1a over the site name: a platform-independent stream id, so a
 *  (seed, site, key) trigger decision reproduces everywhere. */
uint64_t
siteHash(const std::string& name)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (char ch : name) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Whether evaluation `index` of `site` fires under `config`. Pure
 *  function of (seed, site name, index) — the determinism contract. */
bool
fires(const Registry& r, const SiteConfig& config, uint64_t index)
{
    if (config.probability <= 0) return false;
    Rng rng = Rng::derive(r.seed, siteHash(config.name), index);
    return rng.randDouble() < config.probability;
}

/** A plain decimal — digits, optionally a '.' and more digits — as a
 *  double; nullopt for anything else (a blank, a sign, an exponent, a
 *  hex float, "inf", nothing at all). */
std::optional<double>
parseDecimal(const std::string& text)
{
    const std::string_view view(text);
    const size_t dot = view.find('.');
    if (!support::parseUint(view.substr(0, dot))) return std::nullopt;
    if (dot != std::string_view::npos) {
        const std::string_view fraction = view.substr(dot + 1);
        if (fraction.empty() ||
            fraction.find_first_not_of("0123456789") !=
                std::string_view::npos) {
            return std::nullopt;
        }
    }
    return std::strtod(text.c_str(), nullptr);
}

/** Parse one action token: kind[(p[,arg])][@skip]. */
void
parseAction(const std::string& text, SiteConfig& config)
{
    std::string body = text;
    size_t at = body.rfind('@');
    if (at != std::string::npos) {
        const std::optional<uint64_t> skip =
            support::parseUint(std::string_view(body).substr(at + 1));
        TIR_CHECK(skip) << "failpoint spec: bad @skip in '" << text << "'";
        config.skip = *skip;
        body = body.substr(0, at);
    }
    std::string kind = body;
    size_t paren = body.find('(');
    if (paren != std::string::npos) {
        TIR_CHECK(body.back() == ')')
            << "failpoint spec: unbalanced parens in '" << text << "'";
        kind = body.substr(0, paren);
        std::string params =
            body.substr(paren + 1, body.size() - paren - 2);
        size_t comma = params.find(',');
        const std::optional<double> p = parseDecimal(params.substr(0, comma));
        TIR_CHECK(p && *p <= 1)
            << "failpoint spec: bad probability in '" << text << "'";
        config.probability = *p;
        if (comma != std::string::npos) {
            const std::optional<double> arg =
                parseDecimal(params.substr(comma + 1));
            // Bounded so a delay converts to a duration and a corrupt
            // count to an int without overflow.
            TIR_CHECK(arg && *arg <= std::numeric_limits<int>::max())
                << "failpoint spec: bad argument in '" << text << "'";
            config.arg = *arg;
        }
    }
    if (kind == "throw") {
        config.action = Action::kThrow;
    } else if (kind == "error") {
        config.action = Action::kError;
    } else if (kind == "delay") {
        config.action = Action::kDelay;
        if (config.arg == 0) config.arg = 10; // default 10 ms
    } else if (kind == "corrupt") {
        config.action = Action::kCorrupt;
        if (config.arg == 0) config.arg = 1; // default 1 byte
    } else {
        TIR_FATAL << "failpoint spec: unknown action '" << kind
                  << "' in '" << text << "'";
    }
}

/** Parse a full schedule; throws FatalError without touching state. */
std::pair<uint64_t, std::vector<SiteState>>
parseSpec(const std::string& spec)
{
    uint64_t seed = 0x5eed;
    std::vector<SiteState> sites;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t semi = spec.find(';', pos);
        if (semi == std::string::npos) semi = spec.size();
        std::string entry = spec.substr(pos, semi - pos);
        pos = semi + 1;
        // Trim surrounding whitespace.
        size_t b = entry.find_first_not_of(" \t");
        if (b == std::string::npos) continue;
        size_t e = entry.find_last_not_of(" \t");
        entry = entry.substr(b, e - b + 1);
        size_t eq = entry.find('=');
        TIR_CHECK(eq != std::string::npos && eq > 0)
            << "failpoint spec: expected site=action, got '" << entry
            << "'";
        std::string name = entry.substr(0, eq);
        std::string value = entry.substr(eq + 1);
        if (name == "seed") {
            const std::optional<uint64_t> parsed = support::parseUint(value);
            TIR_CHECK(parsed)
                << "failpoint spec: bad seed '" << value << "'";
            seed = *parsed;
            continue;
        }
        SiteState site;
        site.config.name = name;
        parseAction(value, site.config);
        sites.push_back(std::move(site));
    }
    return {seed, std::move(sites)};
}

/** Look up a site by name; the registry mutex is held by the caller. */
SiteState*
findSite(Registry& r, const char* name)
{
    for (SiteState& site : r.sites) {
        if (site.config.name == name) return &site;
    }
    return nullptr;
}

/** Apply a fired non-corrupt action. Returns true for error-returns. */
bool
applyAction(const SiteConfig& config, uint64_t index)
{
    switch (config.action) {
      case Action::kThrow:
        throw InjectedFault("failpoint '" + config.name +
                            "' fired (evaluation " +
                            std::to_string(index) + ")");
      case Action::kDelay:
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(config.arg));
        return false;
      default:
        // `corrupt` at a plain inject() site degrades to an error
        // return: the caller has no buffer to corrupt.
        return true;
    }
}

/** Reads TENSORIR_FAILPOINTS once at process start; a malformed env
 *  spec warns and disables instead of crashing static init. */
struct EnvSchedule
{
    EnvSchedule()
    {
        try {
            reset();
        } catch (const std::exception& e) {
            std::fprintf(stderr,
                         "tensorir: ignoring TENSORIR_FAILPOINTS: %s\n",
                         e.what());
        }
    }
};
EnvSchedule env_schedule;

} // namespace

bool
evaluate(const char* site_name, bool keyed, uint64_t key)
{
    Registry& r = registry();
    SiteConfig config;
    uint64_t index = 0;
    bool fired = false;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        SiteState* site = findSite(r, site_name);
        if (!site) return false;
        ++site->stats.evaluated;
        index = keyed ? key : site->counter++;
        bool skipped = !keyed && index < site->config.skip;
        fired = !skipped && fires(r, site->config, index);
        if (fired) ++site->stats.fired;
        config = site->config;
    }
    if (!fired) return false;
    return applyAction(config, index);
}

bool
evaluateCorrupt(const char* site_name, std::string& data)
{
    Registry& r = registry();
    SiteConfig config;
    uint64_t index = 0;
    uint64_t seed = 0;
    bool fired = false;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        SiteState* site = findSite(r, site_name);
        if (!site) return false;
        ++site->stats.evaluated;
        index = site->counter++;
        fired = index >= site->config.skip &&
                fires(r, site->config, index);
        if (fired) ++site->stats.fired;
        config = site->config;
        seed = r.seed;
    }
    if (!fired) return false;
    if (config.action != Action::kCorrupt) return applyAction(config, index);
    if (data.empty()) return true;
    // Flip `arg` bytes at deterministically drawn offsets.
    Rng rng = Rng::derive(seed ^ 0xc0ffee, siteHash(config.name), index);
    int flips = std::max(1, static_cast<int>(config.arg));
    for (int i = 0; i < flips; ++i) {
        size_t at = static_cast<size_t>(
            rng.randInt(static_cast<int64_t>(data.size())));
        data[at] = static_cast<char>(data[at] ^
                                     (1u << rng.randInt(8)));
    }
    return true;
}

} // namespace detail

void
configure(const std::string& spec)
{
    auto [seed, sites] = detail::parseSpec(spec); // throws on bad spec
    detail::Registry& r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.spec = spec;
    r.seed = seed;
    r.sites = std::move(sites);
    detail::g_enabled.store(!r.sites.empty(),
                            std::memory_order_release);
}

void
reset()
{
    const char* env = std::getenv("TENSORIR_FAILPOINTS");
    configure(env ? env : "");
}

std::string
currentSpec()
{
    detail::Registry& r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.spec;
}

SiteStats
stats(const std::string& site)
{
    detail::Registry& r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const detail::SiteState& s : r.sites) {
        if (s.config.name == site) return s.stats;
    }
    return {};
}

std::vector<std::pair<std::string, SiteStats>>
allStats()
{
    detail::Registry& r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::pair<std::string, SiteStats>> out;
    for (const detail::SiteState& s : r.sites) {
        out.emplace_back(s.config.name, s.stats);
    }
    return out;
}

} // namespace failpoint
} // namespace tir
