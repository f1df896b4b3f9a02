#include "support/env.h"

#include <cstdlib>
#include <string>

#include "support/logging.h"

namespace tir {
namespace support {

std::optional<uint64_t>
parseUint(std::string_view text)
{
    if (text.empty()) return std::nullopt;
    constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
    uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9') return std::nullopt;
        const auto digit = static_cast<uint64_t>(c - '0');
        if (value > (kMax - digit) / 10) return std::nullopt;
        value = value * 10 + digit;
    }
    return value;
}

uint64_t
envUint(const char* name, uint64_t fallback, uint64_t min_value,
        uint64_t max_value)
{
    const char* env = std::getenv(name);
    if (!env || !*env) return fallback;
    const std::optional<uint64_t> value = parseUint(env);
    TIR_CHECK(value && *value >= min_value && *value <= max_value)
        << name << "=\"" << env
        << "\" is not an unsigned decimal integer in " << min_value
        << ".." << max_value;
    return *value;
}

bool
envFlag(const char* name, bool fallback)
{
    const char* env = std::getenv(name);
    if (!env || !*env) return fallback;
    const std::string text(env);
    if (text == "1" || text == "on") return true;
    if (text == "0" || text == "off") return false;
    TIR_FATAL << name << "=\"" << env
              << "\" is not a flag (expected 1, 0, on, or off)";
    return fallback; // unreachable; TIR_FATAL throws
}

} // namespace support
} // namespace tir
