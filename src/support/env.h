/**
 * @file
 * Strict environment-variable parsing, shared by every TENSORIR_* knob
 * that takes a number or a flag. History says std::atoi here is a bug
 * factory: it mapped garbage ("abc", "8x") and overflow to 0 or
 * undefined behaviour and silently fell through to a default, so a
 * typo'd setting quietly changed the thread count or cache bound
 * instead of failing. These helpers reject loudly: a set-but-malformed
 * variable raises FatalError naming the variable and the offending
 * value; only an *unset or empty* variable yields the fallback.
 *
 * Numeric grammar (parseUint, shared with the failpoint schedule):
 * decimal digits only (no sign, no whitespace, no suffix), so a
 * leading '-' cannot wrap to a huge positive value, and at most
 * UINT64_MAX; envUint then applies a caller-supplied [min, max] range
 * check.
 *
 * Flag grammar: exactly "1"/"on" (true) or "0"/"off" (false).
 */
#ifndef TENSORIR_SUPPORT_ENV_H
#define TENSORIR_SUPPORT_ENV_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace tir {
namespace support {

/** `text` as an unsigned decimal integer: non-empty, digits only,
 *  and at most UINT64_MAX; nullopt for anything else (a sign, a blank,
 *  a suffix, overflow). */
std::optional<uint64_t> parseUint(std::string_view text);

/** Parse env var `name` as an unsigned integer in [min_value,
 *  max_value]. Unset or empty returns `fallback` (which is not range
 *  checked — callers own their defaults). Garbage, a sign character,
 *  overflow, or an out-of-range value raise FatalError. */
uint64_t envUint(const char* name, uint64_t fallback,
                 uint64_t min_value = 0,
                 uint64_t max_value =
                     std::numeric_limits<uint64_t>::max());

/** Parse env var `name` as a flag: "1"/"on" → true, "0"/"off" → false.
 *  Unset or empty returns `fallback`; anything else ("true", "yes",
 *  "ON", …) raises FatalError — an unrecognised spelling must not
 *  silently pick a default with a different meaning. */
bool envFlag(const char* name, bool fallback);

} // namespace support
} // namespace tir

#endif // TENSORIR_SUPPORT_ENV_H
