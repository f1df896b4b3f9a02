/**
 * @file
 * Exact double round-tripping for line-oriented persistence formats:
 * a double is written as its 16-hex-digit IEEE-754 bit pattern, so a
 * save/load cycle reproduces the value bit for bit (including NaN
 * payloads, signed zero, and subnormals). The one double codec of the
 * tuning journal (meta/journal.cpp), the tuning database
 * (meta/database.cpp) and the runner pipe (meta/runner.cpp); a decimal
 * rendering may ride alongside for human readers but is never the
 * parsed value.
 */
#ifndef TENSORIR_SUPPORT_DOUBLE_BITS_H
#define TENSORIR_SUPPORT_DOUBLE_BITS_H

#include <charconv>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

namespace tir {
namespace support {

/** The 16-hex-digit IEEE-754 bit pattern of `value`. */
inline std::string
doubleBitsHex(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
    return buf;
}

/** Parse a doubleBitsHex() string into `*value`; false (leaving
 *  `*value` alone) unless `hex` is a 16-digit lowercase pattern. */
inline bool
doubleFromBitsHex(std::string_view hex, double* value)
{
    if (hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
        return false;
    }
    uint64_t bits = 0;
    std::from_chars(hex.data(), hex.data() + hex.size(), bits, 16);
    std::memcpy(value, &bits, sizeof(*value));
    return true;
}

/** Shortest decimal rendering that still identifies the double for a
 *  human reader ("%.17g" guarantees uniqueness; shorter forms win when
 *  they round-trip). Display only — parsers read the bit pattern. */
inline std::string
doubleReadable(double value)
{
    char buf[40];
    for (int precision : {6, 9, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
        double back = std::strtod(buf, nullptr);
        uint64_t a = 0;
        uint64_t b = 0;
        std::memcpy(&a, &back, sizeof(a));
        std::memcpy(&b, &value, sizeof(b));
        if (a == b) break;
    }
    return buf;
}

} // namespace support
} // namespace tir

#endif // TENSORIR_SUPPORT_DOUBLE_BITS_H
