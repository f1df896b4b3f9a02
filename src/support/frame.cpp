#include "support/frame.h"

#include <array>
#include <charconv>
#include <cstdint>
#include <cstdio>

#include "support/logging.h"

namespace tir {
namespace support {

namespace {

/** CRC-32 (IEEE 802.3, reflected polynomial 0xedb88320). */
uint32_t
crc32(std::string_view data)
{
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            }
            t[i] = c;
        }
        return t;
    }();
    uint32_t crc = 0xffffffffu;
    for (char ch : data) {
        crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xff] ^
              (crc >> 8);
    }
    return crc ^ 0xffffffffu;
}

constexpr std::string_view kTrailerTag = "crc ";

/** Parse a trailer line's fields ("<length> <8 hex>", tag and newline
 *  stripped); false unless it has exactly that shape. */
bool
parseTrailer(std::string_view fields, size_t* length, uint32_t* crc)
{
    const char* end = fields.data() + fields.size();
    auto [p, ec] = std::from_chars(fields.data(), end, *length);
    if (ec != std::errc() || p == fields.data() || p == end ||
        *p != ' ' || end - (p + 1) != 8) {
        return false;
    }
    auto [q, ec2] = std::from_chars(p + 1, end, *crc, 16);
    return ec2 == std::errc() && q == end;
}

} // namespace

std::string
frame(std::string_view body)
{
    TIR_ICHECK(!body.empty() && body.back() == '\n')
        << "a frame body must end with a newline";
    char trailer[40];
    std::snprintf(trailer, sizeof(trailer), "crc %zu %08x\n", body.size(),
                  crc32(body));
    std::string out(body);
    out += trailer;
    return out;
}

FrameScan
scanFrame(std::string_view buffer, size_t pos)
{
    FrameScan scan;
    for (size_t line = pos; line < buffer.size();) {
        size_t nl = buffer.find('\n', line);
        if (nl == std::string_view::npos) break; // trailer not yet whole
        if (buffer.substr(line, kTrailerTag.size()) != kTrailerTag) {
            line = nl + 1;
            continue;
        }
        scan.end = nl + 1;
        size_t length = 0;
        uint32_t crc = 0;
        const size_t fields = line + kTrailerTag.size();
        if (parseTrailer(buffer.substr(fields, nl - fields), &length,
                         &crc) &&
            length <= line - pos &&
            crc32(buffer.substr(line - length, length)) == crc) {
            scan.status = FrameScan::Status::kComplete;
            scan.body = buffer.substr(line - length, length);
        } else {
            scan.status = FrameScan::Status::kDamaged;
        }
        return scan;
    }
    return scan;
}

} // namespace support
} // namespace tir
