/**
 * @file
 * The one record framing of every persisted or piped format: the
 * checkpoint journal (meta/journal.h), the tuning database file
 * (meta/database.h) and the measurement runner's worker pipe
 * (meta/runner.h).
 *
 * A frame is a newline-terminated text body followed by a trailer line
 *
 *     crc <body length> <CRC-32 of the body, 8 hex digits>
 *
 * The length lets a scanner find where a body starts from its trailer
 * alone, so bytes that belong to no frame (debris between records,
 * leading junk) cost no following record; the checksum catches a torn
 * or corrupted body. A scan reports one of three outcomes: a verified
 * body, an incomplete buffer (no trailer line yet: a pipe should read
 * more, a file ends in a torn record), or a damaged frame (a trailer
 * whose length or checksum does not match the bytes before it). A
 * frame whose "crc " tag itself is destroyed reads as stray bytes, so
 * it is lost without being reported as damage.
 */
#ifndef TENSORIR_SUPPORT_FRAME_H
#define TENSORIR_SUPPORT_FRAME_H

#include <cstddef>
#include <string>
#include <string_view>

namespace tir {
namespace support {

/** `body` followed by its trailer line. `body` must be non-empty and
 *  end with '\n', so the trailer starts a line of its own. */
std::string frame(std::string_view body);

/** Outcome of scanFrame(). */
struct FrameScan
{
    enum class Status { kComplete, kIncomplete, kDamaged };
    Status status = Status::kIncomplete;
    /** kComplete: the verified body, a view into the scanned buffer. */
    std::string_view body;
    /** kComplete and kDamaged: offset just past the trailer line,
     *  where the next scan starts. */
    size_t end = 0;
};

/** Scan `buffer` from `pos` to the first trailer line and check the
 *  body before it. A line starting with "crc " is a trailer; one that
 *  does not parse as a trailer is a damaged one. */
FrameScan scanFrame(std::string_view buffer, size_t pos = 0);

} // namespace support
} // namespace tir

#endif // TENSORIR_SUPPORT_FRAME_H
