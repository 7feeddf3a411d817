/**
 * @file
 * The one framing substrate under SPUR-STREAM/1 (src/sweep/stream.h)
 * and SPUR-TRACE/1 (src/workload/trace.h), DESIGN.md §17.
 *
 * A framed log is a magic line followed by frames
 *
 *     <tag> <len>\n<payload>\n
 *
 * where <tag> is one byte from the format's tag set and <len> the
 * decimal payload length (at most kMaxFramePayload).  Writers append
 * whole frames with write + fsync, so a crash can only cut the file's
 * tail.  Readers therefore tell two outcomes apart: bytes that run out
 * mid-frame (or mid-magic) are truncation, a crash artifact to recover
 * from; anything else malformed is corruption, a hard error.  Content
 * digests are FNV-1a64 chains in which each digested payload is
 * followed by a '\n' separator, so payload boundaries cannot alias.
 *
 * Each format keeps its own tag set, payload schemas and recovery state
 * machine on top of this file.
 */
#ifndef SPUR_COMMON_FRAMED_LOG_H_
#define SPUR_COMMON_FRAMED_LOG_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace spur {

// ---------------------------------------------------------------------------
// FNV-1a 64 (public domain): the content digest of both formats.
// ---------------------------------------------------------------------------

inline constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

/** FNV-1a over @p n raw bytes. */
inline uint64_t
Fnv(uint64_t digest, const char* data, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        digest ^= static_cast<unsigned char>(data[i]);
        digest *= kFnvPrime;
    }
    return digest;
}

/**
 * Advances two independent FNV-1a chains over the same bytes.  The
 * chains do not depend on each other, so one loop costs what one chain
 * does.
 */
inline void
Fnv2(uint64_t* a, uint64_t* b, const char* data, size_t n)
{
    uint64_t x = *a;
    uint64_t y = *b;
    for (size_t i = 0; i < n; ++i) {
        const auto byte = static_cast<unsigned char>(data[i]);
        x = (x ^ byte) * kFnvPrime;
        y = (y ^ byte) * kFnvPrime;
    }
    *a = x;
    *b = y;
}

/** Mixes one payload and its '\n' separator into @p digest. */
inline uint64_t
FnvMix(uint64_t digest, std::string_view payload)
{
    return Fnv(Fnv(digest, payload.data(), payload.size()), "\n", 1);
}

/** A digest as 16 lower-case hex digits. */
std::string DigestHex(uint64_t digest);

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/** Frame payloads larger than this are corruption, not log data. */
inline constexpr uint64_t kMaxFramePayload = 1ULL << 30;

/** Appends the frame `<tag> <len>\n<payload>\n` to @p out. */
void AppendFrame(std::string* out, char tag, std::string_view payload);

/** Renders one frame. */
std::string EncodeFrame(char tag, std::string_view payload);

enum class FrameStatus : uint8_t {
    kOk,
    kTruncated,  ///< Bytes ran out mid-frame: a crash artifact.
    kCorrupt,    ///< Malformed despite enough bytes: never truncation.
};

struct Frame {
    char tag = '\0';
    std::string_view payload;  ///< Points into the scanned bytes.
    size_t end = 0;  ///< Offset of the first byte after the frame.
};

/**
 * Scans the frame starting at @p pos (< bytes.size()), whose tag must be
 * one of @p tags.  kCorrupt sets *why to a one-line reason.
 */
FrameStatus NextFrame(std::string_view bytes, size_t pos,
                      std::string_view tags, Frame* out, std::string* why);

enum class MagicStatus : uint8_t {
    kOk,         ///< @p bytes begins with the magic line.
    kTruncated,  ///< @p bytes is a proper prefix of the magic line.
    kMismatch,   ///< Not this format.
};

/** Checks the magic line a framed log starts with. */
MagicStatus CheckMagic(std::string_view bytes, std::string_view magic);

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/**
 * A write-only file for fsync'd appends.  Opened with O_CLOEXEC so a
 * child process never inherits it.  Not thread-safe.
 */
class FsyncAppender
{
  public:
    FsyncAppender() = default;
    ~FsyncAppender() { Close(); }

    FsyncAppender(const FsyncAppender&) = delete;
    FsyncAppender& operator=(const FsyncAppender&) = delete;

    /** Creates/truncates @p path.  False (errno set) on failure. */
    bool Open(const std::string& path);

    /**
     * Writes every byte of @p bytes, then fsyncs.  False (errno set) on
     * failure.
     */
    bool Append(std::string_view bytes);

    void Close();

    bool is_open() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

/** Appends everything left in @p file to @p bytes; false on a read error. */
bool ReadAll(std::FILE* file, std::string* bytes);

enum class ReadStatus : uint8_t { kOk, kCannotOpen, kReadError };

/** Appends the whole of @p path to @p bytes. */
ReadStatus ReadWholeFile(const std::string& path, std::string* bytes);

}  // namespace spur

#endif  // SPUR_COMMON_FRAMED_LOG_H_
