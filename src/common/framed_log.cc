#include "src/common/framed_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

namespace spur {

std::string
DigestHex(uint64_t digest)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buffer;
}

void
AppendFrame(std::string* out, char tag, std::string_view payload)
{
    out->push_back(tag);
    out->push_back(' ');
    *out += std::to_string(payload.size());
    out->push_back('\n');
    *out += payload;
    out->push_back('\n');
}

std::string
EncodeFrame(char tag, std::string_view payload)
{
    std::string frame;
    frame.reserve(payload.size() + 16);
    AppendFrame(&frame, tag, payload);
    return frame;
}

FrameStatus
NextFrame(std::string_view bytes, size_t pos, std::string_view tags,
          Frame* out, std::string* why)
{
    const char tag = bytes[pos];
    if (tags.find(tag) == std::string_view::npos) {
        *why = "unknown frame tag";
        return FrameStatus::kCorrupt;
    }
    size_t p = pos + 1;
    if (p >= bytes.size()) {
        return FrameStatus::kTruncated;
    }
    if (bytes[p] != ' ') {
        *why = "missing space after frame tag";
        return FrameStatus::kCorrupt;
    }
    ++p;
    uint64_t length = 0;
    size_t digits = 0;
    while (p < bytes.size() && bytes[p] >= '0' && bytes[p] <= '9') {
        length = length * 10 + static_cast<uint64_t>(bytes[p] - '0');
        if (length > kMaxFramePayload) {
            *why = "frame length out of range";
            return FrameStatus::kCorrupt;
        }
        ++digits;
        ++p;
    }
    if (p >= bytes.size()) {
        return FrameStatus::kTruncated;
    }
    if (digits == 0 || bytes[p] != '\n') {
        *why = "malformed frame length";
        return FrameStatus::kCorrupt;
    }
    ++p;
    if (p + length + 1 > bytes.size()) {
        return FrameStatus::kTruncated;
    }
    if (bytes[p + length] != '\n') {
        *why = "frame payload not newline-terminated";
        return FrameStatus::kCorrupt;
    }
    out->tag = tag;
    out->payload = bytes.substr(p, length);
    out->end = p + length + 1;
    return FrameStatus::kOk;
}

MagicStatus
CheckMagic(std::string_view bytes, std::string_view magic)
{
    if (bytes.size() < magic.size()) {
        return magic.starts_with(bytes) ? MagicStatus::kTruncated
                                        : MagicStatus::kMismatch;
    }
    return bytes.starts_with(magic) ? MagicStatus::kOk
                                    : MagicStatus::kMismatch;
}

bool
FsyncAppender::Open(const std::string& path)
{
    Close();
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    return fd_ >= 0;
}

bool
FsyncAppender::Append(std::string_view bytes)
{
    size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t n =
            ::write(fd_, bytes.data() + written, bytes.size() - written);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        written += static_cast<size_t>(n);
    }
    return ::fsync(fd_) == 0;
}

void
FsyncAppender::Close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
ReadAll(std::FILE* file, std::string* bytes)
{
    struct stat info;
    if (::fstat(::fileno(file), &info) == 0 && info.st_size > 0) {
        bytes->reserve(bytes->size() + static_cast<size_t>(info.st_size));
    }
    char buffer[64 * 1024];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
        bytes->append(buffer, n);
    }
    return std::ferror(file) == 0;
}

ReadStatus
ReadWholeFile(const std::string& path, std::string* bytes)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        return ReadStatus::kCannotOpen;
    }
    const bool ok = ReadAll(file, bytes);
    std::fclose(file);
    return ok ? ReadStatus::kOk : ReadStatus::kReadError;
}

}  // namespace spur
