#include "src/workload/trace.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

#include "src/common/framed_log.h"
#include "src/common/log.h"
#include "src/vm/region.h"
#include "src/workload/ref_pipe.h"

namespace spur::workload {

namespace {

/** Flush an open op batch into a B frame at this size. */
constexpr size_t kBatchFlushBytes = 64 * 1024;

/** Highest valid vm::PageKind value in an op payload. */
constexpr uint8_t kMaxPageKind =
    static_cast<uint8_t>(vm::PageKind::kFileCache);

/** Highest valid segment-register index in a share op. */
constexpr uint8_t kMaxSegReg = 3;

// Op opcodes (see the format comment in trace.h).
constexpr uint8_t kOpCreate = 0;
constexpr uint8_t kOpDestroy = 1;
constexpr uint8_t kOpMapRegion = 2;
constexpr uint8_t kOpShare = 3;
constexpr uint8_t kOpSwitch = 4;
constexpr uint8_t kOpSetPid = 5;
constexpr uint8_t kOpIFetch = 6;
constexpr uint8_t kOpRead = 7;
constexpr uint8_t kOpWrite = 8;

// The access opcode is kOpIFetch + AccessType, and an access delta is
// the difference of two 32-bit addresses (see PutAccess).
static_assert(static_cast<uint8_t>(AccessType::kIFetch) == 0 &&
              static_cast<uint8_t>(AccessType::kRead) == 1 &&
              static_cast<uint8_t>(AccessType::kWrite) == 2);
static_assert(kOpRead == kOpIFetch + 1 && kOpWrite == kOpIFetch + 2);
static_assert(std::is_same_v<ProcessAddr, uint32_t>);
static_assert(std::endian::native == std::endian::little,
              "PutAccess stores its bytes as one little-endian word");

/** Longest LEB128 varint of a 64-bit value. */
constexpr size_t kMaxVarintBytes = 10;

// Worst-case op bytes per access: a setpid (opcode + 32-bit pid varint)
// and the access itself (opcode + varint), plus the bytes PutAccess's
// 8-byte store may write past the end of the last one.
constexpr size_t kMaxSetPidBytes = 6;
constexpr size_t kMaxAccessBytes = 1 + kMaxVarintBytes;
constexpr size_t kOverStoreSlack = 8;

std::string
FormatUint(uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(value));
    return buffer;
}

/** Canonical double rendering; Identity() and the S payload share it. */
std::string
FormatDouble(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
HeaderPayload()
{
    return "{\"trace_version\": " + FormatUint(kTraceVersion) + "}";
}

std::string
MetaPayload(const TraceStreamMeta& meta)
{
    std::string payload = "{\"workload\": \"";
    payload += meta.workload;
    payload += "\", \"seed\": " + FormatUint(meta.seed);
    payload += ", \"refs\": " + FormatUint(meta.refs);
    payload += ", \"intensity\": " + FormatDouble(meta.intensity);
    payload += ", \"page_bytes\": " + FormatUint(meta.page_bytes);
    payload += ", \"block_bytes\": " + FormatUint(meta.block_bytes);
    payload += "}";
    return payload;
}

std::string
EndPayload(uint64_t ops, uint64_t accesses, uint64_t refs_issued,
           uint64_t digest)
{
    std::string payload = "{\"ops\": " + FormatUint(ops);
    payload += ", \"accesses\": " + FormatUint(accesses);
    payload += ", \"refs_issued\": " + FormatUint(refs_issued);
    payload += ", \"digest\": \"" + DigestHex(digest) + "\"}";
    return payload;
}

std::string
TrailerPayload(uint64_t streams, uint64_t digest)
{
    return "{\"streams\": " + FormatUint(streams) + ", \"digest\": \"" +
           DigestHex(digest) + "\"}";
}

// ---------------------------------------------------------------------------
// Strict payload scanners.  The parser accepts exactly the writer's
// rendering — key order, spacing, no escapes, no leading zeros — so
// every accepted payload re-serializes byte-identically (the fuzzer's
// fix-point property) and any deviation is corruption, never a guess.
// ---------------------------------------------------------------------------

bool
ScanLiteral(std::string_view s, size_t* pos, const char* literal)
{
    const size_t n = std::strlen(literal);
    if (s.compare(*pos, n, literal) != 0) {
        return false;
    }
    *pos += n;
    return true;
}

bool
ScanUint(std::string_view s, size_t* pos, uint64_t* out)
{
    size_t p = *pos;
    uint64_t value = 0;
    size_t digits = 0;
    while (p < s.size() && s[p] >= '0' && s[p] <= '9') {
        const uint64_t digit = static_cast<uint64_t>(s[p] - '0');
        if (value > (~uint64_t{0} - digit) / 10) {
            return false;
        }
        value = value * 10 + digit;
        ++digits;
        ++p;
    }
    if (digits == 0 || (digits > 1 && s[*pos] == '0')) {
        return false;
    }
    *pos = p;
    *out = value;
    return true;
}

/** A quoted string with no escapes: printable ASCII minus '"' and '\\'. */
bool
ScanQuoted(std::string_view s, size_t* pos, std::string* out)
{
    size_t p = *pos;
    if (p >= s.size() || s[p] != '"') {
        return false;
    }
    ++p;
    const size_t start = p;
    while (p < s.size() && s[p] != '"') {
        const char c = s[p];
        if (c < 0x20 || c > 0x7e || c == '\\') {
            return false;
        }
        ++p;
    }
    if (p >= s.size()) {
        return false;
    }
    out->assign(s.substr(start, p - start));
    *pos = p + 1;
    return true;
}

/** A double token that round-trips through the canonical rendering. */
bool
ScanDouble(std::string_view s, size_t* pos, double* out)
{
    size_t p = *pos;
    const size_t start = p;
    while (p < s.size() &&
           (std::strchr("0123456789.eE+-", s[p]) != nullptr)) {
        ++p;
    }
    if (p == start) {
        return false;
    }
    const std::string token(s.substr(start, p - start));
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(token.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0') {
        return false;
    }
    if (FormatDouble(value) != token) {
        return false;
    }
    *pos = p;
    *out = value;
    return true;
}

bool
ScanHexDigest(std::string_view s, size_t* pos, uint64_t* out)
{
    std::string hex;
    if (!ScanQuoted(s, pos, &hex) || hex.size() != 16) {
        return false;
    }
    uint64_t value = 0;
    for (const char c : hex) {
        uint64_t nibble = 0;
        if (c >= '0' && c <= '9') {
            nibble = static_cast<uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            nibble = static_cast<uint64_t>(c - 'a') + 10;
        } else {
            return false;
        }
        value = (value << 4) | nibble;
    }
    *out = value;
    return true;
}

bool
ParseHeaderPayload(std::string_view payload)
{
    return payload == HeaderPayload();
}

bool
ParseMetaPayload(std::string_view payload, TraceStreamMeta* meta)
{
    size_t pos = 0;
    if (!ScanLiteral(payload, &pos, "{\"workload\": ") ||
        !ScanQuoted(payload, &pos, &meta->workload) ||
        !ScanLiteral(payload, &pos, ", \"seed\": ") ||
        !ScanUint(payload, &pos, &meta->seed) ||
        !ScanLiteral(payload, &pos, ", \"refs\": ") ||
        !ScanUint(payload, &pos, &meta->refs) ||
        !ScanLiteral(payload, &pos, ", \"intensity\": ") ||
        !ScanDouble(payload, &pos, &meta->intensity) ||
        !ScanLiteral(payload, &pos, ", \"page_bytes\": ") ||
        !ScanUint(payload, &pos, &meta->page_bytes) ||
        !ScanLiteral(payload, &pos, ", \"block_bytes\": ") ||
        !ScanUint(payload, &pos, &meta->block_bytes) ||
        !ScanLiteral(payload, &pos, "}")) {
        return false;
    }
    return pos == payload.size();
}

bool
ParseEndPayload(std::string_view payload, uint64_t* ops,
                uint64_t* accesses, uint64_t* refs_issued, uint64_t* digest)
{
    size_t pos = 0;
    if (!ScanLiteral(payload, &pos, "{\"ops\": ") ||
        !ScanUint(payload, &pos, ops) ||
        !ScanLiteral(payload, &pos, ", \"accesses\": ") ||
        !ScanUint(payload, &pos, accesses) ||
        !ScanLiteral(payload, &pos, ", \"refs_issued\": ") ||
        !ScanUint(payload, &pos, refs_issued) ||
        !ScanLiteral(payload, &pos, ", \"digest\": ") ||
        !ScanHexDigest(payload, &pos, digest) ||
        !ScanLiteral(payload, &pos, "}")) {
        return false;
    }
    return pos == payload.size();
}

bool
ParseTrailerPayload(std::string_view payload, uint64_t* streams,
                    uint64_t* digest)
{
    size_t pos = 0;
    if (!ScanLiteral(payload, &pos, "{\"streams\": ") ||
        !ScanUint(payload, &pos, streams) ||
        !ScanLiteral(payload, &pos, ", \"digest\": ") ||
        !ScanHexDigest(payload, &pos, digest) ||
        !ScanLiteral(payload, &pos, "}")) {
        return false;
    }
    return pos == payload.size();
}

// ---------------------------------------------------------------------------
// Varint / zigzag op coding.
// ---------------------------------------------------------------------------

/** Writes LEB128(@p value) at @p out; returns the end of the varint. */
char*
PutVarint(char* out, uint64_t value)
{
    while (value >= 0x80) {
        *out++ = static_cast<char>((value & 0x7f) | 0x80);
        value >>= 7;
    }
    *out++ = static_cast<char>(value);
    return out;
}

bool
ReadVarint(const std::string& bytes, size_t* pos, uint64_t* out)
{
    uint64_t value = 0;
    unsigned shift = 0;
    while (*pos < bytes.size()) {
        const uint8_t byte = static_cast<uint8_t>(bytes[*pos]);
        ++*pos;
        if (shift == 63 && (byte & 0x7f) > 1) {
            return false;  // Overflows 64 bits.
        }
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            // Reject non-canonical encodings (a trailing 0x00 group)
            // so every accepted op stream re-encodes byte-identically.
            if (byte == 0 && shift != 0) {
                return false;
            }
            *out = value;
            return true;
        }
        shift += 7;
        if (shift > 63) {
            return false;
        }
    }
    return false;
}

uint64_t
ZigzagEncode(int64_t value)
{
    return (static_cast<uint64_t>(value) << 1) ^
           static_cast<uint64_t>(value >> 63);
}

int64_t
ZigzagDecode(uint64_t value)
{
    return static_cast<int64_t>(value >> 1) ^
           -static_cast<int64_t>(value & 1);
}

/**
 * Writes an access op, @p opcode then LEB128(@p zigzag), with one
 * unaligned 8-byte store, and returns the bytes it occupies.  The
 * zigzag of a 32-bit address difference is below 2^33, so the varint
 * takes at most 5 bytes: the length comes from the highest set bit,
 * the 7-bit groups are spread one per byte, and every byte but the
 * last gets its continuation bit — exactly what PutVarint writes.  The
 * store may write up to 2 bytes past the returned length.
 */
size_t
PutAccess(char* out, uint8_t opcode, uint64_t zigzag)
{
    const int bits = 64 - std::countl_zero(zigzag | 1);
    const int length = (bits + 6) / 7;  // 1..5 varint bytes.
    const uint64_t groups = (zigzag & 0x7f) |
                            ((zigzag & (0x7fULL << 7)) << 1) |
                            ((zigzag & (0x7fULL << 14)) << 2) |
                            ((zigzag & (0x7fULL << 21)) << 3) |
                            ((zigzag & (0x7fULL << 28)) << 4);
    const uint64_t continuation =
        0x80808080ULL & ((uint64_t{1} << (8 * (length - 1))) - 1);
    const uint64_t word = opcode | ((groups | continuation) << 8);
    std::memcpy(out, &word, sizeof(word));
    return 1 + static_cast<size_t>(length);
}

/** Summary facts ValidateOps checks against the E payload. */
struct OpCounts {
    uint64_t ops = 0;
    uint64_t accesses = 0;
    uint64_t created = 0;
};

/**
 * Walks an op payload, enforcing well-formed varints, known opcodes,
 * dense pid assignment and in-range field values.  What this accepts,
 * ReplayStream can execute without further checks.
 */
bool
ValidateOps(const std::string& ops, OpCounts* out, std::string* why)
{
    size_t pos = 0;
    uint64_t created = 0;
    while (pos < ops.size()) {
        const uint8_t opcode = static_cast<uint8_t>(ops[pos]);
        ++pos;
        ++out->ops;
        uint64_t value = 0;
        switch (opcode) {
          case kOpCreate:
            if (!ReadVarint(ops, &pos, &value) || value != created) {
                *why = "op stream: bad create pid";
                return false;
            }
            ++created;
            break;
          case kOpDestroy:
          case kOpSetPid:
            if (!ReadVarint(ops, &pos, &value) || value >= created) {
                *why = "op stream: pid out of range";
                return false;
            }
            break;
          case kOpMapRegion: {
            uint64_t base = 0;
            uint64_t bytes = 0;
            if (!ReadVarint(ops, &pos, &value) || value >= created ||
                !ReadVarint(ops, &pos, &base) || base > ~ProcessAddr{0} ||
                !ReadVarint(ops, &pos, &bytes) || pos >= ops.size() ||
                static_cast<uint8_t>(ops[pos]) > kMaxPageKind) {
                *why = "op stream: bad map op";
                return false;
            }
            ++pos;
            break;
          }
          case kOpShare: {
            uint64_t other = 0;
            if (!ReadVarint(ops, &pos, &value) || value >= created ||
                pos >= ops.size() ||
                static_cast<uint8_t>(ops[pos]) > kMaxSegReg) {
                *why = "op stream: bad share op";
                return false;
            }
            ++pos;
            if (!ReadVarint(ops, &pos, &other) || other >= created ||
                pos >= ops.size() ||
                static_cast<uint8_t>(ops[pos]) > kMaxSegReg) {
                *why = "op stream: bad share op";
                return false;
            }
            ++pos;
            break;
          }
          case kOpSwitch:
            break;
          case kOpIFetch:
          case kOpRead:
          case kOpWrite:
            if (!ReadVarint(ops, &pos, &value)) {
                *why = "op stream: bad access delta";
                return false;
            }
            ++out->accesses;
            break;
          default:
            *why = "op stream: unknown opcode";
            return false;
        }
    }
    out->created = created;
    return true;
}

/** Only reachable on a bug: recovery validates ops before replay. */
[[noreturn]] void
BadOps()
{
    Fatal("trace: malformed op stream escaped validation");
}

bool
Fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceStreamMeta
// ---------------------------------------------------------------------------

std::string
TraceStreamMeta::Identity() const
{
    std::string key = workload;
    key += "|seed=" + FormatUint(seed);
    key += "|refs=" + FormatUint(refs);
    key += "|intensity=" + FormatDouble(intensity);
    key += "|page=" + FormatUint(page_bytes);
    key += "|block=" + FormatUint(block_bytes);
    return key;
}

// ---------------------------------------------------------------------------
// TraceEncoder
// ---------------------------------------------------------------------------

TraceEncoder::TraceEncoder(TraceStreamMeta meta)
    : meta_(std::move(meta)), digest_(kFnvOffset)
{
    for (const char c : meta_.workload) {
        if (c < 0x20 || c > 0x7e || c == '"' || c == '\\') {
            Fatal("trace: workload name '" + meta_.workload +
                  "' is not representable");
        }
    }
    framed_ = EncodeFrame('S', MetaPayload(meta_));
}

char*
TraceEncoder::BatchEnd(size_t room)
{
    const size_t need = batch_len_ + room;
    if (need > batch_.size()) {
        batch_.resize(std::max(need, 2 * batch_.size()));
    }
    return batch_.data() + batch_len_;
}

void
TraceEncoder::Byte(uint8_t byte)
{
    *BatchEnd(1) = static_cast<char>(byte);
    ++batch_len_;
}

void
TraceEncoder::Op(uint8_t opcode)
{
    Byte(opcode);
    ++ops_;
}

void
TraceEncoder::Varint(uint64_t value)
{
    const char* end = PutVarint(BatchEnd(kMaxVarintBytes), value);
    batch_len_ = static_cast<size_t>(end - batch_.data());
}

void
TraceEncoder::FlushBatch()
{
    if (batch_len_ == 0) {
        return;
    }
    const std::string_view payload(batch_.data(), batch_len_);
    digest_ = FnvMix(digest_, payload);
    AppendFrame(&framed_, 'B', payload);
    batch_len_ = 0;
}

uint32_t
TraceEncoder::TracePid(Pid host_pid) const
{
    for (const auto& [host, trace] : pid_map_) {
        if (host == host_pid) {
            return trace;
        }
    }
    Fatal("trace: pid " + std::to_string(host_pid) +
          " was not created while recording");
}

void
TraceEncoder::OnCreateProcess(Pid host_pid)
{
    for (const auto& [host, trace] : pid_map_) {
        (void)trace;
        if (host == host_pid) {
            Fatal("trace: host pid " + std::to_string(host_pid) +
                  " created twice");
        }
    }
    const uint32_t trace_pid = next_trace_pid_++;
    pid_map_.emplace_back(host_pid, trace_pid);
    Op(kOpCreate);
    Varint(trace_pid);
}

void
TraceEncoder::OnDestroyProcess(Pid host_pid)
{
    const uint32_t trace_pid = TracePid(host_pid);
    for (size_t i = 0; i < pid_map_.size(); ++i) {
        if (pid_map_[i].first == host_pid) {
            pid_map_[i] = pid_map_.back();
            pid_map_.pop_back();
            break;
        }
    }
    if (current_pid_ == trace_pid) {
        current_pid_ = ~uint32_t{0};
    }
    Op(kOpDestroy);
    Varint(trace_pid);
}

void
TraceEncoder::OnMapRegion(Pid host_pid, ProcessAddr base, uint64_t bytes,
                          vm::PageKind kind)
{
    Op(kOpMapRegion);
    Varint(TracePid(host_pid));
    Varint(base);
    Varint(bytes);
    Byte(static_cast<uint8_t>(kind));
}

void
TraceEncoder::OnShareSegment(Pid host_pid, unsigned reg, Pid other,
                             unsigned other_reg)
{
    if (reg > kMaxSegReg || other_reg > kMaxSegReg) {
        Fatal("trace: segment register out of range");
    }
    Op(kOpShare);
    Varint(TracePid(host_pid));
    Byte(static_cast<uint8_t>(reg));
    Varint(TracePid(other));
    Byte(static_cast<uint8_t>(other_reg));
}

void
TraceEncoder::OnContextSwitch()
{
    Op(kOpSwitch);
    if (batch_len_ >= kBatchFlushBytes) {
        FlushBatch();
    }
}

void
TraceEncoder::OnAccessBatch(const MemRef* refs, size_t n)
{
    char* const begin = BatchEnd(
        n * (kMaxSetPidBytes + kMaxAccessBytes) + kOverStoreSlack);
    char* out = begin;
    ProcessAddr last_addr = last_addr_;
    for (size_t i = 0; i < n; ++i) {
        const MemRef& ref = refs[i];
        // Only a pid change, the first access, or the first one after
        // the current process died searches the pid map.  Live host
        // pids have distinct trace pids, so each of those needs a setpid.
        if (ref.pid != current_host_pid_ || current_pid_ == ~uint32_t{0}) {
            const uint32_t trace_pid = TracePid(ref.pid);
            *out++ = static_cast<char>(kOpSetPid);
            out = PutVarint(out, trace_pid);
            ++ops_;
            current_host_pid_ = ref.pid;
            current_pid_ = trace_pid;
        }
        const uint64_t zigzag = ZigzagEncode(
            static_cast<int64_t>(ref.addr) - static_cast<int64_t>(last_addr));
        last_addr = ref.addr;
        out += PutAccess(
            out,
            static_cast<uint8_t>(kOpIFetch + static_cast<uint8_t>(ref.type)),
            zigzag);
    }
    last_addr_ = last_addr;
    ops_ += n;
    accesses_ += n;
    batch_len_ += static_cast<size_t>(out - begin);
}

std::string
TraceEncoder::Finish(uint64_t refs_issued)
{
    if (finished_) {
        Fatal("trace: TraceEncoder::Finish called twice");
    }
    finished_ = true;
    FlushBatch();
    AppendFrame(&framed_, 'E',
                EndPayload(ops_, accesses_, refs_issued, digest_));
    return std::move(framed_);
}

// ---------------------------------------------------------------------------
// RecordingHost
// ---------------------------------------------------------------------------

Pid
RecordingHost::CreateProcess()
{
    const Pid pid = host_.CreateProcess();
    if (recording_) {
        encoder_.OnCreateProcess(pid);
    }
    return pid;
}

void
RecordingHost::DestroyProcess(Pid pid)
{
    if (recording_) {
        encoder_.OnDestroyProcess(pid);
    }
    host_.DestroyProcess(pid);
}

void
RecordingHost::MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                         vm::PageKind kind)
{
    if (recording_) {
        encoder_.OnMapRegion(pid, base, bytes, kind);
    }
    host_.MapRegion(pid, base, bytes, kind);
}

void
RecordingHost::ShareSegment(Pid pid, unsigned reg, Pid other,
                            unsigned other_reg)
{
    if (recording_) {
        encoder_.OnShareSegment(pid, reg, other, other_reg);
    }
    host_.ShareSegment(pid, reg, other, other_reg);
}

void
RecordingHost::Access(const MemRef& ref)
{
    if (recording_) {
        encoder_.OnAccess(ref);
    }
    host_.Access(ref);
}

void
RecordingHost::AccessBatch(const MemRef* refs, size_t n)
{
    if (recording_) {
        encoder_.OnAccessBatch(refs, n);
    }
    host_.AccessBatch(refs, n);
}

void
RecordingHost::OnContextSwitch()
{
    if (recording_) {
        encoder_.OnContextSwitch();
    }
    host_.OnContextSwitch();
}

const sim::MachineConfig&
RecordingHost::config() const
{
    return host_.config();
}

// ---------------------------------------------------------------------------
// TraceFileWriter
// ---------------------------------------------------------------------------

bool
TraceFileWriter::Open(const std::string& path, std::string* error)
{
    if (file_.is_open()) {
        return Fail(error, "trace writer already open");
    }
    if (!file_.Open(path)) {
        return Fail(error, "cannot open '" + path + "' for writing: " +
                               std::strerror(errno));
    }
    digest_ = kFnvOffset;
    streams_ = 0;
    if (!file_.Append(std::string(kTraceMagic) +
                      EncodeFrame('H', HeaderPayload()))) {
        file_.Close();
        return Fail(error, "write failed on '" + path + "'");
    }
    return true;
}

bool
TraceFileWriter::AppendStream(const std::string& stream_bytes,
                              std::string* error)
{
    if (!file_.is_open()) {
        return Fail(error, "trace writer is not open");
    }
    if (!file_.Append(stream_bytes)) {
        file_.Close();
        return Fail(error, "stream append failed");
    }
    digest_ = FnvMix(digest_, stream_bytes);
    ++streams_;
    return true;
}

bool
TraceFileWriter::Finish(std::string* error)
{
    if (!file_.is_open()) {
        return Fail(error, "trace writer is not open");
    }
    const bool ok =
        file_.Append(EncodeFrame('T', TrailerPayload(streams_, digest_)));
    file_.Close();
    if (!ok) {
        return Fail(error, "trailer write failed");
    }
    return true;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

std::string
EncodeTraceFile(const std::vector<std::string>& stream_frames)
{
    std::string bytes = kTraceMagic;
    bytes += EncodeFrame('H', HeaderPayload());
    uint64_t digest = kFnvOffset;
    for (const std::string& frames : stream_frames) {
        bytes += frames;
        digest = FnvMix(digest, frames);
    }
    bytes += EncodeFrame('T', TrailerPayload(stream_frames.size(), digest));
    return bytes;
}

std::optional<RecoveredTrace>
RecoverTraceBytes(const std::string& bytes, std::string* error)
{
    RecoveredTrace result;
    switch (CheckMagic(bytes, kTraceMagic)) {
      case MagicStatus::kMismatch:
        Fail(error, "not a SPUR-TRACE/1 file");
        return std::nullopt;
      case MagicStatus::kTruncated:
        result.dropped_bytes = bytes.size();
        result.note = "torn before the header; recovered 0 streams";
        return result;
      case MagicStatus::kOk:
        break;
    }
    size_t pos = std::string_view(kTraceMagic).size();
    // recovered_end: the offset up to which the file is a sequence of
    // complete verified streams (truncation recovery resumes here).
    size_t recovered_end = pos;
    std::string why;
    uint64_t file_digest = kFnvOffset;

    const auto truncated = [&](const char* where) {
        result.complete = false;
        result.dropped_bytes = bytes.size() - recovered_end;
        result.note = std::string("torn ") + where + "; recovered " +
                      FormatUint(result.streams.size()) + " stream(s), " +
                      FormatUint(result.dropped_bytes) + " byte(s) dropped";
        return result;
    };

    // The H frame.
    {
        if (pos >= bytes.size()) {
            return truncated("before the header");
        }
        Frame frame;
        const FrameStatus status =
            NextFrame(bytes, pos, kTraceTags, &frame, &why);
        if (status == FrameStatus::kTruncated) {
            return truncated("inside the header");
        }
        if (status == FrameStatus::kCorrupt) {
            Fail(error, "header frame: " + why);
            return std::nullopt;
        }
        if (frame.tag != 'H' || !ParseHeaderPayload(frame.payload)) {
            Fail(error, "bad or unsupported trace header");
            return std::nullopt;
        }
        pos = frame.end;
        recovered_end = pos;
    }

    // Streams, then the trailer.
    while (pos < bytes.size()) {
        Frame frame;
        FrameStatus status =
            NextFrame(bytes, pos, kTraceTags, &frame, &why);
        if (status == FrameStatus::kTruncated) {
            return truncated("mid-stream");
        }
        if (status == FrameStatus::kCorrupt) {
            Fail(error, "frame at offset " + FormatUint(pos) + ": " + why);
            return std::nullopt;
        }
        if (frame.tag == 'T') {
            uint64_t stream_count = 0;
            uint64_t digest = 0;
            if (!ParseTrailerPayload(frame.payload, &stream_count,
                                     &digest)) {
                Fail(error, "malformed trace trailer");
                return std::nullopt;
            }
            if (stream_count != result.streams.size()) {
                Fail(error,
                     "trailer claims " + FormatUint(stream_count) +
                         " stream(s), file holds " +
                         FormatUint(result.streams.size()));
                return std::nullopt;
            }
            if (digest != file_digest) {
                Fail(error, "trace digest mismatch");
                return std::nullopt;
            }
            if (frame.end != bytes.size()) {
                Fail(error, "bytes after the trace trailer");
                return std::nullopt;
            }
            result.complete = true;
            result.note = "complete: " +
                          FormatUint(result.streams.size()) + " stream(s)";
            return result;
        }
        if (frame.tag != 'S') {
            Fail(error, "expected S or T frame at offset " +
                            FormatUint(pos));
            return std::nullopt;
        }

        // One stream: S, B*, E.
        TraceStream stream;
        const size_t stream_start = pos;
        if (!ParseMetaPayload(frame.payload, &stream.meta)) {
            Fail(error, "malformed stream header at offset " +
                            FormatUint(pos));
            return std::nullopt;
        }
        pos = frame.end;
        // The stream's share of the file digest covers its framed bytes
        // [stream_start, pos); `digested` is how far it has got.  Each B
        // payload plus its '\n' is both a literal run of those bytes
        // and exactly what the op digest mixes, so one loop advances
        // both chains.  file_digest takes the share only once the
        // stream verifies.
        uint64_t ops_digest = kFnvOffset;
        uint64_t stream_digest = file_digest;
        size_t digested = stream_start;
        bool stream_done = false;
        while (!stream_done) {
            if (pos >= bytes.size()) {
                return truncated("inside a stream");
            }
            status = NextFrame(bytes, pos, kTraceTags, &frame, &why);
            if (status == FrameStatus::kTruncated) {
                return truncated("inside a stream");
            }
            if (status == FrameStatus::kCorrupt) {
                Fail(error,
                     "frame at offset " + FormatUint(pos) + ": " + why);
                return std::nullopt;
            }
            if (frame.tag == 'B') {
                const size_t payload = frame.end - frame.payload.size() - 1;
                stream_digest = Fnv(stream_digest, bytes.data() + digested,
                                    payload - digested);
                Fnv2(&ops_digest, &stream_digest, bytes.data() + payload,
                     frame.end - payload);
                digested = frame.end;
                stream.ops += frame.payload;
                pos = frame.end;
                continue;
            }
            if (frame.tag != 'E') {
                Fail(error, "expected B or E frame at offset " +
                                FormatUint(pos));
                return std::nullopt;
            }
            if (!ParseEndPayload(frame.payload, &stream.op_count,
                                 &stream.accesses, &stream.refs_issued,
                                 &stream.digest)) {
                Fail(error, "malformed stream end at offset " +
                                FormatUint(pos));
                return std::nullopt;
            }
            if (stream.digest != ops_digest) {
                Fail(error, "stream '" + stream.meta.Identity() +
                                "': op digest mismatch");
                return std::nullopt;
            }
            OpCounts counts;
            if (!ValidateOps(stream.ops, &counts, &why)) {
                Fail(error,
                     "stream '" + stream.meta.Identity() + "': " + why);
                return std::nullopt;
            }
            if (counts.ops != stream.op_count ||
                counts.accesses != stream.accesses) {
                Fail(error, "stream '" + stream.meta.Identity() +
                                "': op counts disagree with the E frame");
                return std::nullopt;
            }
            pos = frame.end;
            stream_done = true;
        }
        stream.framed.assign(bytes, stream_start, pos - stream_start);
        file_digest = FnvMix(stream_digest,
                          std::string_view(bytes).substr(digested,
                                                         pos - digested));
        result.streams.push_back(std::move(stream));
        recovered_end = pos;
    }
    return truncated("before the trailer");
}

std::optional<RecoveredTrace>
RecoverTraceFile(const std::string& path, std::string* error)
{
    std::string bytes;
    switch (ReadWholeFile(path, &bytes)) {
      case ReadStatus::kCannotOpen:
        Fail(error, "cannot open '" + path + "'");
        return std::nullopt;
      case ReadStatus::kReadError:
        Fail(error, "read error on '" + path + "'");
        return std::nullopt;
      case ReadStatus::kOk:
        break;
    }
    return RecoverTraceBytes(bytes, error);
}

// ---------------------------------------------------------------------------
// TraceLibrary
// ---------------------------------------------------------------------------

bool
TraceLibrary::Load(const std::string& path, std::string* error)
{
    std::string recover_error;
    const std::optional<RecoveredTrace> recovered =
        RecoverTraceFile(path, &recover_error);
    if (!recovered) {
        return Fail(error, path + ": " + recover_error);
    }
    if (!recovered->complete) {
        return Fail(error,
                    path + ": truncated trace (" + recovered->note +
                        "); recover it with `spur_trace validate` first");
    }
    streams_ = std::move(recovered->streams);
    identities_.clear();
    for (const TraceStream& stream : streams_) {
        identities_.push_back(stream.meta.Identity());
    }
    return true;
}

const TraceStream*
TraceLibrary::Find(const std::string& identity) const
{
    for (size_t i = 0; i < streams_.size(); ++i) {
        if (identities_[i] == identity) {
            return &streams_[i];
        }
    }
    return nullptr;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

namespace {

/** A control op the decoder hands to the replaying thread in-band. */
struct ControlOp {
    uint8_t opcode = kOpSwitch;
    uint8_t reg = 0;        ///< kOpShare.
    uint8_t other_reg = 0;  ///< kOpShare.
    uint8_t kind = 0;       ///< kOpMapRegion: the vm::PageKind.
    uint32_t pid = 0;       ///< Trace pid (create, destroy, map, share).
    uint32_t other = 0;     ///< kOpShare: the other trace pid.
    uint64_t base = 0;      ///< kOpMapRegion.
    uint64_t bytes = 0;     ///< kOpMapRegion.
};

/**
 * One decoded piece of an op stream: control ops, then accesses by a
 * single trace pid (their MemRef::pid), then where the stream stands.
 */
struct ReplayChunk : RefChunk {
    static constexpr size_t kMaxOps = 32;
    enum class Status : uint8_t { kMore, kEnd, kBad };

    size_t num_ops = 0;
    ControlOp ops[kMaxOps];
    Status status = Status::kMore;
};

/**
 * Decodes an op payload into ReplayChunks.  What ValidateOps accepts
 * decodes cleanly; anything else ends the stream with Status::kBad.
 * The decoder sees only the op bytes: host pids belong to the replaying
 * thread, so accesses carry trace pids.  It is a value (a position in
 * the bytes), so the pipe's caller and helper each decode from a copy.
 */
class OpDecoder
{
  public:
    OpDecoder() = default;
    explicit OpDecoder(const std::string& ops) : ops_(&ops) {}

    bool Produce(ReplayChunk* chunk, bool /*ahead*/)
    {
        chunk->n = 0;
        chunk->num_ops = 0;
        chunk->status = Decode(chunk) ? ReplayChunk::Status::kMore
                        : bad_        ? ReplayChunk::Status::kBad
                                      : ReplayChunk::Status::kEnd;
        return true;
    }

  private:
    /** Fills @p chunk; false at the end of the stream or a bad op. */
    bool Decode(ReplayChunk* chunk)
    {
        while (!bad_ && pos_ < ops_->size()) {
            const size_t start = pos_;
            const uint8_t opcode = static_cast<uint8_t>((*ops_)[pos_]);
            ++pos_;
            uint64_t value = 0;
            if (opcode >= kOpIFetch && opcode <= kOpWrite) {
                if (chunk->n == kChunkRefs) {
                    pos_ = start;
                    return true;
                }
                if (!ReadVarint(*ops_, &pos_, &value) || !have_pid_) {
                    bad_ = true;
                    break;
                }
                last_addr_ = static_cast<ProcessAddr>(
                    static_cast<int64_t>(last_addr_) + ZigzagDecode(value));
                chunk->refs[chunk->n++] = MemRef{
                    pid_, last_addr_,
                    static_cast<AccessType>(opcode - kOpIFetch)};
                continue;
            }
            if (opcode == kOpSetPid) {
                if (!ReadVarint(*ops_, &pos_, &value) || value >= created_) {
                    bad_ = true;
                    break;
                }
                // A chunk's accesses share one pid.
                if (chunk->n > 0 && value != pid_) {
                    pos_ = start;
                    return true;
                }
                pid_ = static_cast<Pid>(value);
                have_pid_ = true;
                continue;
            }
            // Control ops precede the chunk's accesses.
            if (chunk->n > 0 || chunk->num_ops == ReplayChunk::kMaxOps) {
                pos_ = start;
                return true;
            }
            ControlOp& op = chunk->ops[chunk->num_ops];
            op.opcode = opcode;
            if (!DecodeControl(&op)) {
                bad_ = true;
                break;
            }
            ++chunk->num_ops;
        }
        return false;
    }

    /** Decodes the fields of control op @p op (opcode already read). */
    bool DecodeControl(ControlOp* op)
    {
        uint64_t value = 0;
        switch (op->opcode) {
          case kOpCreate:
            if (!ReadVarint(*ops_, &pos_, &value) || value != created_) {
                return false;
            }
            op->pid = static_cast<uint32_t>(created_++);
            return true;
          case kOpDestroy:
            if (!ReadVarint(*ops_, &pos_, &value) || value >= created_) {
                return false;
            }
            op->pid = static_cast<uint32_t>(value);
            return true;
          case kOpMapRegion:
            if (!ReadVarint(*ops_, &pos_, &value) || value >= created_ ||
                !ReadVarint(*ops_, &pos_, &op->base) ||
                !ReadVarint(*ops_, &pos_, &op->bytes) ||
                pos_ >= ops_->size()) {
                return false;
            }
            op->pid = static_cast<uint32_t>(value);
            op->kind = static_cast<uint8_t>((*ops_)[pos_++]);
            return true;
          case kOpShare: {
            uint64_t other = 0;
            if (!ReadVarint(*ops_, &pos_, &value) || value >= created_ ||
                pos_ >= ops_->size()) {
                return false;
            }
            op->reg = static_cast<uint8_t>((*ops_)[pos_++]);
            if (!ReadVarint(*ops_, &pos_, &other) || other >= created_ ||
                pos_ >= ops_->size()) {
                return false;
            }
            op->other_reg = static_cast<uint8_t>((*ops_)[pos_++]);
            op->pid = static_cast<uint32_t>(value);
            op->other = static_cast<uint32_t>(other);
            return true;
          }
          case kOpSwitch:
            return true;
          default:
            return false;
        }
    }

    const std::string* ops_ = nullptr;
    size_t pos_ = 0;
    uint64_t created_ = 0;  ///< Create ops decoded: the next trace pid.
    Pid pid_ = 0;           ///< The last setpid's trace pid.
    bool have_pid_ = false;
    bool bad_ = false;
    ProcessAddr last_addr_ = 0;
};

/** Issues control op @p op; @p host_pid maps trace pids to the host's. */
void
Execute(const ControlOp& op, WorkloadHost& host, std::vector<Pid>* host_pid,
        ReplayStats* stats)
{
    const std::vector<Pid>& pids = *host_pid;
    switch (op.opcode) {
      case kOpCreate:
        host_pid->push_back(host.CreateProcess());
        ++stats->processes;
        break;
      case kOpDestroy:
        host.DestroyProcess(pids[op.pid]);
        break;
      case kOpMapRegion:
        host.MapRegion(pids[op.pid], static_cast<ProcessAddr>(op.base),
                       op.bytes, static_cast<vm::PageKind>(op.kind));
        break;
      case kOpShare:
        host.ShareSegment(pids[op.pid], op.reg, pids[op.other],
                          op.other_reg);
        break;
      case kOpSwitch:
        host.OnContextSwitch();
        ++stats->context_switches;
        break;
    }
}

}  // namespace

ReplayStats
ReplayStream(const TraceStream& stream, WorkloadHost& host)
{
    const sim::MachineConfig& config = host.config();
    if (config.page_bytes != stream.meta.page_bytes ||
        config.block_bytes != stream.meta.block_bytes) {
        Fatal("trace: stream '" + stream.meta.Identity() +
              "' was recorded at page/block " +
              FormatUint(stream.meta.page_bytes) + "/" +
              FormatUint(stream.meta.block_bytes) +
              ", host geometry is " + FormatUint(config.page_bytes) + "/" +
              FormatUint(config.block_bytes));
    }

    ReplayStats stats;
    stats.refs_issued = stream.refs_issued;
    std::vector<Pid> host_pid;  // Indexed by trace pid.
    bool bad = false;
    {
        // Decoding runs one chunk ahead through the pipe (DESIGN.md
        // §20); every host call is made here, in stream order.
        RefPipe<ReplayChunk, OpDecoder> pipe(OpDecoder(stream.ops),
                                             /*announced=*/~uint64_t{0});
        for (bool more = true; more;) {
            ReplayChunk& chunk = pipe.Acquire();
            for (size_t k = 0; k < chunk.num_ops; ++k) {
                Execute(chunk.ops[k], host, &host_pid, &stats);
            }
            if (chunk.n > 0) {
                const Pid trace_pid = chunk.refs[0].pid;
                const Pid pid = host_pid[trace_pid];
                if (pid != trace_pid) {
                    for (size_t i = 0; i < chunk.n; ++i) {
                        chunk.refs[i].pid = pid;
                    }
                }
                host.AccessBatch(chunk.refs, chunk.n);
                stats.accesses += chunk.n;
            }
            more = chunk.status == ReplayChunk::Status::kMore;
            bad = chunk.status == ReplayChunk::Status::kBad;
            pipe.Release();
        }
    }  // The pipe's helper is joined before any Fatal.
    if (bad) {
        BadOps();
    }
    return stats;
}

ReplayStats
ReplayTrace(const std::string& path, WorkloadHost& host)
{
    TraceLibrary library;
    std::string error;
    if (!library.Load(path, &error)) {
        Fatal("trace: " + error);
    }
    ReplayStats total;
    for (const TraceStream& stream : library.streams()) {
        const ReplayStats stats = ReplayStream(stream, host);
        total.refs_issued += stats.refs_issued;
        total.accesses += stats.accesses;
        total.context_switches += stats.context_switches;
        total.processes += stats.processes;
    }
    return total;
}

}  // namespace spur::workload
