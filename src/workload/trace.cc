#include "src/workload/trace.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <system_error>
#include <thread>
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

/// Largest op bytes of one access the driver can issue: a setpid, then
/// the access opcode and a zigzag delta of two 32-bit addresses (at most
/// 5 varint bytes).
constexpr size_t kMaxIssuedAccessBytes = kMaxSetPidBytes + 1 + 5;

/// Cap on the reservation, so a huge budget reserves no more address
/// space than a stream that size could need in practice.
constexpr uint64_t kMaxReserveBytes = uint64_t{1} << 30;

/** Bytes to reserve for the framed stream of a @p refs budget: every
 *  access at its longest.  Control ops are few; a stream that still
 *  outgrows it grows as before. */
size_t
ReserveBytes(uint64_t refs)
{
    return static_cast<size_t>(
        std::min(refs, kMaxReserveBytes / kMaxIssuedAccessBytes) *
        kMaxIssuedAccessBytes);
}

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
    // Reserve once for the whole stream instead of regrowing it by
    // doubling, which copies it into fresh pages each time.  Reserved
    // pages are not resident until written.
    framed_.reserve(framed_.size() + ReserveBytes(meta_.refs));
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

// ---- Renaming half ----

uint32_t
TraceEncoder::NewPid(Pid host_pid)
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
    return trace_pid;
}

uint32_t
TraceEncoder::DropPid(Pid host_pid)
{
    const uint32_t trace_pid = TracePid(host_pid);
    for (size_t i = 0; i < pid_map_.size(); ++i) {
        if (pid_map_[i].first == host_pid) {
            pid_map_[i] = pid_map_.back();
            pid_map_.pop_back();
            break;
        }
    }
    if (access_pid_ == trace_pid) {
        access_pid_ = kNoPid;
    }
    return trace_pid;
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
TraceEncoder::CheckSegmentRegs(unsigned reg, unsigned other_reg)
{
    if (reg > kMaxSegReg || other_reg > kMaxSegReg) {
        Fatal("trace: segment register out of range");
    }
}

// ---- Encoding half ----

void
TraceEncoder::PutCreate(uint32_t pid)
{
    Op(kOpCreate);
    Varint(pid);
}

void
TraceEncoder::PutDestroy(uint32_t pid)
{
    Op(kOpDestroy);
    Varint(pid);
}

void
TraceEncoder::PutMapRegion(uint32_t pid, ProcessAddr base, uint64_t bytes,
                           vm::PageKind kind)
{
    Op(kOpMapRegion);
    Varint(pid);
    Varint(base);
    Varint(bytes);
    Byte(static_cast<uint8_t>(kind));
}

void
TraceEncoder::PutShare(uint32_t pid, unsigned reg, uint32_t other,
                       unsigned other_reg)
{
    Op(kOpShare);
    Varint(pid);
    Byte(static_cast<uint8_t>(reg));
    Varint(other);
    Byte(static_cast<uint8_t>(other_reg));
}

void
TraceEncoder::PutSwitch()
{
    Op(kOpSwitch);
    if (batch_len_ >= kBatchFlushBytes) {
        FlushBatch();
    }
}

template <class PidOf>
void
TraceEncoder::EncodeAccesses(const MemRef* refs, size_t n, PidOf trace_pid_of)
{
    char* const begin = BatchEnd(
        n * (kMaxSetPidBytes + kMaxAccessBytes) + kOverStoreSlack);
    char* out = begin;
    ProcessAddr last_addr = last_addr_;
    uint32_t current_pid = current_pid_;
    for (size_t i = 0; i < n; ++i) {
        const MemRef& ref = refs[i];
        const uint32_t trace_pid = trace_pid_of(ref.pid);
        if (trace_pid != current_pid) {
            *out++ = static_cast<char>(kOpSetPid);
            out = PutVarint(out, trace_pid);
            ++ops_;
            current_pid = trace_pid;
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
    current_pid_ = current_pid;
    ops_ += n;
    accesses_ += n;
    batch_len_ += static_cast<size_t>(out - begin);
}

void
TraceEncoder::PutAccesses(const MemRef* refs, size_t n)
{
    EncodeAccesses(refs, n, [](Pid trace_pid) { return trace_pid; });
}

// ---- Both halves ----

void
TraceEncoder::OnCreateProcess(Pid host_pid)
{
    PutCreate(NewPid(host_pid));
}

void
TraceEncoder::OnDestroyProcess(Pid host_pid)
{
    PutDestroy(DropPid(host_pid));
}

void
TraceEncoder::OnMapRegion(Pid host_pid, ProcessAddr base, uint64_t bytes,
                          vm::PageKind kind)
{
    PutMapRegion(TracePid(host_pid), base, bytes, kind);
}

void
TraceEncoder::OnShareSegment(Pid host_pid, unsigned reg, Pid other,
                             unsigned other_reg)
{
    CheckSegmentRegs(reg, other_reg);
    const uint32_t pid = TracePid(host_pid);
    PutShare(pid, reg, TracePid(other), other_reg);
}

void
TraceEncoder::OnContextSwitch()
{
    PutSwitch();
}

void
TraceEncoder::OnAccessBatch(const MemRef* refs, size_t n)
{
    EncodeAccesses(refs, n, [this](Pid host_pid) {
        return AccessPid(host_pid);
    });
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

namespace {

/// References per encode-stage chunk.
constexpr size_t kStageRefs = 2048;

/// Control ops per encode-stage chunk; a chunk is handed over when
/// either part is full.
constexpr size_t kStageOps = 256;

/// Chunks in the encode stage's ring: how far the caller may run ahead
/// of the encoder before it waits.
constexpr size_t kStageSlots = 8;

std::atomic<uint64_t> g_record_helper_chunks{0};

}  // namespace

/** A recorded control op, its pids already renamed. */
struct RecordingHost::StageOp {
    uint32_t at = 0;        ///< The chunk's references issued before it.
    uint8_t code = 0;       ///< kOpCreate .. kOpSwitch.
    uint8_t reg = 0;        ///< Share: reg.  Map: the page kind.
    uint8_t other_reg = 0;  ///< Share.
    uint32_t pid = 0;       ///< Trace pid (not for a switch).
    uint32_t arg = 0;       ///< Map: base.  Share: the other trace pid.
    uint64_t bytes = 0;     ///< Map.
};

/** A run of recorded ops: accesses, with control ops between them. */
struct RecordingHost::StageChunk {
    uint32_t refs = 0;
    uint32_t ops = 0;
    MemRef ref[kStageRefs];  ///< pid fields hold trace pids.
    StageOp op[kStageOps];
};

/**
 * The encode stage: a ring of kStageSlots chunks the caller fills and a
 * PipeHelper drains into the encoder's encoding half, oldest first.
 * The encoder passes between the two threads chunk by chunk through
 * state_ = 2 x (chunks encoded) + (1 while one is being encoded):
 * whoever moves it from even to odd encodes the oldest published chunk
 * and then stores the next even value, so the encoder is never shared
 * and the chunks are encoded in order.
 */
class RecordingHost::Stage
{
  public:
    explicit Stage(TraceEncoder& encoder) : encoder_(encoder) {}

    ~Stage() { helper_.Stop(); }

    Stage(const Stage&) = delete;
    Stage& operator=(const Stage&) = delete;

    /** Starts the helper; false when no CPU is spare for one. */
    bool Start()
    {
        if (!helper_.wanted()) {
            return false;
        }
        ring_ = std::make_unique<StageChunk[]>(kStageSlots);
        chunk_ = &ring_[0];
        helper_.Start(&Stage::HelperMain, this);
        return helper_.running();
    }

    /** Copies @p n accesses into the ring, their pids renamed. */
    void Accesses(const MemRef* refs, size_t n)
    {
        while (n > 0) {
            if (chunk_->refs == kStageRefs) {
                Publish();
            }
            const size_t m = std::min<size_t>(n, kStageRefs - chunk_->refs);
            MemRef* out = chunk_->ref + chunk_->refs;
            for (size_t i = 0; i < m; ++i) {
                out[i].pid = encoder_.AccessPid(refs[i].pid);
                out[i].addr = refs[i].addr;
                out[i].type = refs[i].type;
            }
            chunk_->refs += static_cast<uint32_t>(m);
            refs += m;
            n -= m;
        }
    }

    /** Copies a control op into the ring after the accesses so far. */
    void Control(StageOp op)
    {
        if (chunk_->ops == kStageOps) {
            Publish();
        }
        op.at = chunk_->refs;
        chunk_->op[chunk_->ops++] = op;
    }

    /** Runs control op @p op through @p encoder's encoding half. */
    static void Put(TraceEncoder& encoder, const StageOp& op)
    {
        switch (op.code) {
          case kOpCreate:
            encoder.PutCreate(op.pid);
            break;
          case kOpDestroy:
            encoder.PutDestroy(op.pid);
            break;
          case kOpMapRegion:
            encoder.PutMapRegion(op.pid, op.arg, op.bytes,
                                 static_cast<vm::PageKind>(op.reg));
            break;
          case kOpShare:
            encoder.PutShare(op.pid, op.reg, op.arg, op.other_reg);
            break;
          default:
            encoder.PutSwitch();
            break;
        }
    }

    /** Hands over the open chunk, waits until every chunk is encoded
     *  and joins the helper. */
    void Drain()
    {
        if (chunk_->refs != 0 || chunk_->ops != 0) {
            HandOver();
        }
        WaitEncoded(filling_);
        helper_.Stop();
    }

  private:
    static bool Busy(uint64_t state) { return (state & 1) != 0; }
    static uint64_t Encoded(uint64_t state) { return state >> 1; }

    /** Publishes the open chunk to the helper. */
    void HandOver()
    {
        filled_.store(++filling_, std::memory_order_release);
        helper_.Ring();
    }

    /** Publishes the open chunk and opens the next slot once the chunk
     *  it held before is encoded. */
    void Publish()
    {
        HandOver();
        if (filling_ >= kStageSlots) {
            WaitEncoded(filling_ - kStageSlots + 1);
        }
        chunk_ = &ring_[filling_ % kStageSlots];
        chunk_->refs = 0;
        chunk_->ops = 0;
    }

    /** Caller: returns once @p chunks chunks are encoded. */
    void WaitEncoded(uint64_t chunks)
    {
        for (;;) {
            const uint64_t state = state_.load(std::memory_order_acquire);
            if (Encoded(state) >= chunks) {
                return;
            }
            const auto moved = [&] {
                return state_.load(std::memory_order_acquire) != state;
            };
            if (Busy(state)) {
                // The helper holds the oldest chunk, so it can only be
                // waited for: spinning while it finishes, then asleep.
                if (PipeHelper::WaitBounded(moved, [] { return true; }) !=
                    PipeHelper::Wait::kDone) {
                    SleepWhileEncoding(state);
                }
                continue;
            }
            // Nobody is encoding.  Give a seated helper that has made
            // progress since the caller last gave up on it a bounded
            // spin to take the chunk, then encode it here.
            const PipeHelper::Wait wait = PipeHelper::WaitBounded(
                moved, [&] {
                    return helper_.seated() &&
                           progress_.load(std::memory_order_acquire) !=
                               stalled_at_;
                });
            if (wait == PipeHelper::Wait::kDone) {
                continue;
            }
            if (wait == PipeHelper::Wait::kTimedOut) {
                stalled_at_ = progress_.load(std::memory_order_acquire);
            }
            uint64_t expected = state;
            if (state_.compare_exchange_strong(expected, state | 1,
                                               std::memory_order_acq_rel)) {
                Encode(ring_[Encoded(state) % kStageSlots]);
                state_.store(state + 2, std::memory_order_seq_cst);
                helper_.Ring();  // The helper may take the next one.
            }
        }
    }

    /** Caller: sleeps until state_ moves off @p state. */
    void SleepWhileEncoding(uint64_t state)
    {
        const uint32_t seen = caller_bell_.load(std::memory_order_acquire);
        caller_asleep_.store(true, std::memory_order_seq_cst);
        if (state_.load(std::memory_order_seq_cst) == state) {
            caller_bell_.wait(seen, std::memory_order_acquire);
        }
        caller_asleep_.store(false, std::memory_order_relaxed);
    }

    static void HelperMain(void* self)
    {
        static_cast<Stage*>(self)->HelperLoop();
    }

    void HelperLoop()
    {
        for (;;) {
            const uint32_t bell = helper_.bell();
            if (helper_.stopping()) {
                break;
            }
            if (!helper_.Seat()) {
                continue;
            }
            uint64_t state = state_.load(std::memory_order_acquire);
            if (!Busy(state) &&
                Encoded(state) < filled_.load(std::memory_order_acquire) &&
                state_.compare_exchange_strong(state, state | 1,
                                               std::memory_order_acq_rel)) {
                Encode(ring_[Encoded(state) % kStageSlots]);
                state_.store(state + 2, std::memory_order_seq_cst);
                progress_.fetch_add(1, std::memory_order_release);
                g_record_helper_chunks.fetch_add(1,
                                                 std::memory_order_relaxed);
                if (caller_asleep_.load(std::memory_order_seq_cst)) {
                    caller_bell_.fetch_add(1, std::memory_order_release);
                    caller_bell_.notify_one();
                }
                continue;
            }
            // Nothing published, or the caller is encoding: it rings
            // when either changes.
            if (!helper_.SpinBell(bell)) {
                helper_.SleepBell(bell);
            }
        }
    }

    /** Runs @p chunk through the encoding half (its owner only). */
    void Encode(const StageChunk& chunk)
    {
        uint32_t done = 0;
        for (uint32_t k = 0; k < chunk.ops; ++k) {
            const StageOp& op = chunk.op[k];
            if (op.at != done) {
                encoder_.PutAccesses(chunk.ref + done, op.at - done);
                done = op.at;
            }
            Put(encoder_, op);
        }
        if (chunk.refs != done) {
            encoder_.PutAccesses(chunk.ref + done, chunk.refs - done);
        }
    }

    TraceEncoder& encoder_;
    std::unique_ptr<StageChunk[]> ring_;
    StageChunk* chunk_ = nullptr;  ///< The chunk the caller fills.
    uint64_t filling_ = 0;         ///< Its index (caller only).
    /// progress_ when the caller last gave up waiting (caller only).
    uint64_t stalled_at_ = ~uint64_t{0};

    /// Chunks published (written by the caller).
    alignas(64) std::atomic<uint64_t> filled_{0};
    /// 2 x chunks encoded, plus 1 while one is being encoded.
    alignas(64) std::atomic<uint64_t> state_{0};
    /// Chunks the helper encoded (written by the helper).
    std::atomic<uint64_t> progress_{0};
    /// The caller sleeps on this while the helper holds a chunk.
    alignas(64) std::atomic<uint32_t> caller_bell_{0};
    std::atomic<bool> caller_asleep_{false};

    PipeHelper helper_;
};

uint64_t
RecordHelperChunks()
{
    return g_record_helper_chunks.load(std::memory_order_relaxed);
}

RecordingHost::RecordingHost(WorkloadHost& host, TraceEncoder& encoder)
    : host_(host), encoder_(encoder)
{
    auto stage = std::make_unique<Stage>(encoder_);
    if (stage->Start()) {
        stage_ = std::move(stage);
    }
}

RecordingHost::~RecordingHost()
{
    StopRecording();
}

void
RecordingHost::StopRecording()
{
    recording_ = false;
    if (stage_ != nullptr) {
        stage_->Drain();
        stage_.reset();
    }
}

void
RecordingHost::Record(const StageOp& op)
{
    if (stage_ != nullptr) {
        stage_->Control(op);
    } else {
        Stage::Put(encoder_, op);
    }
}

Pid
RecordingHost::CreateProcess()
{
    const Pid pid = host_.CreateProcess();
    if (recording_) {
        Record({.code = kOpCreate, .pid = encoder_.NewPid(pid)});
    }
    return pid;
}

void
RecordingHost::DestroyProcess(Pid pid)
{
    if (recording_) {
        Record({.code = kOpDestroy, .pid = encoder_.DropPid(pid)});
    }
    host_.DestroyProcess(pid);
}

void
RecordingHost::MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                         vm::PageKind kind)
{
    if (recording_) {
        Record({.code = kOpMapRegion,
                .reg = static_cast<uint8_t>(kind),
                .pid = encoder_.TracePid(pid),
                .arg = base,
                .bytes = bytes});
    }
    host_.MapRegion(pid, base, bytes, kind);
}

void
RecordingHost::ShareSegment(Pid pid, unsigned reg, Pid other,
                            unsigned other_reg)
{
    if (recording_) {
        TraceEncoder::CheckSegmentRegs(reg, other_reg);
        const uint32_t trace_pid = encoder_.TracePid(pid);
        Record({.code = kOpShare,
                .reg = static_cast<uint8_t>(reg),
                .other_reg = static_cast<uint8_t>(other_reg),
                .pid = trace_pid,
                .arg = encoder_.TracePid(other)});
    }
    host_.ShareSegment(pid, reg, other, other_reg);
}

void
RecordingHost::Access(const MemRef& ref)
{
    if (recording_) {
        Accesses(&ref, 1);
    }
    host_.Access(ref);
}

void
RecordingHost::AccessBatch(const MemRef* refs, size_t n)
{
    if (recording_) {
        Accesses(refs, n);
    }
    host_.AccessBatch(refs, n);
}

void
RecordingHost::Accesses(const MemRef* refs, size_t n)
{
    if (stage_ != nullptr) {
        stage_->Accesses(refs, n);
    } else {
        encoder_.OnAccessBatch(refs, n);
    }
}

void
RecordingHost::OnContextSwitch()
{
    if (recording_) {
        Record({.code = kOpSwitch});
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
    // Fold the whole-file digest on a second thread while this one
    // writes and syncs the bytes; both finish before the call returns.
    uint64_t digest = digest_;
    std::thread fold;
    try {
        fold = std::thread(
            [&digest, &stream_bytes] {
                digest = FnvMix(digest, stream_bytes);
            });
    } catch (const std::system_error&) {
        digest = FnvMix(digest, stream_bytes);
    }
    const bool written = file_.Append(stream_bytes);
    if (fold.joinable()) {
        fold.join();
    }
    if (!written) {
        file_.Close();
        return Fail(error, "stream append failed");
    }
    digest_ = digest;
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
