/**
 * @file
 * Equivalence pins for the SPUR-TRACE/1 recorder's fast path
 * (src/workload/trace.cc, DESIGN.md §19 "Encoder fast path").
 *
 * The digests below were pinned against the straightforward per-byte
 * encoder and per-frame recovery before the fast path replaced them, so
 * a rewrite that moves one encoded byte, one frame split, one recovery
 * verdict or one error message fails here:
 *
 *   - every split of one op sequence into OnAccessBatch calls encodes
 *     exactly what per-reference OnAccess does;
 *   - a hand-built stream reaches every zigzag-delta length boundary,
 *     changes pid inside one batch and recycles a destroyed host pid;
 *   - recovery of a bit flip and of a truncation at every byte offset
 *     of a small two-stream trace (and at every frame boundary plus a
 *     stride of a multi-batch trace) gives the pinned outcomes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/config.h"
#include "src/workload/driver.h"
#include "src/workload/trace.h"
#include "src/workload/workloads.h"
#include "tests/op_log.h"

namespace spur::workload {
namespace {

uint64_t
Fnv1a64(const std::string& bytes, uint64_t digest = 14695981039346656037ULL)
{
    for (const char c : bytes) {
        digest ^= static_cast<unsigned char>(c);
        digest *= 1099511628211ULL;
    }
    return digest;
}

std::string
Hex(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

TraceStreamMeta
MetaFor(const std::string& workload, uint64_t refs)
{
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    TraceStreamMeta meta;
    meta.workload = workload;
    meta.seed = 3;
    meta.refs = refs;
    meta.page_bytes = config.page_bytes;
    meta.block_bytes = config.block_bytes;
    return meta;
}

/** Encodes @p log under @p chunk (see OpLog::Replay). */
std::string
Encode(const TraceStreamMeta& meta, const OpLog& log, size_t chunk,
       uint64_t refs_issued)
{
    TraceEncoder encoder(meta);
    log.Replay(encoder, chunk);
    return encoder.Finish(refs_issued);
}

// ---- Batch splits ---------------------------------------------------------

TEST(TraceEncoderTest, EveryBatchSplitMatchesPerRefEncoding)
{
    // Enough references that each stream spans several 64 KiB B frames,
    // so the frame split points are part of the comparison.
    constexpr uint64_t kRefs = 150'000;
    const std::pair<const char*, WorkloadSpec (*)()> scenarios[] = {
        {"ctx-switch", MakeCtxSwitchHeavy},
        {"flush-storm", MakeFlushStorm},
        {"server-churn", MakeServerChurn},
        {"gc-sweep", MakeGcSweep},
    };
    for (const auto& [name, make] : scenarios) {
        OpLog log(sim::MachineConfig::Prototype(8));
        WorkloadSpec spec = make();
        const uint32_t slice_refs = spec.slice_refs;
        Driver driver(log, std::move(spec), kRefs, /*seed=*/3, slice_refs);
        driver.Run();
        const TraceStreamMeta meta = MetaFor(name, kRefs);
        const std::string per_ref =
            Encode(meta, log, 0, driver.refs_issued());
        ASSERT_GT(per_ref.size(), 3u * 64 * 1024) << name;
        for (const size_t chunk : {size_t{1}, size_t{2}, size_t{7},
                                   size_t{4096}, ~size_t{0}}) {
            EXPECT_EQ(Encode(meta, log, chunk, driver.refs_issued()),
                      per_ref)
                << name << " chunk " << chunk;
        }
    }
}

TEST(TraceEncoderTest, EmptyBatchEncodesNothing)
{
    const TraceStreamMeta meta = MetaFor("empty-batch", 1);
    TraceEncoder plain(meta);
    plain.OnCreateProcess(2);
    plain.OnAccess(MemRef{2, 0x40, AccessType::kRead});
    TraceEncoder batched(meta);
    batched.OnAccessBatch(nullptr, 0);
    batched.OnCreateProcess(2);
    batched.OnAccessBatch(nullptr, 0);
    const MemRef ref{2, 0x40, AccessType::kRead};
    batched.OnAccessBatch(&ref, 1);
    batched.OnAccessBatch(&ref, 0);
    EXPECT_EQ(batched.ops(), plain.ops());
    EXPECT_EQ(batched.accesses(), plain.accesses());
    EXPECT_EQ(batched.Finish(1), plain.Finish(1));
}

// ---- Hand-built boundary stream -------------------------------------------

/**
 * Address deltas at every zigzag length boundary: a zigzag value of
 * 2^(7k) - 1 is the longest k-byte LEB128 and 2^(7k) the shortest
 * (k+1)-byte one, for k = 1..4; ±(2^32 - 1) reach the 5-byte maximum a
 * 32-bit address difference can need.
 */
std::vector<int64_t>
BoundaryDeltas()
{
    std::vector<int64_t> deltas = {0, 1, -1, 63, -63, 64, -64, -65};
    for (int k = 1; k <= 4; ++k) {
        const int64_t full = int64_t{1} << (7 * k);
        const int64_t half = full >> 1;
        for (const int64_t d : {half - 1, half, half + 1, full - 1, full}) {
            deltas.push_back(d);
            deltas.push_back(-d);
        }
    }
    deltas.push_back(0xFFFFFFFFLL);
    deltas.push_back(-0xFFFFFFFFLL);
    return deltas;
}

/** The boundary stream's references, alternating between two pids. */
std::vector<MemRef>
BoundaryRefs(Pid a, Pid b)
{
    std::vector<MemRef> refs;
    const AccessType types[] = {AccessType::kIFetch, AccessType::kRead,
                                AccessType::kWrite};
    size_t i = 0;
    for (const int64_t delta : BoundaryDeltas()) {
        // Anchor where the delta stays inside the 32-bit space.
        const int64_t from = (delta >= 0) ? 0 : 0xFFFFFFFFLL;
        for (const int64_t addr : {from, from + delta}) {
            const Pid pid = ((i / 3) % 2 == 0) ? a : b;
            refs.push_back(MemRef{pid, static_cast<ProcessAddr>(addr),
                                  types[i % 3]});
            ++i;
        }
    }
    return refs;
}

/** Encodes the boundary stream, its accesses split into @p chunk. */
std::string
BoundaryStream(size_t chunk)
{
    TraceEncoder encoder(MetaFor("boundaries", 0));
    encoder.OnCreateProcess(40);
    encoder.OnCreateProcess(41);
    encoder.OnMapRegion(40, 0, 0xFFFFFFFFULL + 1, vm::PageKind::kData);
    encoder.OnMapRegion(41, 0, 0xFFFFFFFFULL + 1, vm::PageKind::kStack);
    const std::vector<MemRef> refs = BoundaryRefs(40, 41);
    for (size_t i = 0; i < refs.size();) {
        const size_t n = std::min(chunk, refs.size() - i);
        encoder.OnAccessBatch(&refs[i], n);
        i += n;
    }
    // Destroy the pid the last access cached, then recycle the host pid:
    // it must get a fresh trace pid, not the cached one.
    const Pid cached = refs.back().pid;
    encoder.OnDestroyProcess(cached);
    encoder.OnContextSwitch();
    encoder.OnCreateProcess(cached);
    encoder.OnShareSegment(cached, 3, 40, 2);
    const MemRef again[] = {
        {cached, 0x1234, AccessType::kWrite},
        {40, 0x1234, AccessType::kRead},
        {cached, 0x1235, AccessType::kIFetch},
    };
    encoder.OnAccessBatch(again, 3);
    encoder.OnAccess(MemRef{cached, 0x80000000, AccessType::kRead});
    return encoder.Finish(refs.size() + 4);
}

TEST(TraceEncoderTest, BoundaryStreamDigestIsPinned)
{
    const std::string whole = BoundaryStream(~size_t{0});
    EXPECT_EQ(Hex(Fnv1a64(whole)), "f0ee52cf4d10286a");
    for (const size_t chunk : {size_t{1}, size_t{2}, size_t{7}}) {
        EXPECT_EQ(BoundaryStream(chunk), whole) << "chunk " << chunk;
    }
}

TEST(TraceEncoderTest, BoundaryStreamDecodesToItsReferences)
{
    std::string error;
    const auto recovered =
        RecoverTraceBytes(EncodeTraceFile({BoundaryStream(5)}), &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    ASSERT_EQ(recovered->streams.size(), 1u);
    OpLog replayed(sim::MachineConfig::Prototype(8));
    ReplayStream(recovered->streams[0], replayed);

    // OpLog hands out pids 1, 2, 3 in creation order: 40, 41, then the
    // recycled host pid.
    std::vector<MemRef> expected = BoundaryRefs(1, 2);
    const Pid recycled = 3;
    expected.push_back({recycled, 0x1234, AccessType::kWrite});
    expected.push_back({1, 0x1234, AccessType::kRead});
    expected.push_back({recycled, 0x1235, AccessType::kIFetch});
    expected.push_back({recycled, 0x80000000, AccessType::kRead});
    ASSERT_EQ(replayed.refs().size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(replayed.refs()[i].pid, expected[i].pid) << i;
        EXPECT_EQ(replayed.refs()[i].addr, expected[i].addr) << i;
        EXPECT_EQ(replayed.refs()[i].type, expected[i].type) << i;
    }
}

/** Accesses host pid 5 after destroying it while it is the cached pid. */
void
AccessDestroyedCachedPid(bool batched)
{
    const MemRef ref{5, 0x100, AccessType::kRead};
    const MemRef other{6, 0x40, AccessType::kRead};
    const MemRef refs[] = {other, ref};
    TraceEncoder encoder(MetaFor("destroyed", 1));
    encoder.OnCreateProcess(5);
    encoder.OnCreateProcess(6);
    if (batched) {
        encoder.OnAccessBatch(refs, 2);  // Ends with host pid 5 cached.
    } else {
        encoder.OnAccess(ref);
    }
    encoder.OnDestroyProcess(5);
    if (batched) {
        encoder.OnAccessBatch(refs, 2);
    } else {
        encoder.OnAccess(ref);
    }
}

TEST(TraceEncoderDeathTest, DestroyedCachedPidStillFatals)
{
    EXPECT_EXIT(AccessDestroyedCachedPid(false), testing::ExitedWithCode(1),
                "was not created while recording");
    EXPECT_EXIT(AccessDestroyedCachedPid(true), testing::ExitedWithCode(1),
                "was not created while recording");
}

// ---- Recovery outcomes ----------------------------------------------------

/** One recovery verdict, rendered so any difference changes the text. */
std::string
Outcome(const std::string& bytes)
{
    std::string error;
    const auto recovered = RecoverTraceBytes(bytes, &error);
    if (!recovered) {
        return "corrupt: " + error + "\n";
    }
    uint64_t digest = Fnv1a64("");
    for (const TraceStream& stream : recovered->streams) {
        digest = Fnv1a64(stream.ops, digest);
        digest = Fnv1a64(stream.framed, digest);
        digest = Fnv1a64(stream.meta.Identity(), digest);
    }
    return std::string(recovered->complete ? "complete" : "truncated") +
           " streams=" + std::to_string(recovered->streams.size()) +
           " dropped=" + std::to_string(recovered->dropped_bytes) +
           " content=" + Hex(digest) + " note=" + recovered->note + "\n";
}

/** A small two-stream trace: one B frame per stream. */
std::string
SmallTwoStreamTrace()
{
    TraceEncoder first(MetaFor("small-a", 4));
    first.OnCreateProcess(9);
    first.OnMapRegion(9, 0x40000000, 0x2000, vm::PageKind::kData);
    const MemRef refs[] = {{9, 0x40000010, AccessType::kRead},
                           {9, 0x40000014, AccessType::kWrite},
                           {9, 0x3ffffff0, AccessType::kIFetch}};
    first.OnAccessBatch(refs, 3);
    first.OnContextSwitch();
    first.OnDestroyProcess(9);
    TraceEncoder second(MetaFor("small-b", 2));
    second.OnCreateProcess(1);
    second.OnCreateProcess(2);
    second.OnShareSegment(2, 1, 1, 0);
    second.OnAccess(MemRef{2, 0x00000020, AccessType::kIFetch});
    second.OnAccess(MemRef{1, 0x7fffffff, AccessType::kRead});
    return EncodeTraceFile({first.Finish(4), second.Finish(2)});
}

TEST(TraceEncoderTest, RecoveryOfEveryFlipAndCutIsPinned)
{
    const std::string file = SmallTwoStreamTrace();
    ASSERT_EQ(Outcome(file).rfind("complete streams=2", 0), 0u)
        << Outcome(file);
    std::string outcomes;
    for (size_t offset = 0; offset <= file.size(); ++offset) {
        outcomes += Outcome(file.substr(0, offset));
        if (offset == file.size()) {
            break;
        }
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = file;
            flipped[offset] = static_cast<char>(flipped[offset] ^ (1 << bit));
            outcomes += Outcome(flipped);
        }
    }
    EXPECT_EQ(file.size(), 521u);
    EXPECT_EQ(Hex(Fnv1a64(outcomes)), "cb8a2d48c1701738");
}

/** Offsets of every frame start in @p file (which must be well formed). */
std::vector<size_t>
FrameStarts(const std::string& file)
{
    std::vector<size_t> starts;
    size_t pos = std::string(kTraceMagic).size();
    while (pos < file.size()) {
        starts.push_back(pos);
        const size_t newline = file.find('\n', pos);
        const size_t length = std::stoull(file.substr(pos + 2));
        pos = newline + 1 + length + 1;
    }
    return starts;
}

TEST(TraceEncoderTest, RecoveryOfMultiBatchTraceIsPinned)
{
    // Two recorded streams of several B frames each: flips and cuts at
    // every frame boundary (± a few bytes) and on a stride through the
    // payloads.
    std::vector<std::string> streams;
    const std::pair<const char*, WorkloadSpec (*)()> scenarios[] = {
        {"ctx-switch", MakeCtxSwitchHeavy},
        {"gc-sweep", MakeGcSweep},
    };
    for (const auto& [name, make] : scenarios) {
        constexpr uint64_t kRefs = 40'000;
        OpLog log(sim::MachineConfig::Prototype(8));
        WorkloadSpec spec = make();
        const uint32_t slice_refs = spec.slice_refs;
        Driver driver(log, std::move(spec), kRefs, /*seed=*/3, slice_refs);
        driver.Run();
        streams.push_back(
            Encode(MetaFor(name, kRefs), log, 0, driver.refs_issued()));
    }
    const std::string file = EncodeTraceFile(streams);
    const std::vector<size_t> starts = FrameStarts(file);

    std::vector<size_t> offsets;
    for (const size_t start : starts) {
        for (size_t d = 0; d < 12; ++d) {
            if (start + d >= 3) {
                offsets.push_back(start + d - 3);
            }
        }
    }
    for (size_t offset = 0; offset < file.size(); offset += 997) {
        offsets.push_back(offset);
    }
    std::string outcomes;
    for (const size_t offset : offsets) {
        outcomes += Outcome(file.substr(0, offset));
        std::string flipped = file;
        flipped[offset] = static_cast<char>(flipped[offset] ^
                                            (1 << (offset % 8)));
        outcomes += Outcome(flipped);
    }
    EXPECT_EQ(starts.size(), 11u);
    EXPECT_EQ(file.size(), 314492u);
    EXPECT_EQ(Hex(Fnv1a64(outcomes)), "1273b8a3144fcf17");
}

}  // namespace
}  // namespace spur::workload
