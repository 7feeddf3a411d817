/**
 * @file
 * The reference pipe (src/workload/ref_pipe.h, DESIGN.md §20) must be
 * invisible to the host.  With a helper producing ahead and with the
 * helper forced off, the driver and the trace replay make the same
 * WorkloadHost calls with the same references.  Accesses are compared
 * concatenated, because the host contract makes AccessBatch splits
 * invisible.  Control ops are compared in order.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/config.h"
#include "src/workload/driver.h"
#include "src/workload/ref_pipe.h"
#include "src/workload/trace.h"
#include "src/workload/workloads.h"
#include "tests/op_log.h"

namespace spur::workload {
namespace {

/// A budget no machine reaches: every pipe starts its helper.
constexpr unsigned kHelperBudget = 1024;
/// No CPU for anyone: every pipe produces inline.
constexpr unsigned kInlineBudget = 0;
constexpr uint64_t kSeed = 5;

sim::MachineConfig
Config()
{
    return sim::MachineConfig::Prototype(8);
}

/**
 * Lifetimes far below a quantum: spawns, reaps, respawns, idle gaps
 * and eight simultaneous spawns (more control ops than one replay
 * chunk carries) at any slice.
 */
WorkloadSpec
MakeChurn()
{
    ProcessProfile small;
    small.code_pages = 8;
    small.data_pages = 8;
    small.heap_pages = 16;
    small.stack_pages = 4;
    small.heap_ws_pages = 8;
    small.code_ws_pages = 4;
    WorkloadSpec spec;
    spec.name = "churn";
    ProcessProfile tiny = small;
    tiny.lifetime_refs = 13;
    spec.jobs.push_back(JobSpec{tiny, 0, 8, 9});
    ProcessProfile mid = small;
    mid.lifetime_refs = 5'000;
    spec.jobs.push_back(JobSpec{mid, 100, 1, 3'000, /*share_text=*/true,
                                /*share_data=*/true});
    ProcessProfile once = small;
    once.lifetime_refs = 30'000;
    spec.jobs.push_back(JobSpec{once, 2'000, 1, 0});
    return spec;
}

struct Case {
    const char* name;
    WorkloadSpec (*make)();
};

const Case kCases[] = {
    {"WORKLOAD1", MakeWorkload1},      {"SLC", MakeSlc},
    {"ctx_switch", MakeCtxSwitchHeavy}, {"flush_storm", MakeFlushStorm},
    {"server_churn", MakeServerChurn}, {"gc_sweep", MakeGcSweep},
    {"churn", MakeChurn},
};

/** References per run at @p slice: enough quanta to spawn and reap at
 *  the long slices, a bounded op log at the short ones. */
uint64_t
RefsAt(uint32_t slice)
{
    return slice == 1 ? 20'000 : slice == 7 ? 150'000 : 1'000'000;
}

/** Runs @p spec live under CPU budget @p budget, teardown included. */
OpLog
RunLive(WorkloadSpec spec, uint32_t slice, uint64_t refs, unsigned budget)
{
    ScopedPipeBudget scoped(budget);
    OpLog log(Config());
    {
        Driver driver(log, std::move(spec), refs, kSeed, slice);
        driver.Run();
        EXPECT_EQ(driver.refs_issued(), refs);
    }
    return log;
}

class PipeIdentityTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint32_t>>
{
};

TEST_P(PipeIdentityTest, HelperAndInlineIssueTheSameOps)
{
    const auto [index, slice] = GetParam();
    const Case& c = kCases[index];
    const uint64_t refs = RefsAt(slice);
    const OpLog helper = RunLive(c.make(), slice, refs, kHelperBudget);
    const OpLog inline_log = RunLive(c.make(), slice, refs, kInlineBudget);
    EXPECT_EQ(helper.refs().size(), inline_log.refs().size());
    EXPECT_TRUE(helper.SameOps(inline_log));
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, PipeIdentityTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kCases)),
                       ::testing::Values(1u, 7u, 2048u, 20000u)),
    [](const auto& info) {
        return std::string(kCases[std::get<0>(info.param)].name) +
               "_slice" + std::to_string(std::get<1>(info.param));
    });

TEST(RefPipeTest, ForcedBudgetsPickThePath)
{
    const uint64_t before = PipeHelperChunks();
    RunLive(MakeWorkload1(), 20'000, 200'000, kInlineBudget);
    EXPECT_EQ(PipeHelperChunks(), before) << "budget 0 started a helper";
    // On a loaded machine the caller may take over every chunk of one
    // run from a helper that got no CPU (DESIGN.md §20), so the helper
    // half gets a few runs to publish once; a helper that never can
    // still fails.
    constexpr int kHelperAttempts = 8;
    for (int attempt = 0;
         attempt < kHelperAttempts && PipeHelperChunks() == before;
         ++attempt) {
        RunLive(MakeWorkload1(), 20'000, 1'000'000, kHelperBudget);
    }
    EXPECT_GT(PipeHelperChunks(), before) << "the helper never published";
}

/** Runs @p spec through RunRefs calls of the sizes in @p steps (cycled)
 *  until @p refs are issued. */
OpLog
RunInSteps(WorkloadSpec spec, uint32_t slice, uint64_t refs,
           const std::vector<uint64_t>& steps, unsigned budget)
{
    ScopedPipeBudget scoped(budget);
    OpLog log(Config());
    {
        Driver driver(log, std::move(spec), refs, kSeed, slice);
        for (size_t k = 0; driver.refs_issued() < refs; ++k) {
            driver.RunRefs(std::min(steps[k % steps.size()],
                                    refs - driver.refs_issued()));
        }
        EXPECT_EQ(driver.refs_issued(), refs);
    }
    return log;
}

TEST(RefPipeTest, RunRefsAtQuantumBoundariesEqualsOneRun)
{
    // WORKLOAD1 never idles, so the reference clock at a context switch
    // is the accesses before it.  RunRefs calls that end on such
    // boundaries, in uneven steps, must reproduce one Run exactly: the
    // helper may not generate past a call's budget.
    constexpr uint32_t kSlice = 2048;
    constexpr uint64_t kRefs = 400'000;
    const OpLog whole =
        RunLive(MakeWorkload1(), kSlice, kRefs, kHelperBudget);
    const std::vector<uint64_t> switches = whole.RefsAtSwitches();
    ScopedPipeBudget helper(kHelperBudget);
    OpLog pieces(Config());
    {
        Driver driver(pieces, MakeWorkload1(), kRefs, kSeed, kSlice);
        const size_t quanta_steps[] = {1, 2, 5, 1, 3, 8, 13, 1, 21};
        size_t at = 0;
        for (size_t k = 0; driver.refs_issued() < kRefs; ++k) {
            at += quanta_steps[k % std::size(quanta_steps)];
            const uint64_t target =
                (at - 1 < switches.size()) ? switches[at - 1] : kRefs;
            driver.RunRefs(target - driver.refs_issued());
        }
    }
    EXPECT_TRUE(pieces.SameOps(whole));
}

TEST(RefPipeTest, RunRefsInUnevenIncrementsMatchesInline)
{
    // Calls that end mid-quantum cut the quantum; with the helper that
    // must still be exactly what the single-threaded path does.
    const std::vector<uint64_t> steps = {1, 2, 2047, 2048, 2049, 7, 19'999,
                                         20'001, 33'333};
    for (const Case& c : {kCases[0], kCases[4], kCases[6]}) {
        for (uint32_t slice : {7u, 2048u, 20000u}) {
            SCOPED_TRACE(std::string(c.name) + " slice " +
                         std::to_string(slice));
            const uint64_t refs = RefsAt(slice) / 4;
            const OpLog helper =
                RunInSteps(c.make(), slice, refs, steps, kHelperBudget);
            const OpLog inline_log =
                RunInSteps(c.make(), slice, refs, steps, kInlineBudget);
            EXPECT_TRUE(helper.SameOps(inline_log));
        }
    }
}

/** Records @p c at its own slice against @p host and recovers the
 *  stream. */
TraceStream
RecordStream(const Case& c, uint64_t refs, WorkloadHost& host)
{
    const sim::MachineConfig config = Config();
    TraceStreamMeta meta;
    meta.workload = c.name;
    meta.seed = kSeed;
    meta.refs = refs;
    meta.page_bytes = config.page_bytes;
    meta.block_bytes = config.block_bytes;
    TraceEncoder encoder(meta);
    RecordingHost recorder(host, encoder);
    WorkloadSpec spec = c.make();
    const uint32_t slice = spec.slice_refs;
    Driver driver(recorder, std::move(spec), refs, kSeed, slice);
    driver.Run();
    recorder.StopRecording();
    std::string error;
    auto trace = RecoverTraceBytes(
        EncodeTraceFile({encoder.Finish(driver.refs_issued())}), &error);
    EXPECT_TRUE(trace.has_value()) << error;
    return trace.has_value() ? trace->streams.at(0) : TraceStream{};
}

TEST(RefPipeTest, ReplayDecodeAheadMatchesInlineWithRemappedPids)
{
    // Host pids start at 100, so every chunk's trace pids are rewritten,
    // and the replayed references must be the live run's.
    for (const Case& c : kCases) {
        SCOPED_TRACE(c.name);
        OpLog live(Config(), /*first_pid=*/100);
        const TraceStream stream = RecordStream(c, 300'000, live);
        ASSERT_GT(stream.accesses, 0u);
        ReplayStats stats[2];
        std::vector<OpLog> logs;
        for (unsigned budget : {kHelperBudget, kInlineBudget}) {
            ScopedPipeBudget scoped(budget);
            OpLog& log = logs.emplace_back(Config(), /*first_pid=*/100);
            stats[logs.size() - 1] = ReplayStream(stream, log);
        }
        EXPECT_TRUE(logs[0].SameOps(logs[1]));
        EXPECT_TRUE(logs[0].SameRefs(live));
        EXPECT_EQ(stats[0].accesses, stats[1].accesses);
        EXPECT_EQ(stats[0].context_switches, stats[1].context_switches);
        EXPECT_EQ(stats[0].processes, stats[1].processes);
        EXPECT_EQ(stats[0].refs_issued, stream.refs_issued);
    }
}

TEST(RefPipeTest, ReplaySplitsChunksWherePidsChange)
{
    // The driver switches context between quanta, so its streams change
    // pid only after a control op.  A stream may also change pid between
    // two accesses; each chunk must still be remapped as its own pid.
    const sim::MachineConfig config = Config();
    TraceStreamMeta meta;
    meta.workload = "interleaved";
    meta.page_bytes = config.page_bytes;
    meta.block_bytes = config.block_bytes;
    TraceEncoder encoder(meta);
    encoder.OnCreateProcess(7);
    encoder.OnCreateProcess(9);
    std::vector<MemRef> refs;
    for (uint32_t i = 0; refs.size() < 3 * kChunkRefs; ++i) {
        for (uint32_t k = 0; k <= i % 5; ++k) {
            refs.push_back(MemRef{(i % 2 == 0) ? 7u : 9u, 64 * i + 4 * k,
                                  AccessType::kRead});
        }
    }
    encoder.OnAccessBatch(refs.data(), refs.size());
    std::string error;
    const auto trace = RecoverTraceBytes(
        EncodeTraceFile({encoder.Finish(refs.size())}), &error);
    ASSERT_TRUE(trace.has_value()) << error;

    OpLog expected(config, /*first_pid=*/100);
    expected.CreateProcess();
    expected.CreateProcess();
    for (MemRef& ref : refs) {
        ref.pid = (ref.pid == 7) ? 100 : 101;
    }
    expected.AccessBatch(refs.data(), refs.size());
    for (unsigned budget : {kHelperBudget, kInlineBudget}) {
        ScopedPipeBudget scoped(budget);
        OpLog log(config, /*first_pid=*/100);
        ReplayStream(trace->streams.at(0), log);
        EXPECT_TRUE(log.SameOps(expected)) << "budget " << budget;
    }
}

/**
 * Consecutive addresses, produced by a copy that stalls on every fifth
 * chunk when it runs ahead, as a descheduled helper would.
 */
struct StallingSource {
    uint32_t next = 0;

    bool Produce(RefChunk* chunk, bool ahead)
    {
        if (ahead && next / kChunkRefs % 5 == 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        chunk->n = kChunkRefs;
        for (size_t i = 0; i < kChunkRefs; ++i) {
            chunk->refs[i] = MemRef{1, next++, AccessType::kRead};
        }
        return true;
    }
};

TEST(RefPipeTest, StalledHelperIsTakenOverWithoutChangingTheStream)
{
    // The caller takes the stalled chunks over, the helper catches up
    // through the mailbox, and the caller still sees one stream.
    ScopedPipeBudget helper(kHelperBudget);
    constexpr uint32_t kChunks = 200;
    uint32_t expect = 0;
    bool in_order = true;
    {
        RefPipe<RefChunk, StallingSource> pipe(StallingSource{}, kChunks);
        for (uint32_t c = 0; c < kChunks; ++c) {
            const RefChunk& chunk = pipe.Acquire();
            in_order = in_order && chunk.n == kChunkRefs;
            for (size_t i = 0; i < chunk.n; ++i) {
                in_order = in_order && chunk.refs[i].addr == expect++;
            }
            pipe.Release();
            in_order = in_order && pipe.source().next == expect;
        }
    }
    EXPECT_TRUE(in_order);
    EXPECT_EQ(expect, kChunks * kChunkRefs);
}

TEST(RefPipeDeathTest, MalformedOpStreamStillFatalsOnTheHelperPath)
{
    const sim::MachineConfig config = Config();
    TraceStream stream;
    stream.meta.workload = "malformed";
    stream.meta.page_bytes = config.page_bytes;
    stream.meta.block_bytes = config.block_bytes;
    // create 0, setpid 0, several chunks of reads, then opcode 0x7f.
    stream.ops = std::string("\x00\x00\x05\x00", 4);
    for (int i = 0; i < 5 * 2048; ++i) {
        stream.ops += std::string("\x07\x00", 2);
    }
    stream.ops += '\x7f';
    EXPECT_DEATH(
        {
            ScopedPipeBudget helper(kHelperBudget);
            OpLog host(config);
            ReplayStream(stream, host);
        },
        "malformed op stream escaped validation");
}

}  // namespace
}  // namespace spur::workload
