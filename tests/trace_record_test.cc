/**
 * @file
 * Tests for the recording side of SPUR-TRACE/1 off the simulation
 * thread (DESIGN.md §19, record stage): RecordingHost's encode stage must write
 * the bytes the inline encoder writes, copy what it is given, raise
 * encoder misuse on the calling thread and start no helper without a
 * spare CPU; TraceFileWriter's overlapped digest must leave a failed
 * append without effect; and TraceRecordSession must commit streams in
 * declared order whatever order they are sealed in.
 */
#include <gtest/gtest.h>

#include <sched.h>
#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/workload/driver.h"
#include "src/workload/ref_pipe.h"
#include "src/workload/trace.h"
#include "tests/op_log.h"
#include "tests/temp_dir.h"

namespace spur::workload {
namespace {

/// Forces a helper: above any machine's thread count.
constexpr unsigned kHelperBudget = 1024;

/// Runs made to see a forced helper encode at least once.  On a loaded
/// machine the caller may encode every chunk of one run itself.
constexpr int kHelperAttempts = 8;

sim::MachineConfig
Config()
{
    return sim::MachineConfig::Prototype(8);
}

TraceStreamMeta
MetaFor(const std::string& workload, uint64_t refs)
{
    TraceStreamMeta meta;
    meta.workload = workload;
    meta.seed = 7;
    meta.refs = refs;
    meta.page_bytes = Config().page_bytes;
    meta.block_bytes = Config().block_bytes;
    return meta;
}

/** Records @p spec through RecordingHost over a CountingHost under a
 *  pipe budget of @p budget CPUs; returns the sealed stream bytes. */
std::string
RecordUnder(unsigned budget, const core::RunConfig& config, uint32_t slice)
{
    ScopedPipeBudget scoped(budget);
    CountingHost counting(Config());
    TraceEncoder encoder(MetaFor(core::ToString(config.workload),
                                 config.refs));
    RecordingHost recorder(counting, encoder);
    Driver driver(recorder, core::SpecFor(config), config.refs, config.seed,
                  slice);
    driver.Run();
    recorder.StopRecording();
    return encoder.Finish(driver.refs_issued());
}

core::RunConfig
CellFor(core::WorkloadId workload, uint64_t refs)
{
    core::RunConfig config;
    config.workload = workload;
    config.refs = refs;
    config.seed = 7;
    return config;
}

/** Every scenario of the library plus the paper's two workloads. */
std::vector<core::WorkloadId>
AllWorkloads()
{
    std::vector<core::WorkloadId> all = {core::WorkloadId::kWorkload1,
                                         core::WorkloadId::kSlc};
    for (const core::WorkloadId id : core::kScenarioLibrary) {
        all.push_back(id);
    }
    return all;
}

// ---- Identity ---------------------------------------------------------------

TEST(RecordStageTest, HelperWritesTheInlineBytesForEveryWorkload)
{
    const uint64_t before = RecordHelperChunks();
    for (const core::WorkloadId id : AllWorkloads()) {
        const core::RunConfig config = CellFor(id, 300'000);
        const uint32_t default_slice = core::SpecFor(config).slice_refs;
        // Slice 1 switches after every reference, so chunks fill with
        // control ops before they fill with references.
        for (const uint32_t slice : {default_slice, 1u}) {
            const std::string inline_bytes = RecordUnder(0, config, slice);
            const std::string helper_bytes =
                RecordUnder(kHelperBudget, config, slice);
            // Not EXPECT_EQ: a mismatch would print both streams.
            EXPECT_TRUE(helper_bytes == inline_bytes)
                << core::ToString(id) << " slice " << slice;
        }
    }
    const core::RunConfig config = CellFor(core::WorkloadId::kWorkload1,
                                           1'000'000);
    for (int attempt = 0;
         attempt < kHelperAttempts && RecordHelperChunks() == before;
         ++attempt) {
        RecordUnder(kHelperBudget, config, 2048);
    }
    EXPECT_GT(RecordHelperChunks(), before) << "the helper never encoded";
}

TEST(RecordStageTest, RecorderCopiesItsInput)
{
    OpLog log(Config());
    {
        Driver driver(log, core::SpecFor(CellFor(core::WorkloadId::kSlc, 0)),
                      200'000, /*seed=*/3, /*slice_refs=*/300);
        driver.Run();
    }
    const TraceStreamMeta meta = MetaFor("SLC", 200'000);
    TraceEncoder direct(meta);
    log.Replay(direct, /*chunk=*/~size_t{0});
    const std::string expected = direct.Finish(200'000);

    ScopedPipeBudget helper(kHelperBudget);
    CountingHost counting(Config());
    TraceEncoder encoder(meta);
    RecordingHost recorder(counting, encoder);
    log.Replay(recorder, /*scribble=*/true);
    recorder.StopRecording();
    EXPECT_TRUE(encoder.Finish(200'000) == expected);
}

// ---- Misuse is raised on the calling thread --------------------------------

/** Records through a forced helper, then issues @p misuse.  Exits 2 if
 *  the misuse call returns, which an error raised later would let it. */
template <class Misuse>
void
MisuseWithHelper(Misuse misuse)
{
    ScopedPipeBudget helper(kHelperBudget);
    CountingHost counting(Config());
    TraceEncoder encoder(MetaFor("misuse", 10'000));
    RecordingHost recorder(counting, encoder);
    const Pid pid = recorder.CreateProcess();
    std::vector<MemRef> refs(5'000, MemRef{pid, 0x40, AccessType::kRead});
    recorder.AccessBatch(refs.data(), refs.size());
    misuse(recorder, pid);
    std::fprintf(stderr, "misuse returned\n");
    std::exit(2);
}

TEST(RecordStageDeathTest, MisuseFailsOnTheCallingThreadWithTodaysMessage)
{
    EXPECT_EXIT(MisuseWithHelper([](RecordingHost& r, Pid pid) {
                    const MemRef ref{pid + 1, 0x80, AccessType::kWrite};
                    r.AccessBatch(&ref, 1);
                }),
                testing::ExitedWithCode(1), "was not created while recording");
    EXPECT_EXIT(MisuseWithHelper([](RecordingHost& r, Pid pid) {
                    r.DestroyProcess(pid);
                    const MemRef ref{pid, 0x80, AccessType::kRead};
                    r.Access(ref);
                }),
                testing::ExitedWithCode(1), "was not created while recording");
    EXPECT_EXIT(MisuseWithHelper([](RecordingHost& r, Pid pid) {
                    r.MapRegion(pid + 9, 0, 4096, vm::PageKind::kData);
                }),
                testing::ExitedWithCode(1), "was not created while recording");
    EXPECT_EXIT(MisuseWithHelper([](RecordingHost& r, Pid pid) {
                    r.ShareSegment(pid, 4, pid, 0);
                }),
                testing::ExitedWithCode(1),
                "segment register out of range");
}

/** A host that hands out the same pid twice. */
class RepeatingPidHost : public CountingHost
{
  public:
    RepeatingPidHost() : CountingHost(Config()) {}
    Pid CreateProcess() override { return 4; }
};

TEST(RecordStageDeathTest, DoubleCreateFailsOnTheCallingThread)
{
    EXPECT_EXIT(
        {
            ScopedPipeBudget helper(kHelperBudget);
            RepeatingPidHost host;
            TraceEncoder encoder(MetaFor("twice", 10));
            RecordingHost recorder(host, encoder);
            recorder.CreateProcess();
            recorder.CreateProcess();
            std::exit(2);
        },
        testing::ExitedWithCode(1), "host pid 4 created twice");
}

// ---- Spare cores ------------------------------------------------------------

TEST(RecordStageTest, NoHelperWithoutASpareCpu)
{
    const core::RunConfig config = CellFor(core::WorkloadId::kWorkload1,
                                           300'000);
    const uint64_t before = RecordHelperChunks();
    const std::string inline_bytes = RecordUnder(0, config, 2048);
    EXPECT_EQ(RecordHelperChunks(), before) << "budget 0 started a helper";

#if defined(__linux__)
    // `taskset -c 0`: the default budget is the affinity mask.
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved)) {
        ++first;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    std::string pinned_bytes;
    {
        CountingHost counting(Config());
        TraceEncoder encoder(MetaFor("WORKLOAD1", config.refs));
        RecordingHost recorder(counting, encoder);
        Driver driver(recorder, core::SpecFor(config), config.refs,
                      config.seed, 2048);
        driver.Run();
        recorder.StopRecording();
        pinned_bytes = encoder.Finish(driver.refs_issued());
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(RecordHelperChunks(), before) << "one CPU started a helper";
    EXPECT_TRUE(pinned_bytes == inline_bytes);
#endif
}

// ---- TraceFileWriter --------------------------------------------------------

/** Appends a small stream, then one the file-size limit cuts; exits 0
 *  when the failed append left the writer as the contract says. */
void
AppendPastTheFileSizeLimit(const std::string& path)
{
    TraceEncoder small(MetaFor("small", 10));
    const Pid pid = 1;
    small.OnCreateProcess(pid);
    small.OnAccess({pid, 0x40, AccessType::kRead});
    const std::string first = small.Finish(1);

    TraceEncoder large(MetaFor("large", 200'000));
    large.OnCreateProcess(pid);
    for (uint32_t i = 0; i < 200'000; ++i) {
        large.OnAccess({pid, i * 4096, AccessType::kWrite});
    }
    const std::string second = large.Finish(200'000);

    // The kernel refuses writes past the limit with EFBIG (SIGXFSZ is
    // ignored, so the process lives), like a full disk.
    signal(SIGXFSZ, SIG_IGN);
    const rlimit limit{64 * 1024, 64 * 1024};
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) {
        std::exit(10);
    }
    TraceFileWriter writer;
    std::string error;
    if (!writer.Open(path, &error) || !writer.AppendStream(first, &error) ||
        writer.streams() != 1) {
        std::exit(11);
    }
    if (writer.AppendStream(second, &error) ||
        error != "stream append failed") {
        std::exit(12);
    }
    if (writer.streams() != 1 || writer.is_open()) {
        std::exit(13);
    }
    // The trailer cannot be written after the failure...
    if (writer.Finish(&error) || error != "trace writer is not open") {
        std::exit(14);
    }
    // ...and the file recovers to the stream appended before it, whose
    // bytes the digest chain covers.
    const auto recovered = RecoverTraceFile(path, &error);
    if (!recovered || recovered->complete ||
        recovered->streams.size() != 1 ||
        recovered->streams[0].framed != first) {
        std::exit(15);
    }
    std::exit(0);
}

TEST(TraceFileWriterDeathTest, FailedAppendChangesNothingAndJoinsItsDigest)
{
    ScopedTempDir tmp;
    const std::string path = tmp.Path("limited.trc");
    EXPECT_EXIT(AppendPastTheFileSizeLimit(path), testing::ExitedWithCode(0),
                "");
}

TEST(TraceFileWriterTest, OverlappedDigestMatchesTheWholeFileDigest)
{
    ScopedTempDir tmp;
    const std::string path = tmp.Path("two.trc");
    std::vector<std::string> streams;
    for (const char* name : {"a", "b"}) {
        TraceEncoder encoder(MetaFor(name, 50'000));
        encoder.OnCreateProcess(1);
        for (uint32_t i = 0; i < 50'000; ++i) {
            encoder.OnAccess({1, i * 64, AccessType::kRead});
        }
        streams.push_back(encoder.Finish(50'000));
    }
    TraceFileWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, &error)) << error;
    for (const std::string& stream : streams) {
        ASSERT_TRUE(writer.AppendStream(stream, &error)) << error;
    }
    ASSERT_TRUE(writer.Finish(&error)) << error;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string bytes;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
        bytes.append(buf, n);
    }
    std::fclose(f);
    EXPECT_EQ(bytes, EncodeTraceFile(streams));
}

// ---- TraceRecordSession -----------------------------------------------------

std::string
SealedStream(const std::string& name)
{
    TraceEncoder encoder(MetaFor(name, 3));
    encoder.OnCreateProcess(1);
    encoder.OnAccess({1, 0x100, AccessType::kRead});
    return encoder.Finish(1);
}

std::vector<std::string>
StreamNames(const std::string& path)
{
    std::string error;
    const auto recovered = RecoverTraceFile(path, &error);
    EXPECT_TRUE(recovered.has_value()) << error;
    std::vector<std::string> names;
    if (recovered.has_value()) {
        for (const TraceStream& stream : recovered->streams) {
            names.push_back(stream.meta.workload);
        }
    }
    return names;
}

TEST(TraceRecordSessionTest, CommitsInDeclaredOrderWhateverOrderStreamsSeal)
{
    ScopedTempDir tmp;
    const std::string path = tmp.Path("ordered.trc");
    core::TraceRecordSession session;
    std::string error;
    ASSERT_TRUE(session.Open(path, &error)) << error;
    session.Expect({"a", "b", "c", "b"});
    for (const char* id : {"c", "a", "b", "undeclared"}) {
        ASSERT_TRUE(session.Claim(id));
    }
    session.Commit("c", SealedStream("c"));
    EXPECT_EQ(session.streams(), 0u) << "c was committed before a and b";
    session.Commit("undeclared", SealedStream("undeclared"));
    EXPECT_EQ(session.streams(), 1u) << "undeclared streams go at once";
    session.Commit("a", SealedStream("a"));
    EXPECT_EQ(session.streams(), 2u);
    session.Commit("b", SealedStream("b"));
    EXPECT_EQ(session.streams(), 4u);
    ASSERT_TRUE(session.Finish(&error)) << error;
    EXPECT_EQ(StreamNames(path),
              (std::vector<std::string>{"undeclared", "a", "b", "c"}));
}

TEST(TraceRecordSessionTest, HeldStreamsLandAtFinishWhenATurnNeverComes)
{
    ScopedTempDir tmp;
    const std::string path = tmp.Path("gap.trc");
    core::TraceRecordSession session;
    std::string error;
    ASSERT_TRUE(session.Open(path, &error)) << error;
    session.Expect({"never", "x", "y"});
    ASSERT_TRUE(session.Claim("y"));
    ASSERT_TRUE(session.Claim("x"));
    session.Commit("y", SealedStream("y"));
    session.Commit("x", SealedStream("x"));
    EXPECT_EQ(session.streams(), 0u);
    ASSERT_TRUE(session.Finish(&error)) << error;
    EXPECT_EQ(StreamNames(path), (std::vector<std::string>{"x", "y"}));
}

}  // namespace
}  // namespace spur::workload
