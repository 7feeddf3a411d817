// Harness-fidelity tests: the timing wrappers must not change what the
// simulator computes, and the spans they record must account for each
// cell's wall time.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

#include "harness/cells.h"
#include "harness/layers.h"
#include "src/core/experiment.h"
#include "src/workload/trace.h"

namespace perfbench {
namespace {

namespace core = spur::core;
namespace sim = spur::sim;
namespace workload = spur::workload;
using spur::policy::DirtyPolicyKind;
using spur::policy::RefPolicyKind;

constexpr uint64_t kRefs = 400'000;

Cell
SmallCell(core::WorkloadId id, uint32_t memory_mb, DirtyPolicyKind dirty,
          RefPolicyKind ref, CellMode mode)
{
    Cell cell;
    cell.config.workload = id;
    cell.config.memory_mb = memory_mb;
    cell.config.dirty = dirty;
    cell.config.ref = ref;
    cell.config.refs = kRefs;
    cell.config.seed = 7;
    cell.mode = mode;
    return cell;
}

/** Every counter and timing bucket of a cell equals RunOnce's. */
void
ExpectMatchesRunOnce(const Cell& cell, const CellResult& result)
{
    const core::RunResult expected = core::RunOnce(cell.config);
    EXPECT_EQ(result.refs, expected.refs_issued) << cell.Id();
    for (size_t e = 0; e < sim::kNumEvents; ++e) {
        const auto event = static_cast<sim::Event>(e);
        EXPECT_EQ(result.events.Get(event), expected.events.Get(event))
            << cell.Id() << " " << sim::ToString(event);
    }
    for (size_t b = 0; b < sim::kNumTimeBuckets; ++b) {
        const auto bucket = static_cast<sim::TimeBucket>(b);
        EXPECT_EQ(result.bucket_seconds[b], expected.bucket_seconds[b])
            << cell.Id() << " " << sim::ToString(bucket);
    }
}

/** A scratch directory removed at scope exit. */
class TempDir
{
  public:
    TempDir()
    {
        std::string tmpl =
            (std::filesystem::current_path() / "perfbench-XXXXXX")
                .string();
        path_ = mkdtemp(tmpl.data()) != nullptr ? tmpl : "";
    }
    ~TempDir()
    {
        if (!path_.empty()) {
            std::filesystem::remove_all(path_);
        }
    }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

TEST(Fidelity, WrappedLiveCellMatchesRunOnce)
{
    for (const Cell& cell :
         {SmallCell(core::WorkloadId::kWorkload1, 5, DirtyPolicyKind::kSpur,
                    RefPolicyKind::kNoRef, CellMode::kLive),
          SmallCell(core::WorkloadId::kSlc, 8, DirtyPolicyKind::kSpur,
                    RefPolicyKind::kRef, CellMode::kLive),
          SmallCell(core::WorkloadId::kServerChurn, 5, DirtyPolicyKind::kSpur,
                    RefPolicyKind::kMiss, CellMode::kLive)}) {
        for (bool traced : {false, true}) {
            Tracer tracer;
            const workload::WorkloadSpec spec = core::SpecFor(cell.config);
            CellInputs inputs;
            inputs.spec = &spec;
            auto system = MakeSystem(cell.config);
            const CellResult result =
                RunCell(cell, *system, inputs, traced ? &tracer : nullptr);
            EXPECT_TRUE(result.error.empty()) << result.error;
            ExpectMatchesRunOnce(cell, result);
            EXPECT_EQ(traced, !tracer.spans().empty());
        }
    }
}

TEST(Fidelity, RecordedCellMatchesRunOnceAndRecovers)
{
    TempDir dir;
    ASSERT_FALSE(dir.path().empty());
    const std::string path = dir.path() + "/cell.trace";
    const Cell cell = SmallCell(core::WorkloadId::kCtxSwitch, 5,
                                DirtyPolicyKind::kSpur, RefPolicyKind::kMiss,
                                CellMode::kRecord);
    workload::TraceFileWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path, &error)) << error;
    const workload::WorkloadSpec spec = core::SpecFor(cell.config);
    CellInputs inputs;
    inputs.spec = &spec;
    inputs.writer = &writer;
    Tracer tracer;
    auto system = MakeSystem(cell.config);
    const CellResult result = RunCell(cell, *system, inputs, &tracer);
    ASSERT_TRUE(result.error.empty()) << result.error;
    ExpectMatchesRunOnce(cell, result);
    ASSERT_TRUE(writer.Finish(&error)) << error;

    // The recorder's bytes equal a counts-only recording of the stream.
    EXPECT_EQ(result.stream_bytes, RecordStream(cell.config));
    const auto trace = workload::RecoverTraceFile(path, &error);
    ASSERT_TRUE(trace.has_value()) << error;
    ASSERT_TRUE(trace->complete);
    ASSERT_EQ(trace->streams.size(), 1u);
    EXPECT_EQ(trace->streams[0].framed, result.stream_bytes);
    EXPECT_EQ(trace->streams[0].accesses, result.stream_accesses);
}

TEST(Fidelity, WrappedReplayMatchesUnwrappedReplay)
{
    for (DirtyPolicyKind dirty :
         {DirtyPolicyKind::kFault, DirtyPolicyKind::kWrite,
          DirtyPolicyKind::kMin}) {
        const Cell cell = SmallCell(core::WorkloadId::kWorkload1, 5, dirty,
                                    RefPolicyKind::kRef, CellMode::kReplay);
        std::string error;
        const auto trace = workload::RecoverTraceBytes(
            workload::EncodeTraceFile({RecordStream(cell.config)}), &error);
        ASSERT_TRUE(trace.has_value()) << error;
        ASSERT_EQ(trace->streams.size(), 1u);

        auto plain = MakeSystem(cell.config);
        const workload::ReplayStats stats =
            workload::ReplayStream(trace->streams[0], *plain);

        Tracer tracer;
        CellInputs inputs;
        inputs.stream = &trace->streams[0];
        auto wrapped = MakeSystem(cell.config);
        const CellResult result = RunCell(cell, *wrapped, inputs, &tracer);
        ASSERT_TRUE(result.error.empty()) << result.error;
        EXPECT_EQ(result.refs, stats.refs_issued);
        EXPECT_EQ(result.digest, SimulationDigest(*plain, stats.refs_issued));
        for (size_t e = 0; e < sim::kNumEvents; ++e) {
            const auto event = static_cast<sim::Event>(e);
            EXPECT_EQ(result.events.Get(event), plain->events().Get(event));
        }
    }
}

TEST(Fidelity, SelfTimesAccountForEachCell)
{
    Tracer tracer;
    const Cell cells[] = {
        SmallCell(core::WorkloadId::kWorkload1, 5, DirtyPolicyKind::kSpur,
                  RefPolicyKind::kMiss, CellMode::kLive),
        SmallCell(core::WorkloadId::kFlushStorm, 5, DirtyPolicyKind::kSpur,
                  RefPolicyKind::kMiss, CellMode::kRecord),
    };
    TempDir dir;
    ASSERT_FALSE(dir.path().empty());
    workload::TraceFileWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(dir.path() + "/t.trace", &error)) << error;
    int64_t cell_wall = 0;
    for (size_t i = 0; i < 2; ++i) {
        const workload::WorkloadSpec spec = core::SpecFor(cells[i].config);
        CellInputs inputs;
        inputs.spec = &spec;
        inputs.writer = &writer;
        tracer.SetCell(static_cast<int32_t>(i));
        auto system = MakeSystem(cells[i].config);
        cell_wall += RunCell(cells[i], *system, inputs, &tracer).wall_ns;
    }
    ASSERT_TRUE(writer.Finish(&error)) << error;

    EXPECT_EQ(MaxNestingErrorNs(tracer.spans()), 0);
    int64_t self_sum = 0;
    int64_t cell_span = 0;
    for (const auto& [name, entry] : SelfTimes(tracer.spans())) {
        EXPECT_GE(entry.self_ns, 0) << name;
        self_sum += entry.self_ns;
        if (name == "cell") {
            cell_span = entry.total_ns;
        }
    }
    // Layers plus the harness's own share tile the cell spans exactly;
    // the cells' externally timed wall clock sits within a few clock
    // reads of them.
    EXPECT_EQ(self_sum, cell_span);
    EXPECT_LE(cell_span, cell_wall);
    EXPECT_LT(cell_wall - cell_span, 1'000'000);
    // Every layer of the record stack shows up.
    const auto self = SelfTimes(tracer.spans());
    for (const char* name :
         {"workload.gen", "core.access", "core.ctx_switch",
          "core.lifecycle.create", "trace.record.access",
          "trace.record.finish", "trace.write"}) {
        EXPECT_TRUE(self.count(name) == 1) << name;
    }
}

TEST(Fidelity, UntracedRunSamplesEveryQuantum)
{
    const Cell cell = SmallCell(core::WorkloadId::kSlc, 6,
                                DirtyPolicyKind::kSpur, RefPolicyKind::kMiss,
                                CellMode::kLive);
    const workload::WorkloadSpec spec = core::SpecFor(cell.config);
    CellInputs inputs;
    inputs.spec = &spec;
    auto system = MakeSystem(cell.config);
    const CellResult result = RunCell(cell, *system, inputs, nullptr);
    uint64_t refs = 0;
    int64_t wall = 0;
    for (const Quantum& q : result.quanta) {
        refs += q.refs;
        wall += q.wall_ns;
    }
    EXPECT_EQ(refs, result.refs);
    EXPECT_EQ(result.quanta.size(),
              result.events.Get(sim::Event::kContextSwitch));
    EXPECT_LE(wall, result.wall_ns);
}

}  // namespace
}  // namespace perfbench
