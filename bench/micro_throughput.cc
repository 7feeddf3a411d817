/**
 * @file
 * google-benchmark throughput measurement for the full-system reference
 * path: simulated-references-per-second through SpurSystem::Access()
 * across representative (dirty, ref) policy cells.
 *
 * Unlike micro_cache.cc, which times individual cache primitives, this
 * bench replays a fixed, pre-generated synthetic reference stream so the
 * number reported is the simulator's end-to-end per-reference cost —
 * segment mapping, cache lookup, policy dispatch, event counting, cycle
 * accounting — with reference *generation* excluded from the timed loop.
 * The items_per_second counter is the headline simulated-refs/sec figure
 * the CI perf gate tracks.
 *
 * The BM_Generate_* benches time the other half of a live run: the
 * workload driver generating the paper's workloads into the counts-only
 * host, reported as ns per generated reference.  BM_Live_WORKLOAD1 and
 * BM_Replay_WORKLOAD1 time whole cells, generation or trace decode plus
 * simulation, in two variants: `helper`, where the reference pipe may
 * produce on a spare core, and `inline`, where it is forced onto the
 * simulating thread (DESIGN.md §20).  BM_Encode_Scenarios
 * and BM_Recover time the trace recorder's two sides over the scenario
 * library: encoding a pre-captured op stream (ns per reference) and
 * recovering the encoded file (ns per byte).  BM_Record_Scenarios
 * issues the same op streams through RecordingHost, with its encode
 * stage on a spare core (`helper`) or on the calling thread (`inline`,
 * DESIGN.md §19, record stage).
 */
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/micro_common.h"

#include "src/core/system.h"
#include "src/policy/dirty_policy.h"
#include "src/policy/ref_policy.h"
#include "src/sim/config.h"
#include "src/sim/counters.h"
#include "src/workload/driver.h"
#include "src/workload/process.h"
#include "src/workload/profile.h"
#include "src/workload/ref_pipe.h"
#include "src/workload/trace.h"
#include "src/workload/workloads.h"
#include "tests/op_log.h"

namespace {

using namespace spur;

/// References in the replay buffer.  Large enough that one pass touches
/// the whole synthetic working set (cold misses amortized by the warmup
/// pass), small enough to regenerate quickly per benchmark.
constexpr size_t kBufRefs = 1 << 16;

/// Builds the deterministic replay buffer: the first kBufRefs references
/// a default-profile synthetic process would issue.  Generation reads
/// only the process's private RNG, so the stream is independent of the
/// policy cell under test.
std::vector<MemRef>
MakeRefStream(workload::WorkloadHost& host)
{
    workload::ProcessProfile profile;
    workload::SyntheticProcess proc(host, profile, /*seed=*/42);
    std::vector<MemRef> refs;
    refs.reserve(kBufRefs);
    for (size_t i = 0; i < kBufRefs; ++i) {
        refs.push_back(proc.Next());
    }
    return refs;
    // ~SyntheticProcess() destroys the pid; the bench recreates an
    // identical process (same seed, same fresh system) to replay into.
}

/// Replays the stream through the host's per-reference entry point.
/// Issued through the WorkloadHost interface — exactly how the workload
/// driver reaches the system — so interface dispatch is part of the
/// measured cost.
void
RunFullSystem(benchmark::State& state, policy::DirtyPolicyKind dirty,
              policy::RefPolicyKind ref, bool attach_counters,
              bool batched = false)
{
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    core::SpurSystem system(config, dirty, ref);
    sim::PerfCounters counters;
    if (attach_counters) {
        system.AttachPerfCounters(&counters);
    }
    workload::WorkloadHost& host = system;

    std::vector<MemRef> refs = MakeRefStream(host);
    workload::ProcessProfile profile;
    workload::SyntheticProcess proc(host, profile, /*seed=*/42);
    // Rewrite the recorded stream onto the live process's pid so the
    // replay resolves to the same global addresses.
    for (MemRef& r : refs) {
        r.pid = proc.pid();
    }
    // One warmup pass so steady-state (mostly-hit) behaviour dominates.
    for (const MemRef& r : refs) {
        host.Access(r);
    }

    if (batched) {
        // The driver's issue path: one AccessBatch() dispatch per quantum.
        for (auto _ : state) {
            host.AccessBatch(refs.data(), refs.size());
            benchmark::ClobberMemory();
        }
    } else {
        for (auto _ : state) {
            for (const MemRef& r : refs) {
                host.Access(r);
            }
            benchmark::ClobberMemory();
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(refs.size()));
}

void
BM_FullSystem_SPUR_MISS(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kSpur,
                  policy::RefPolicyKind::kMiss, /*attach_counters=*/false);
}
BENCHMARK(BM_FullSystem_SPUR_MISS);

void
BM_FullSystem_FAULT_NOREF(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kFault,
                  policy::RefPolicyKind::kNoRef, /*attach_counters=*/false);
}
BENCHMARK(BM_FullSystem_FAULT_NOREF);

void
BM_FullSystem_WRITE_REF(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kWrite,
                  policy::RefPolicyKind::kRef, /*attach_counters=*/false);
}
BENCHMARK(BM_FullSystem_WRITE_REF);

void
BM_FullSystem_MIN_NOREF(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kMin,
                  policy::RefPolicyKind::kNoRef, /*attach_counters=*/false);
}
BENCHMARK(BM_FullSystem_MIN_NOREF);

/// The observed variant: PerfCounters attached, every event mirrored.
/// Tracks the cost of observation staying *off* the unobserved path.
void
BM_FullSystem_SPUR_MISS_Observed(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kSpur,
                  policy::RefPolicyKind::kMiss, /*attach_counters=*/true);
}
BENCHMARK(BM_FullSystem_SPUR_MISS_Observed);

// Batched-issue variants: the same streams through AccessBatch(), the
// entry point the workload driver uses.  These are the headline
// simulated-refs/sec numbers.

void
BM_FullSystemBatch_SPUR_MISS(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kSpur,
                  policy::RefPolicyKind::kMiss, /*attach_counters=*/false,
                  /*batched=*/true);
}
BENCHMARK(BM_FullSystemBatch_SPUR_MISS);

void
BM_FullSystemBatch_FAULT_NOREF(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kFault,
                  policy::RefPolicyKind::kNoRef, /*attach_counters=*/false,
                  /*batched=*/true);
}
BENCHMARK(BM_FullSystemBatch_FAULT_NOREF);

void
BM_FullSystemBatch_WRITE_REF(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kWrite,
                  policy::RefPolicyKind::kRef, /*attach_counters=*/false,
                  /*batched=*/true);
}
BENCHMARK(BM_FullSystemBatch_WRITE_REF);

void
BM_FullSystemBatch_MIN_NOREF(benchmark::State& state)
{
    RunFullSystem(state, policy::DirtyPolicyKind::kMin,
                  policy::RefPolicyKind::kNoRef, /*attach_counters=*/false,
                  /*batched=*/true);
}
BENCHMARK(BM_FullSystemBatch_MIN_NOREF);

/** Reports @p refs as items and as `per_ref`, seconds per reference
 *  (the console prints it with an SI prefix, "15.8ns"). */
void
SetPerRef(benchmark::State& state, uint64_t refs)
{
    state.SetItemsProcessed(static_cast<int64_t>(refs));
    state.counters["per_ref"] = benchmark::Counter(
        static_cast<double>(refs),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// Generation: the driver and its synthetic processes over CountingHost,
// which accepts every reference without simulating it.  Each iteration
// is a fresh run from the start of the script, as a live cell is.

/// References per generation run: every WORKLOAD1 job has started.
constexpr uint64_t kGenerateRefs = 3'000'000;

void
RunGenerate(benchmark::State& state, workload::WorkloadSpec (*make)())
{
    // Inline: the generator's own cost, not the pipe's overlap.
    workload::ScopedPipeBudget inline_only(0);
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    uint64_t refs = 0;
    for (auto _ : state) {
        workload::CountingHost host(config);
        workload::WorkloadSpec spec = make();
        const uint32_t slice_refs = spec.slice_refs;
        workload::Driver driver(host, std::move(spec), kGenerateRefs,
                                /*seed=*/1, slice_refs);
        driver.Run();
        refs += host.accesses();
    }
    SetPerRef(state, refs);
}

void
BM_Generate_WORKLOAD1(benchmark::State& state)
{
    RunGenerate(state, workload::MakeWorkload1);
}
BENCHMARK(BM_Generate_WORKLOAD1)->Unit(benchmark::kMillisecond);

void
BM_Generate_SLC(benchmark::State& state)
{
    RunGenerate(state, workload::MakeSlc);
}
BENCHMARK(BM_Generate_SLC)->Unit(benchmark::kMillisecond);

// Whole cells: WORKLOAD1 on the 8 MB machine under SPUR/MISS, generated
// live or replayed from a recorded stream.  Each iteration is a fresh
// machine, as a cell is.

/// References per live or replayed cell.  Rates are per wall second
/// (UseRealTime): the helper's CPU time is not the simulating thread's.
constexpr uint64_t kCellRefs = 3'000'000;

void
BM_Live_WORKLOAD1(benchmark::State& state, bool helper)
{
    // `inline` forces the pipe onto this thread; `helper` leaves the
    // choice to the pipe's spare-core rule.
    std::optional<workload::ScopedPipeBudget> inline_only;
    if (!helper) {
        inline_only.emplace(0);
    }
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    uint64_t refs = 0;
    for (auto _ : state) {
        core::SpurSystem system(config, policy::DirtyPolicyKind::kSpur,
                                policy::RefPolicyKind::kMiss);
        workload::Driver driver(system, workload::MakeWorkload1(),
                                kCellRefs, /*seed=*/1);
        driver.Run();
        refs += driver.refs_issued();
    }
    SetPerRef(state, refs);
}
BENCHMARK_CAPTURE(BM_Live_WORKLOAD1, helper, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Live_WORKLOAD1, inline, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_Replay_WORKLOAD1(benchmark::State& state, bool helper)
{
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    workload::TraceStreamMeta meta;
    meta.workload = "WORKLOAD1";
    meta.seed = 1;
    meta.refs = kCellRefs;
    meta.page_bytes = config.page_bytes;
    meta.block_bytes = config.block_bytes;
    workload::CountingHost counting(config);
    workload::TraceEncoder encoder(meta);
    workload::RecordingHost recorder(counting, encoder);
    {
        workload::Driver driver(recorder, workload::MakeWorkload1(),
                                kCellRefs, /*seed=*/1);
        driver.Run();
        recorder.StopRecording();
        meta.refs = driver.refs_issued();
    }
    std::string error;
    const auto trace = workload::RecoverTraceBytes(
        workload::EncodeTraceFile({encoder.Finish(meta.refs)}), &error);
    if (!trace || trace->streams.size() != 1) {
        state.SkipWithError(error.c_str());
        return;
    }
    std::optional<workload::ScopedPipeBudget> inline_only;
    if (!helper) {
        inline_only.emplace(0);
    }
    uint64_t refs = 0;
    for (auto _ : state) {
        core::SpurSystem system(config, policy::DirtyPolicyKind::kSpur,
                                policy::RefPolicyKind::kMiss);
        refs += workload::ReplayStream(trace->streams[0], system).accesses;
    }
    SetPerRef(state, refs);
}
BENCHMARK_CAPTURE(BM_Replay_WORKLOAD1, helper, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Replay_WORKLOAD1, inline, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Trace recording: the scenario library's op streams, captured once, then
// re-issued straight into TraceEncoder (no generator, no host).

/// References per captured scenario stream.
constexpr uint64_t kEncodeRefs = 500'000;

/// One captured scenario stream: its meta, op log and driver clock.
struct Captured {
    workload::TraceStreamMeta meta;
    workload::OpLog log;
    uint64_t refs_issued = 0;
};

std::vector<Captured>
CaptureScenarios()
{
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    const std::pair<const char*, workload::WorkloadSpec (*)()> scenarios[] =
        {{"ctx-switch", workload::MakeCtxSwitchHeavy},
         {"flush-storm", workload::MakeFlushStorm},
         {"server-churn", workload::MakeServerChurn},
         {"gc-sweep", workload::MakeGcSweep}};
    std::vector<Captured> captured;
    captured.reserve(std::size(scenarios));
    for (const auto& [name, make] : scenarios) {
        Captured& c =
            captured.emplace_back(Captured{{}, workload::OpLog(config), 0});
        c.meta.workload = name;
        c.meta.seed = 1;
        c.meta.refs = kEncodeRefs;
        c.meta.page_bytes = config.page_bytes;
        c.meta.block_bytes = config.block_bytes;
        workload::WorkloadSpec spec = make();
        const uint32_t slice_refs = spec.slice_refs;
        workload::Driver driver(c.log, std::move(spec), kEncodeRefs,
                                /*seed=*/1, slice_refs);
        driver.Run();
        c.refs_issued = driver.refs_issued();
    }
    return captured;
}

std::string
Encode(const Captured& c)
{
    workload::TraceEncoder encoder(c.meta);
    c.log.Replay(encoder, /*chunk=*/~size_t{0});  // One call per quantum.
    return encoder.Finish(c.refs_issued);
}

void
BM_Encode_Scenarios(benchmark::State& state)
{
    const std::vector<Captured> captured = CaptureScenarios();
    uint64_t refs = 0;
    for (auto _ : state) {
        for (const Captured& c : captured) {
            std::string bytes = Encode(c);
            benchmark::DoNotOptimize(bytes.data());
            refs += c.log.refs().size();
        }
    }
    SetPerRef(state, refs);
}
BENCHMARK(BM_Encode_Scenarios)->Unit(benchmark::kMillisecond);

// The same op streams through RecordingHost, as a recording cell issues
// them: `helper` lets the encode stage run on a spare core (wall time
// per reference, the caller's cost), `inline` forces it onto the
// calling thread, which is what a saturated sweep runs.
void
BM_Record_Scenarios(benchmark::State& state, bool helper)
{
    const std::vector<Captured> captured = CaptureScenarios();
    std::optional<workload::ScopedPipeBudget> inline_only;
    if (!helper) {
        inline_only.emplace(0);
    }
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    uint64_t refs = 0;
    for (auto _ : state) {
        for (const Captured& c : captured) {
            workload::CountingHost counting(config);
            workload::TraceEncoder encoder(c.meta);
            workload::RecordingHost recorder(counting, encoder);
            c.log.Replay(recorder);
            recorder.StopRecording();
            std::string bytes = encoder.Finish(c.refs_issued);
            benchmark::DoNotOptimize(bytes.data());
            refs += c.log.refs().size();
        }
    }
    SetPerRef(state, refs);
}
BENCHMARK_CAPTURE(BM_Record_Scenarios, helper, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Record_Scenarios, inline, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void
BM_Recover(benchmark::State& state)
{
    std::vector<std::string> streams;
    for (const Captured& c : CaptureScenarios()) {
        streams.push_back(Encode(c));
    }
    const std::string file = workload::EncodeTraceFile(streams);
    uint64_t bytes = 0;
    for (auto _ : state) {
        std::string error;
        auto recovered = workload::RecoverTraceBytes(file, &error);
        if (!recovered || !recovered->complete) {
            state.SkipWithError(error.c_str());
            break;
        }
        benchmark::DoNotOptimize(recovered->streams.data());
        bytes += file.size();
    }
    state.SetBytesProcessed(static_cast<int64_t>(bytes));
    state.counters["per_byte"] = benchmark::Counter(
        static_cast<double>(bytes),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Recover)->Unit(benchmark::kMillisecond);

}  // namespace

SPUR_MICRO_BENCHMARK_MAIN()
