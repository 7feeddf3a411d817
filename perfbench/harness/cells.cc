#include "harness/cells.h"

#include <cstring>
#include <optional>
#include <utility>

#include "src/core/run_trace.h"
#include "src/sim/timing.h"
#include "src/workload/driver.h"

namespace perfbench {

namespace core = spur::core;
namespace sim = spur::sim;
namespace workload = spur::workload;
using spur::policy::DirtyPolicyKind;
using spur::policy::RefPolicyKind;

const char* const kWorkloadNames[3] = {"paper-live", "policy-replay",
                                       "scenario-record"};

std::string
Cell::Id() const
{
    return std::string(core::ToString(config.workload)) + "/" +
           std::to_string(config.memory_mb) + "MB/" +
           spur::policy::ToString(config.dirty) + "/" +
           spur::policy::ToString(config.ref);
}

namespace {

Cell
MakeCell(core::WorkloadId id, uint32_t memory_mb, DirtyPolicyKind dirty,
         RefPolicyKind ref, uint64_t seed, CellMode mode)
{
    Cell cell;
    cell.config.workload = id;
    cell.config.memory_mb = memory_mb;
    cell.config.dirty = dirty;
    cell.config.ref = ref;
    cell.config.refs = kCellRefs;
    cell.config.seed = seed;
    cell.mode = mode;
    return cell;
}

constexpr core::WorkloadId kPaperWorkloads[] = {core::WorkloadId::kWorkload1,
                                                core::WorkloadId::kSlc};

}  // namespace

bool
MakeWorkload(const std::string& name, uint64_t seed, Workload* out)
{
    out->name = name;
    out->cells.clear();
    if (name == "paper-live") {
        // Table 4.1: both paper workloads x 5/6/8 MB x MISS/REF/NOREF
        // under the SPUR dirty policy, generated live.
        for (core::WorkloadId id : kPaperWorkloads) {
            for (uint32_t mb : {5u, 6u, 8u}) {
                for (RefPolicyKind ref : {RefPolicyKind::kMiss,
                                          RefPolicyKind::kRef,
                                          RefPolicyKind::kNoRef}) {
                    out->cells.push_back(MakeCell(id, mb,
                                                  DirtyPolicyKind::kSpur, ref,
                                                  seed, CellMode::kLive));
                }
            }
        }
        return true;
    }
    if (name == "policy-replay") {
        // Table 3.4's five dirty policies x MISS/REF at 5 MB, plus
        // SPUR x MISS/REF at 8 MB, replayed from recorded streams.
        for (core::WorkloadId id : kPaperWorkloads) {
            for (DirtyPolicyKind dirty :
                 {DirtyPolicyKind::kFault, DirtyPolicyKind::kFlush,
                  DirtyPolicyKind::kSpur, DirtyPolicyKind::kWrite,
                  DirtyPolicyKind::kMin}) {
                for (RefPolicyKind ref :
                     {RefPolicyKind::kMiss, RefPolicyKind::kRef}) {
                    out->cells.push_back(
                        MakeCell(id, 5, dirty, ref, seed, CellMode::kReplay));
                }
            }
            for (RefPolicyKind ref :
                 {RefPolicyKind::kMiss, RefPolicyKind::kRef}) {
                out->cells.push_back(MakeCell(id, 8, DirtyPolicyKind::kSpur,
                                              ref, seed, CellMode::kReplay));
            }
        }
        return true;
    }
    if (name == "scenario-record") {
        // The scenario library at 5 MB under SPUR/MISS, recorded.
        for (core::WorkloadId id : core::kScenarioLibrary) {
            out->cells.push_back(MakeCell(id, 5, DirtyPolicyKind::kSpur,
                                          RefPolicyKind::kMiss, seed,
                                          CellMode::kRecord));
        }
        return true;
    }
    return false;
}

std::unique_ptr<core::SpurSystem>
MakeSystem(const core::RunConfig& config)
{
    sim::MachineConfig machine = sim::MachineConfig::Prototype(config.memory_mb);
    machine.page_in_us =
        (config.page_in_us > 0) ? config.page_in_us : core::kScaledPageInUs;
    return std::make_unique<core::SpurSystem>(machine, config.dirty,
                                              config.ref);
}

std::string
RecordStream(const core::RunConfig& config)
{
    const sim::MachineConfig machine =
        sim::MachineConfig::Prototype(config.memory_mb);
    workload::CountingHost counting(machine);
    workload::TraceEncoder encoder(core::TraceMetaFor(config));
    workload::RecordingHost recorder(counting, encoder);
    workload::WorkloadSpec spec = core::SpecFor(config);
    const uint32_t slice_refs = spec.slice_refs;
    workload::Driver driver(recorder, std::move(spec), config.refs,
                            config.seed, slice_refs);
    driver.Run();
    recorder.StopRecording();
    return encoder.Finish(driver.refs_issued());
}

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void
FnvAdd(uint64_t* digest, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        *digest ^= (value >> (8 * i)) & 0xff;
        *digest *= kFnvPrime;
    }
}

}  // namespace

uint64_t
SimulationDigest(const core::SpurSystem& system, uint64_t refs_issued)
{
    uint64_t digest = kFnvOffset;
    for (size_t i = 0; i < sim::kNumEvents; ++i) {
        FnvAdd(&digest, system.events().Get(static_cast<sim::Event>(i)));
    }
    for (size_t i = 0; i < sim::kNumTimeBuckets; ++i) {
        FnvAdd(&digest,
               system.timing().Get(static_cast<sim::TimeBucket>(i)));
    }
    FnvAdd(&digest, refs_issued);
    return digest;
}

CellResult
RunCell(const Cell& cell, core::SpurSystem& system, const CellInputs& inputs,
        Tracer* tracer)
{
    CellResult result;
    LayerHost core_layer(system, tracer, kCoreLayer, &system.events());
    std::optional<workload::TraceEncoder> encoder;
    std::optional<workload::RecordingHost> recorder;
    std::optional<LayerHost> record_layer;
    LayerHost* top = &core_layer;
    if (cell.mode == CellMode::kRecord) {
        encoder.emplace(core::TraceMetaFor(cell.config));
        recorder.emplace(core_layer, *encoder);
        record_layer.emplace(*recorder, tracer, kRecordLayer);
        top = &*record_layer;
    }
    // Declared after the layers it calls into, so its teardown (which
    // destroys the surviving processes) runs while they still exist.
    std::optional<workload::Driver> driver;

    const int64_t start = NowNs();
    core_layer.Start(start);
    top->Start(start);
    {
        ScopedSpan cell_span(tracer, "cell", cell.config.refs);
        if (cell.mode == CellMode::kReplay) {
            ScopedSpan decode(tracer, "trace.decode", cell.config.refs);
            result.refs = workload::ReplayStream(*inputs.stream, *top)
                              .refs_issued;
        } else {
            {
                ScopedSpan gen(tracer, "workload.gen", cell.config.refs);
                driver.emplace(*top, *inputs.spec, cell.config.refs,
                               cell.config.seed, inputs.spec->slice_refs);
                driver->Run();
            }
            result.refs = driver->refs_issued();
        }
        if (cell.mode == CellMode::kRecord) {
            // As in core::RunOnce: the stream is sealed at the point the
            // counters are sampled, before driver teardown.
            recorder->StopRecording();
            result.stream_accesses = encoder->accesses();
            {
                ScopedSpan encode(tracer, "trace.record.finish");
                result.stream_bytes = encoder->Finish(result.refs);
            }
            ScopedSpan write(tracer, "trace.write",
                             result.stream_bytes.size());
            std::string error;
            if (!inputs.writer->AppendStream(result.stream_bytes, &error)) {
                result.error = "trace append failed: " + error;
            }
        }
    }
    result.wall_ns = NowNs() - start;

    core_layer.StopTracing();
    if (record_layer.has_value()) {
        record_layer->StopTracing();
    }
    result.quanta = top->quanta();
    result.core_quanta = core_layer.quanta();
    result.events = system.events();
    result.elapsed_seconds = system.timing().ElapsedSeconds();
    for (size_t b = 0; b < sim::kNumTimeBuckets; ++b) {
        result.bucket_seconds[b] =
            system.timing().Seconds(static_cast<sim::TimeBucket>(b));
    }
    result.digest = SimulationDigest(system, result.refs);
    const spur::check::AuditReport audit = system.Audit();
    result.audit_ok = audit.ok();
    if (!audit.ok() && result.error.empty()) {
        result.error = "audit failed:\n" + audit.Summary();
    }
    return result;
}

}  // namespace perfbench
