/**
 * @file
 * The benchmark's workloads and the timed execution of one cell.
 *
 * A cell is one (workload script, memory size, dirty policy, reference
 * policy) run of the paper's matrix, started cold on a fresh
 * SpurSystem.  It is driven in one of three modes: live generation
 * through workload::Driver, replay of a recovered SPUR-TRACE/1 stream
 * through workload::ReplayStream, or live generation recorded through
 * workload::RecordingHost and appended to a trace file.  Every mode
 * issues the machine exactly the call sequence core::RunOnce issues.
 */
#ifndef PERFBENCH_HARNESS_CELLS_H_
#define PERFBENCH_HARNESS_CELLS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/layers.h"
#include "src/core/experiment.h"
#include "src/core/system.h"
#include "src/workload/trace.h"

namespace perfbench {

/** How a cell's operation stream reaches the machine. */
enum class CellMode : uint8_t { kLive, kReplay, kRecord };

/** References each cell issues.  Sized so one pass over the largest
 *  workload (24 cells) takes a few host seconds; every WORKLOAD1 job
 *  has started by then, and Table 4.1's shape (NOREF page-ins blowing
 *  up at 5-6 MB, converging at 8 MB) already shows. */
inline constexpr uint64_t kCellRefs = 3'000'000;

/** The seed whose cell digests are pinned in pinned_digests.txt. */
inline constexpr uint64_t kPinnedSeed = 1;

/** One cell of a benchmark workload. */
struct Cell {
    spur::core::RunConfig config;
    CellMode mode = CellMode::kLive;

    /** Mode-independent identity, e.g. "WORKLOAD1/5MB/SPUR/MISS". */
    std::string Id() const;
};

/** A benchmark workload: a named list of cells in execution order. */
struct Workload {
    std::string name;
    std::vector<Cell> cells;
};

/** The benchmark's workload names, in documentation order. */
extern const char* const kWorkloadNames[3];

/** Builds workload @p name at @p seed; false when the name is unknown. */
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/** The machine a cell runs on (the same one core::RunOnce builds). */
std::unique_ptr<spur::core::SpurSystem> MakeSystem(
    const spur::core::RunConfig& config);

/**
 * Records the live op stream of @p config through a CountingHost and
 * returns the sealed TraceEncoder::Finish() bytes.
 */
std::string RecordStream(const spur::core::RunConfig& config);

/** What a cell needs besides its machine. */
struct CellInputs {
    /// Live and record modes: the workload script.
    const spur::workload::WorkloadSpec* spec = nullptr;
    /// Replay mode: the recovered stream.
    const spur::workload::TraceStream* stream = nullptr;
    /// Record mode: the open trace file the stream is appended to.
    spur::workload::TraceFileWriter* writer = nullptr;
};

/** Everything one executed cell reports. */
struct CellResult {
    uint64_t refs = 0;        ///< Driver reference clock at the end.
    uint64_t digest = 0;      ///< SimulationDigest() of the final state.
    int64_t wall_ns = 0;      ///< Host time of the timed cell.
    spur::sim::EventCounts events;
    double elapsed_seconds = 0.0;  ///< Simulated time.
    /// Simulated seconds per sim::TimeBucket.
    std::array<double, spur::sim::kNumTimeBuckets> bucket_seconds{};
    bool audit_ok = false;
    std::string error;        ///< Audit or trace-write failure, if any.
    /// Quanta at the outermost boundary (whole-stack host time).
    std::vector<Quantum> quanta;
    /// Quanta at the machine boundary (access time when traced).
    std::vector<Quantum> core_quanta;
    /// Record mode: the stream bytes appended and their access count.
    std::string stream_bytes;
    uint64_t stream_accesses = 0;
};

/**
 * Runs @p cell on @p system (fresh, never used before) and checks
 * SpurSystem::Audit() at the end.  Timing covers driver construction
 * and the run (live), ReplayStream (replay), plus sealing and appending
 * the stream (record); harvest, audit and teardown are untimed.
 * @p tracer, when set, receives the cell's spans.
 */
CellResult RunCell(const Cell& cell, spur::core::SpurSystem& system,
                   const CellInputs& inputs, Tracer* tracer);

/**
 * FNV-1a64 over every EventCounts counter, every timing bucket's cycle
 * count and the reference clock: the simulated outcome of a cell.
 */
uint64_t SimulationDigest(const spur::core::SpurSystem& system,
                          uint64_t refs_issued);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CELLS_H_
