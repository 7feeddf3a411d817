/**
 * @file
 * Shared harness for the bench and example binaries' standard flags,
 * replacing the per-binary hand-rolled loops:
 *
 *   --jobs=N      worker threads for experiment runs (default: hardware
 *                 concurrency); installed process-wide so
 *                 runner::RunMatrix callers inherit it.
 *   --json=F      write every run this session observed to F as JSON
 *                 run records ("-" = stdout) for the perf trajectory.
 *   --shard=K/N   run only this process's slice of every matrix: cell
 *                 ordinal o (counted across the whole session, so
 *                 consecutive RunMatrix/RunAll calls balance) belongs
 *                 to shard K iff o % N == K.  Per-cell seeding makes
 *                 the union of the N shard outputs bit-identical to a
 *                 full run; merge the JSON with `spur_sweep merge`.
 *   --telemetry   stamp each recorded cell with wall-clock duration,
 *                 peak RSS and worker-thread index.  Off by default so
 *                 the JSON stays byte-identical across job counts,
 *                 shardings and machines.
 *   --costs=F     prior sweep JSON (produced with --telemetry) whose
 *                 measured durations drive longest-first scheduling;
 *                 changes utilization, never results.
 *   --stream=F    append every record to F as an fsync'd frame the
 *                 moment it is recorded (src/sweep/stream.h), with a
 *                 verified trailer at Finish() — so a crashed or killed
 *                 run keeps every finished cell.  Turn a trailerless
 *                 file back into a document with `spur_sweep recover`.
 *   --resume=F    sweep JSON document (a recovered stream, or an
 *                 earlier --json file) whose records satisfy matching
 *                 cells without re-running them; only the missing cells
 *                 execute, and the final output is byte-identical to an
 *                 uninterrupted run.  F must come from the same bench
 *                 with the same shard flags (same precedent as shards:
 *                 the sweep shape is part of the contract).
 *   --record-trace=F
 *                 capture each distinct workload stream this session
 *                 generates into F as a SPUR-TRACE/1 library
 *                 (src/workload/trace.h): the first cell per stream
 *                 identity records, every other cell runs plain.  The
 *                 file is fsync'd per stream, so a killed run leaves a
 *                 recoverable prefix (`spur_trace validate`).
 *   --replay-trace=F
 *                 drive every cell from the recorded op streams in F
 *                 instead of the live generators; results — and the
 *                 --json/--stream bytes — are byte-identical to a live
 *                 run at any --jobs.  A cell whose stream is missing
 *                 from F is a Fatal error, never a silent live run.
 *
 * Usage:
 *   const Args args(argc, argv);
 *   runner::BenchSession session("table_4_1_refbits", args);
 *   const auto results = session.RunMatrix(configs, reps);
 *   ... print tables ...
 *   return session.Finish();
 */
#ifndef SPUR_RUNNER_SESSION_H_
#define SPUR_RUNNER_SESSION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <memory>

#include "src/common/args.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/runner/runner.h"
#include "src/stats/run_record.h"
#include "src/sweep/cost.h"
#include "src/sweep/shard.h"
#include "src/sweep/stream.h"

namespace spur::runner {

/** Per-binary session: parses the standard flags, collects run records. */
class BenchSession
{
  public:
    /**
     * Reads the standard flags from @p args and installs the job count
     * as the process-wide default (SetDefaultJobs).  A malformed
     * --shard, an unreadable --costs/--resume file, a --resume file
     * from a different bench or sharding, or an unwritable --stream
     * path is a Fatal() user error.
     */
    BenchSession(std::string bench_name, const Args& args);

    /** The effective worker count for this session (never 0). */
    unsigned jobs() const { return jobs_; }

    /** The slice of the sweep this process runs (0/1 = everything). */
    const sweep::ShardSpec& shard() const { return shard_; }

    /** True when --telemetry was requested. */
    bool telemetry_enabled() const { return telemetry_; }

    /** Sharded work units seen (cells of every matrix so far). */
    uint64_t total_cells() const { return total_cells_; }

    /** Sharded work units this process executed or resumed. */
    uint64_t ran_cells() const { return ran_cells_; }

    /** Of ran_cells(), how many --resume satisfied without re-running. */
    uint64_t resumed_cells() const { return resumed_cells_; }

    /**
     * Parallel experiment matrix (see runner::RunMatrix) on this
     * session's job count, shard, cost table and resume set; every cell
     * this shard executes or resumes is recorded for --json/--stream in
     * deterministic (config, rep) order.  Under --shard or --resume,
     * cells not run in-process stay default-constructed in the returned
     * matrix — printed tables are partial; the JSON records are the
     * artifact those modes exist for.
     */
    std::vector<std::vector<core::RunResult>> RunMatrix(
        const std::vector<core::RunConfig>& configs, uint32_t reps,
        uint64_t shuffle_seed = 42);

    /**
     * Runs each config exactly once (seed verbatim) in parallel and
     * returns results in input order; this shard's runs are recorded.
     * Sharding treats the input order as the work-unit order, and
     * --resume satisfies matching cells here too.
     */
    std::vector<core::RunResult> RunAll(
        const std::vector<core::RunConfig>& configs);

    /**
     * Records one standard run observation.  Thread-safe: bespoke
     * benches may record from parallel loops (the record sink is
     * guarded by an annotated mutex, DESIGN.md §13), though recording
     * order — and therefore --json/--stream byte order — is
     * deterministic only when records are appended from one thread, as
     * RunMatrix/RunAll do.
     */
    void Record(const core::RunConfig& config, uint32_t rep,
                const core::RunResult& result) SPUR_EXCLUDES(mutex_);

    /** Records a bespoke observation (benches with custom run loops). */
    void Record(stats::RunRecord record) SPUR_EXCLUDES(mutex_);

    /** Snapshot of the collected records, in recording order. */
    std::vector<stats::RunRecord> records() const SPUR_EXCLUDES(mutex_);

    /**
     * Writes the --json file if one was requested and finishes the
     * --stream trailer if one is open, both stamped with the schema
     * version and this session's shard header.  Returns the process
     * exit code (non-zero if any write failed, including a record
     * frame that failed to append mid-run).
     */
    int Finish() SPUR_EXCLUDES(mutex_);

  private:
    /** Builds the standard record for one executed cell. */
    stats::RunRecord MakeRecord(const core::RunConfig& config, uint32_t rep,
                                const core::RunResult& result) const;

    /** Copies @p configs with this session's trace record/replay hooks
     *  injected (no-op copies when neither flag was given). */
    std::vector<core::RunConfig> WithTraceHooks(
        const std::vector<core::RunConfig>& configs) const;

    /** Declares the --record-trace commit order (only when recording):
     *  the streams of @p cells, which are in sequential execution
     *  order. */
    void ExpectStreams(const std::vector<core::RunConfig>& cells);

    /** The cell identity key --resume matches records by. */
    std::string CellIdentity(const core::RunConfig& config,
                             uint32_t rep) const;

    /**
     * Commits one matrix cell: the resumed record for a skipped cell,
     * or a fresh record (plus telemetry when enabled) for an executed
     * one.  Called in ascending (config, rep) order as each ordered
     * prefix completes, so --stream gains a durable record the moment a
     * cell's predecessors are all done.
     */
    void CommitCell(const Cell& cell) SPUR_EXCLUDES(mutex_);

    /** The record sink: buffers for --json, appends to --stream. */
    void Commit(stats::RunRecord record) SPUR_EXCLUDES(mutex_);

    std::string bench_;
    std::string json_path_;
    unsigned jobs_;
    sweep::ShardSpec shard_;
    bool telemetry_ = false;
    sweep::CostTable costs_;
    // Session-thread state: mutated on the owning thread between runs
    // (sharding carries offsets across calls).  resumed_cells_ is also
    // bumped from RunAll's in-order committer, serialized by its local
    // drain mutex and read only after the parallel region joins.
    uint64_t total_cells_ = 0;
    uint64_t ran_cells_ = 0;
    uint64_t resumed_cells_ = 0;
    /// --resume records keyed by cell identity.  std::map, not
    /// unordered: resumed records feed the output byte stream.
    std::map<std::string, stats::RunRecord> resume_;
    /// --record-trace / --replay-trace state; null when not requested.
    /// Pointers to these are injected into every RunConfig the session
    /// executes (core::RunConfig::trace_record / trace_replay).
    std::unique_ptr<core::TraceRecordSession> trace_record_;
    std::unique_ptr<core::TraceReplaySource> trace_replay_;
    // The record sink is shared with whatever thread calls Record();
    // the guard is machine-checked (src/common/thread_annotations.h).
    mutable Mutex mutex_;
    std::vector<stats::RunRecord> records_ SPUR_GUARDED_BY(mutex_);
    sweep::StreamWriter stream_ SPUR_GUARDED_BY(mutex_);
    bool stream_failed_ SPUR_GUARDED_BY(mutex_) = false;
};

}  // namespace spur::runner

#endif  // SPUR_RUNNER_SESSION_H_
