/**
 * @file
 * The workload driver: schedules synthetic processes round-robin over a
 * SpurSystem, spawning and reaping jobs according to a WorkloadSpec
 * timeline (the "script" of Section 2's synthetic workloads).
 */
#ifndef SPUR_WORKLOAD_DRIVER_H_
#define SPUR_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/workload/host.h"
#include "src/workload/process.h"
#include "src/workload/profile.h"

namespace spur::workload {

/** One entry in a workload script. */
struct JobSpec {
    ProcessProfile profile;
    /// References into the run at which the first instance starts.
    uint64_t start_refs = 0;
    /// Instances running concurrently (e.g. two parallel compiles).
    uint32_t concurrency = 1;
    /// When an instance exits, respawn after this many further global
    /// references (0 = do not respawn).  Models the edit-compile-debug
    /// cycle and the periodic performance monitors.
    uint64_t respawn_delay_refs = 0;
    /// Instances reuse one shared text segment (Sprite's sticky text:
    /// repeated invocations of the same tool share its code pages).
    bool share_text = true;
    /// Instances also share the file-backed data segment (tools that
    /// reread the same files, e.g. monitors reading kernel tables).
    bool share_data = false;
};

/** A named collection of jobs: WORKLOAD1, SLC, the dev machines. */
struct WorkloadSpec {
    std::string name;
    std::vector<JobSpec> jobs;
    /// References per scheduling quantum.  Part of the script, not the
    /// machine: the ctx-switch scenario owes its switch rate to a small
    /// slice.  core::RunOnce passes this into the Driver, so it is part
    /// of a trace stream's generation identity too.
    uint32_t slice_refs = 20000;
};

/**
 * Drives a WorkloadSpec against a system for a fixed reference budget.
 *
 * Every WorkloadHost call happens on the thread that calls Run(), in
 * script order.  Reference generation goes through a RefPipe
 * (ref_pipe.h): when a hardware thread is spare, a helper generates the
 * next chunks, from copies of the processes' generators, while the host
 * simulates the current one (DESIGN.md §20).
 */
class Driver
{
  public:
    /**
     * @param system       the machine under test.
     * @param spec         the script to run.
     * @param total_refs   references to issue in the whole run.
     * @param seed         seed for process generators and scheduling.
     * @param slice_refs   references per scheduling quantum.
     */
    Driver(WorkloadHost& system, WorkloadSpec spec, uint64_t total_refs,
           uint64_t seed, uint32_t slice_refs = 20000);

    ~Driver();

    Driver(const Driver&) = delete;
    Driver& operator=(const Driver&) = delete;

    /** Runs to the reference budget. */
    void Run();

    /** Runs at most @p refs more references (for incremental tests). */
    void RunRefs(uint64_t refs);

    /** Global references issued so far. */
    uint64_t refs_issued() const { return refs_issued_; }

    /** Processes currently live (for tests). */
    size_t NumLive() const { return live_.size(); }

    /** Total process spawns so far (for tests and reports). */
    uint64_t NumSpawns() const { return spawns_; }

  private:
    /** A live process instance and the job it instantiates. */
    struct Instance {
        std::unique_ptr<SyntheticProcess> process;
        size_t job_index;
        /// References issued to the host.  The driver's own count: the
        /// pipe generates from a copy of the process's generator and
        /// hands it back only at the end of each quantum.
        uint64_t issued = 0;
    };

    /** A job instance scheduled to start in the future. */
    struct Pending {
        uint64_t at_refs;
        size_t job_index;
    };

    WorkloadHost& system_;
    WorkloadSpec spec_;
    uint64_t total_refs_;
    Rng rng_;
    uint32_t slice_refs_;

    std::vector<Instance> live_;
    std::vector<Pending> pending_;
    /// Per-job owner process holding shared text/data segments, or
    /// kNoOwner when the job shares nothing (or not yet spawned).
    static constexpr Pid kNoOwner = ~Pid{0};
    std::vector<Pid> owners_;
    uint64_t refs_issued_ = 0;
    uint64_t spawns_ = 0;
    size_t next_slot_ = 0;  ///< Round-robin cursor.

    void SpawnDue();
    /** True when a pending job starts at or before @p refs. */
    bool SpawnDueBy(uint64_t refs) const;
    void Spawn(size_t job_index);
    void ReapFinished();
    /** Lifetime of @p inst's job, 0 for unbounded. */
    uint64_t Lifetime(const Instance& inst) const;
    /** References @p inst runs in its next quantum, given @p done of
     *  its references already queued and @p budget left in the run. */
    uint64_t QuantumRefs(const Instance& inst, uint64_t done,
                         uint64_t budget) const;
};

}  // namespace spur::workload

#endif  // SPUR_WORKLOAD_DRIVER_H_
