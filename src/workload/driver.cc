#include "src/workload/driver.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "src/common/cpu.h"
#include "src/common/log.h"
#include "src/workload/ref_pipe.h"

namespace spur::workload {

namespace {

/** Chunks a quantum of @p refs references spans. */
uint64_t
ChunksFor(uint64_t refs)
{
    return (refs + kChunkRefs - 1) / kChunkRefs;
}

/**
 * Quanta the driver has queued for its pipe: (references, the process's
 * generator as it stands when its quantum starts).  A quantum that
 * resumes the process of the quantum queued just before it carries no
 * snapshot: its generator is the one that quantum leaves.  The driver
 * queues at most the current quantum and the next one, so an entry is
 * rewritten only after its quantum has been consumed; a helper that
 * fell behind may still be loading it then, which the entry's quantum
 * tag and reading_ settle (Queue and Load).
 */
class QuantumQueue
{
  public:
    /**
     * Queues @p refs references of the process @p snapshot is the
     * generator of, or of the last-queued quantum's process when
     * @p snapshot is null (driver thread only).
     */
    void Queue(const ProcessGenerator* snapshot, uint64_t refs)
    {
        Entry& e = entries_[queued_ % kEntries];
        // Retag before checking reading_: a helper that tags its read
        // first sees the retag and backs off; otherwise we see its tag
        // and wait for its copy, which no lock or wait interrupts.
        e.quantum.store(kRewriting);
        if (queued_ >= kEntries) {
            while (reading_.load() == queued_ - kEntries) {
                CpuRelax();
            }
        }
        e.refs = refs;
        if (snapshot != nullptr) {
            e.snapshot = *snapshot;
        } else {
            e.snapshot.reset();
        }
        e.quantum.store(queued_, std::memory_order_release);
        ++queued_;
    }

    /**
     * Loads quantum @p q: its references into @p refs and, unless it
     * resumes, its process's generator into @p generator.  On the
     * helper (@p ahead) it returns false when the entry already holds
     * a later quantum.
     */
    bool Load(uint64_t q, bool ahead, uint64_t* refs,
              std::optional<ProcessGenerator>* generator) const
    {
        const Entry& e = entries_[q % kEntries];
        if (ahead) {
            reading_.store(q);
            if (e.quantum.load() != q) {
                reading_.store(kNone, std::memory_order_release);
                return false;
            }
        }
        *refs = e.refs;
        if (e.snapshot.has_value()) {
            *generator = *e.snapshot;
        }
        if (ahead) {
            reading_.store(kNone, std::memory_order_release);
        }
        return true;
    }

  private:
    static constexpr uint64_t kNone = ~uint64_t{0};
    static constexpr uint64_t kRewriting = kNone - 1;
    static constexpr size_t kEntries = 4;

    struct Entry {
        std::atomic<uint64_t> quantum{kNone};  ///< The quantum held.
        uint64_t refs = 0;
        std::optional<ProcessGenerator> snapshot;
    };

    Entry entries_[kEntries];
    /// The quantum whose entry a helper is copying, or kNone.
    mutable std::atomic<uint64_t> reading_{kNone};
    uint64_t queued_ = 0;  ///< Driver side.
};

/**
 * The driver's pipe source: a position in the QuantumQueue and the
 * generator of the quantum there, cut into chunks.  A value, so the
 * pipe's helper can generate ahead on its own copy.
 */
class QuantumCursor
{
  public:
    QuantumCursor() = default;
    explicit QuantumCursor(const QuantumQueue* queue) : queue_(queue) {}

    bool Produce(RefChunk* chunk, bool ahead)
    {
        if (left_ == 0) {
            if (!queue_->Load(next_, ahead, &left_, &generator_)) {
                return false;
            }
            ++next_;
        }
        const size_t want =
            static_cast<size_t>(std::min<uint64_t>(kChunkRefs, left_));
        chunk->n = generator_->NextBatch(chunk->refs, want);
        left_ -= want;
        return true;
    }

    /** The current quantum's generator, after the chunks produced. */
    const ProcessGenerator& generator() const { return *generator_; }

  private:
    const QuantumQueue* queue_ = nullptr;
    uint64_t next_ = 0;  ///< The next quantum to load.
    uint64_t left_ = 0;  ///< References left in the current quantum.
    std::optional<ProcessGenerator> generator_;
};

}  // namespace

Driver::Driver(WorkloadHost& system, WorkloadSpec spec,
               uint64_t total_refs, uint64_t seed, uint32_t slice_refs)
    : system_(system),
      spec_(std::move(spec)),
      total_refs_(total_refs),
      rng_(seed),
      slice_refs_(std::max(1u, slice_refs))
{
    if (spec_.jobs.empty()) {
        Fatal("Driver: workload has no jobs");
    }
    owners_.assign(spec_.jobs.size(), kNoOwner);
    for (size_t i = 0; i < spec_.jobs.size(); ++i) {
        for (uint32_t n = 0; n < spec_.jobs[i].concurrency; ++n) {
            pending_.push_back(Pending{spec_.jobs[i].start_refs, i});
        }
    }
}

Driver::~Driver()
{
    // Instances go first (vector member order would do it too, but be
    // explicit): they reference the owners' segments.
    live_.clear();
    for (Pid owner : owners_) {
        if (owner != kNoOwner) {
            system_.DestroyProcess(owner);
        }
    }
}

void
Driver::Run()
{
    if (refs_issued_ < total_refs_) {
        RunRefs(total_refs_ - refs_issued_);
    }
}

void
Driver::RunRefs(uint64_t refs)
{
    const uint64_t stop = refs_issued_ + refs;
    QuantumQueue quanta;
    RefPipe<RefChunk, QuantumCursor> pipe(QuantumCursor(&quanta),
                                          /*announced=*/0);
    const auto queue = [&](const ProcessGenerator* snapshot,
                           uint64_t quantum) {
        quanta.Queue(snapshot, quantum);
        pipe.Announce(ChunksFor(quantum));
    };
    // The quantum queued before its turn, if any (see below).
    const SyntheticProcess* ahead = nullptr;
    uint64_t ahead_refs = 0;
    while (refs_issued_ < stop) {
        SpawnDue();
        if (live_.empty()) {
            if (pending_.empty()) {
                Warn("Driver: all jobs finished before the reference "
                     "budget was reached");
                return;
            }
            // Idle until the next pending job: skip time forward.
            uint64_t next = ~uint64_t{0};
            for (const Pending& p : pending_) {
                next = std::min(next, p.at_refs);
            }
            refs_issued_ = std::max(refs_issued_ + 1, next);
            continue;
        }
        // Round-robin: one quantum for the process at the cursor.
        next_slot_ = (next_slot_ >= live_.size()) ? 0 : next_slot_;
        Instance& inst = live_[next_slot_];
        const uint64_t quantum =
            QuantumRefs(inst, inst.issued, stop - refs_issued_);
        if (ahead == nullptr) {
            queue(inst.process.get(), quantum);
        } else if (ahead != inst.process.get() || ahead_refs != quantum) {
            Panic("Driver: the quantum queued ahead is not the one due");
        }
        // The next quantum is already fixed when this one changes
        // neither the live set nor the budget: no spawn falls due, this
        // process does not finish (nothing is reaped, no respawn is
        // scheduled), and references remain.  Then it belongs to the
        // next process round-robin; queue it now so the pipe can
        // generate it while this quantum is simulated.
        ahead = nullptr;
        const uint64_t after = refs_issued_ + quantum;
        const uint64_t lifetime = Lifetime(inst);
        if (after < stop && !SpawnDueBy(after) &&
            (lifetime == 0 || inst.issued + quantum < lifetime)) {
            Instance& next = live_[(next_slot_ + 1) % live_.size()];
            const uint64_t done =
                next.issued + (&next == &inst ? quantum : 0);
            ahead = next.process.get();
            ahead_refs = QuantumRefs(next, done, stop - after);
            // The same process again resumes where this quantum ends.
            queue(&next == &inst ? nullptr : next.process.get(),
                  ahead_refs);
        }
        // One AccessBatch per chunk: the host contract makes that the
        // same as one call for the whole quantum.
        uint64_t got = 0;
        for (uint64_t c = ChunksFor(quantum); c > 0; --c) {
            const RefChunk& chunk = pipe.Acquire();
            system_.AccessBatch(chunk.refs, chunk.n);
            got += chunk.n;
            pipe.Release();
        }
        if (got != quantum) {
            Panic("Driver: a process generated a short quantum");
        }
        // The pipe generated from a copy; the process takes it back.
        static_cast<ProcessGenerator&>(*inst.process) =
            pipe.source().generator();
        inst.issued += quantum;
        refs_issued_ += quantum;
        ++next_slot_;
        system_.OnContextSwitch();
        ReapFinished();
    }
}

uint64_t
Driver::Lifetime(const Instance& inst) const
{
    return spec_.jobs[inst.job_index].profile.lifetime_refs;
}

uint64_t
Driver::QuantumRefs(const Instance& inst, uint64_t done,
                    uint64_t budget) const
{
    uint64_t refs = std::min<uint64_t>(slice_refs_, budget);
    const uint64_t lifetime = Lifetime(inst);
    if (lifetime != 0) {
        refs = std::min(refs, lifetime - done);
    }
    return refs;
}

bool
Driver::SpawnDueBy(uint64_t refs) const
{
    for (const Pending& p : pending_) {
        if (p.at_refs <= refs) {
            return true;
        }
    }
    return false;
}

void
Driver::SpawnDue()
{
    for (size_t i = 0; i < pending_.size();) {
        if (pending_[i].at_refs <= refs_issued_) {
            Spawn(pending_[i].job_index);
            pending_[i] = pending_.back();
            pending_.pop_back();
        } else {
            ++i;
        }
    }
}

void
Driver::Spawn(size_t job_index)
{
    const JobSpec& job = spec_.jobs[job_index];
    ShareSpec share;
    const bool wants_share = (job.share_text || job.share_data) &&
                             job.respawn_delay_refs != 0;
    if (wants_share) {
        if (owners_[job_index] == kNoOwner) {
            // Materialize the job's shared segments on a passive owner
            // process that exists for the whole run.
            const Pid owner = system_.CreateProcess();
            const uint64_t page_bytes = system_.config().page_bytes;
            if (job.share_text && job.profile.code_pages > 0) {
                system_.MapRegion(owner, kCodeBase,
                                  job.profile.code_pages * page_bytes,
                                  vm::PageKind::kCode);
            }
            if (job.share_data && job.profile.data_pages > 0) {
                MapDataSegment(system_, owner, job.profile);
            }
            owners_[job_index] = owner;
        }
        share.owner = owners_[job_index];
        share.text = job.share_text && job.profile.code_pages > 0;
        share.data = job.share_data && job.profile.data_pages > 0;
    }
    ++spawns_;
    live_.push_back(Instance{
        std::make_unique<SyntheticProcess>(system_, job.profile, rng_.Next(),
                                           wants_share ? &share : nullptr),
        job_index});
}

void
Driver::ReapFinished()
{
    for (size_t i = 0; i < live_.size();) {
        const uint64_t lifetime = Lifetime(live_[i]);
        if (lifetime != 0 && live_[i].issued >= lifetime) {
            const size_t job_index = live_[i].job_index;
            live_[i].process.reset();  // Destroys the process's pages.
            if (i + 1 != live_.size()) {
                live_[i] = std::move(live_.back());
            }
            live_.pop_back();
            const JobSpec& job = spec_.jobs[job_index];
            if (job.respawn_delay_refs != 0) {
                pending_.push_back(Pending{
                    refs_issued_ + job.respawn_delay_refs, job_index});
            }
            if (next_slot_ >= live_.size()) {
                next_slot_ = 0;
            }
        } else {
            ++i;
        }
    }
}

}  // namespace spur::workload
