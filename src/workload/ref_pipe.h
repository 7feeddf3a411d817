/**
 * @file
 * RefPipe: overlaps reference production with simulation (DESIGN.md
 * §20).
 *
 * The synthetic generators and the trace decoder are pure: producing
 * the next references never reads machine state.  So while the calling
 * thread simulates one chunk, a helper thread can produce the next.
 * The pipe is a ring of kPipeSlots chunks filled by the helper.  The
 * caller takes chunks strictly in order with Acquire() and Release(),
 * and only the caller ever touches the WorkloadHost.
 *
 * Which thread produces a chunk is decided per chunk, and nothing else
 * about the run depends on it, because a source is a value: the caller
 * and the helper each keep a copy and produce the same chunks from it.
 *
 *   - The helper runs ahead on its copy, at most kPipeSlots chunks past
 *     the caller, and publishes each chunk in its ring slot together
 *     with its source as it stands after the chunk.  Taking a chunk
 *     from the ring, the caller adopts that source.
 *   - When the next chunk is not in the ring, the caller waits only
 *     while the helper is producing it and has not stalled, and then
 *     for a bounded spin (~100 µs).  Otherwise it produces the chunk
 *     itself from its own copy.  A helper that is descheduled, parked
 *     or absent costs the caller at most one bounded wait, never a
 *     sleep.
 *   - A helper that finds the caller past it asks for the caller's
 *     source through a mailbox and resumes from there.
 *
 * Spare-core rule: a process-wide count holds the threads inside a pipe
 * stage plus the helpers working for one.  A helper is started only
 * when the count leaves room for it within the CPU budget
 * (HardwareThreads() unless a ScopedPipeBudget overrides it), and it
 * re-checks the count before every chunk, parking while the CPUs are
 * taken.  A saturated `--jobs=nproc` sweep therefore runs the
 * single-threaded path.  The helper lives for one pipe only and is
 * joined by its destructor, so no thread outlives the call that made
 * the pipe.  PipeHelper holds this rule, the helper's bell and its
 * bounded waits; RecordingHost's encode stage (trace.h) shares it.
 */
#ifndef SPUR_WORKLOAD_REF_PIPE_H_
#define SPUR_WORKLOAD_REF_PIPE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>

#include "src/common/cpu.h"
#include "src/common/types.h"

namespace spur::workload {

/** References per ring chunk: one chunk's refs stay L1/L2-resident. */
inline constexpr size_t kChunkRefs = 2048;

/** Chunks in the ring: how far the helper may run ahead. */
inline constexpr size_t kPipeSlots = 4;

/** A run of references; producers may extend it with in-band data. */
struct RefChunk {
    size_t n = 0;  ///< References in refs[].
    MemRef refs[kChunkRefs];
};

/**
 * Overrides the pipe's CPU budget while alive (nestable).  0 forces
 * every pipe onto the inline path; a value above the thread count
 * forces a helper.  For tests and benchmarks that compare the paths.
 */
class ScopedPipeBudget
{
  public:
    explicit ScopedPipeBudget(unsigned cpus);
    ~ScopedPipeBudget();

    ScopedPipeBudget(const ScopedPipeBudget&) = delete;
    ScopedPipeBudget& operator=(const ScopedPipeBudget&) = delete;

  private:
    int64_t previous_;
};

/** Chunks RefPipe helpers produced, process-wide (for tests). */
uint64_t PipeHelperChunks();

/**
 * A pipe stage's spare-core helper: the thread, its seat in the
 * process-wide CPU budget, its bell, and the bounded waits around it.
 * RefPipe's producer ring (PipeCore) and RecordingHost's encode stage
 * are both built on it.
 *
 * Constructing one counts the calling thread against the budget (once,
 * however many stages that thread has open; construct and destroy on
 * one thread) and decides whether a helper fits beside it.
 */
class PipeHelper
{
  public:
    PipeHelper();
    ~PipeHelper();

    PipeHelper(const PipeHelper&) = delete;
    PipeHelper& operator=(const PipeHelper&) = delete;

    /** Whether the budget had room for a helper at construction. */
    bool wanted() const { return wanted_; }

    /** Runs @p main(@p context) on the helper thread, if wanted() and a
     *  thread can be had; the thread gives its seat back as it ends. */
    void Start(void (*main)(void*), void* context);

    /** Asks the helper to stop, wakes it and joins it, if running. */
    void Stop();

    /** Whether a helper thread was started and not yet joined. */
    bool running() const { return thread_.joinable(); }

    // ---- Caller ----

    /** Whether the helper holds a seat, i.e. may be working. */
    bool seated() const { return seated_.load(std::memory_order_acquire); }

    /** Wakes the helper to look for work (no-op without one). */
    void Ring();

    /** WaitBounded's answer. */
    enum class Wait { kDone, kNotHelping, kTimedOut };

    /**
     * Spins until @p done() holds, while @p helping() holds (checked
     * every few steps), for at most ~100 µs.  The caller does the work
     * itself on anything but kDone: a parked, absent or descheduled
     * helper costs it one bounded spin, never a sleep.
     */
    template <class Done, class Helping>
    static Wait WaitBounded(Done done, Helping helping);

    // ---- Helper thread ----

    bool stopping() const { return stop_.load(std::memory_order_acquire); }

    /**
     * Keeps or takes the helper's seat, re-checking the budget.  False
     * when the CPUs are taken: the helper has then parked until the
     * count changed or Stop(), and calls again after checking
     * stopping().
     */
    bool Seat();

    /** The bell's value, read before looking for work. */
    uint32_t bell() const { return bell_.load(std::memory_order_acquire); }

    /** Spins ~50 µs for the bell to move off @p seen; false if not. */
    bool SpinBell(uint32_t seen) const;

    /** Sleeps until the bell moves off @p seen. */
    void SleepBell(uint32_t seen) const;

  private:
    void Unseat();

    unsigned budget_;
    bool wanted_ = false;
    bool held_ = false;  ///< Helper thread only: seated_ as it knows it.
    std::atomic<bool> seated_{false};
    std::atomic<bool> stop_{false};
    /// Rung on every caller event the helper may wait for.
    alignas(64) std::atomic<uint32_t> bell_{0};
    std::thread thread_;
};

template <class Done, class Helping>
PipeHelper::Wait
PipeHelper::WaitBounded(Done done, Helping helping)
{
    /// CpuRelax steps before the caller does the work itself: ~100 µs
    /// at ~24 ns a step on a 4-vCPU Xeon VM.  A running helper finishes
    /// a chunk in about 25 to 45 µs there, so only a stalled one runs
    /// into this.
    constexpr uint32_t kTakeOverSpins = 4096;
    /// Steps between re-checks of helping().
    constexpr uint32_t kSpinsPerCheck = 64;
    if (!helping()) {
        return Wait::kNotHelping;
    }
    for (uint32_t spins = 1;; ++spins) {
        if (done()) {
            return Wait::kDone;
        }
        CpuRelax();
        if (spins % kSpinsPerCheck != 0) {
            continue;
        }
        if (spins >= kTakeOverSpins) {
            return Wait::kTimedOut;
        }
        if (!helping()) {
            return Wait::kNotHelping;
        }
    }
}

/**
 * The ring's synchronization, independent of the chunk and source
 * types: the per-slot publication counters, the helper thread, the
 * take-over rule and the CPU budget.  The typed work is done through
 * Ops on the owning RefPipe.
 */
class PipeCore
{
  public:
    /** The typed operations, each run on the thread named. */
    struct Ops {
        /// Helper: produces its source's next chunk into ring slot
        /// @p slot and stores the source after it there; false when
        /// the source found it had fallen behind the caller.
        bool (*produce_ahead)(void* context, size_t slot);
        /// Caller: produces its source's next chunk into the inline
        /// slot.
        void (*produce_inline)(void* context);
        /// Caller: takes ring slot @p slot's chunk; the caller's source
        /// becomes the one stored with it.
        void (*adopt)(void* context, size_t slot);
        /// Caller: copies its source into the mailbox.
        void (*send)(void* context);
        /// Helper: replaces its source with the mailbox's.
        void (*receive)(void* context);
    };

    /// Acquire()'s answer when the caller produced the chunk itself.
    static constexpr size_t kInline = kPipeSlots;

    /**
     * @param announced  chunks the source can produce before any
     *                   Announce() (~0 for a source that knows its end).
     */
    PipeCore(const Ops& ops, void* context, uint64_t announced);
    ~PipeCore();

    PipeCore(const PipeCore&) = delete;
    PipeCore& operator=(const PipeCore&) = delete;

    /** Starts the helper if the budget has room (owner constructed). */
    void Start();

    /** Stops and joins the helper, if any (before the owner goes). */
    void Stop();

    /** Declares @p chunks more chunks producible (caller only). */
    void Announce(uint64_t chunks);

    /**
     * Makes the next chunk ready and returns its ring slot, or kInline
     * when the caller produced it (caller only).
     */
    size_t Acquire();

    /** Hands the last acquired chunk back to the ring (caller only). */
    void Release();

  private:
    static void HelperMain(void* self);
    void HelperLoop();
    /** True once the helper published chunk @p i; false to take it
     *  over (caller only). */
    bool WaitForHelper(uint64_t i);
    /** Waits, bounded spin then futex, until the helper bell moves
     *  off @p seen. */
    void WaitHelperBell(uint32_t seen);

    const Ops& ops_;
    void* context_;

    // Written by the helper.
    /// Per slot: 1 + the index of the chunk the helper last published
    /// there.
    alignas(64) std::atomic<uint64_t> published_[kPipeSlots] = {};
    /// The chunk the helper is producing or last produced, or
    /// kNotWorking before its first chunk and while it sleeps.
    static constexpr uint64_t kNotWorking = ~uint64_t{0};
    std::atomic<uint64_t> working_{kNotWorking};
    /// Chunks the helper has finished, published or not.
    std::atomic<uint64_t> progress_{0};
    // Written by both: 0, kSyncAsked by the helper, kSyncAnswered by
    // the caller.
    std::atomic<uint32_t> sync_{0};
    // Written by the caller.
    alignas(64) std::atomic<uint64_t> consumed_{0};
    std::atomic<uint64_t> announced_;
    /// The chunk the mailbox's source produces next (published by
    /// sync_).
    uint64_t sync_next_ = 0;
    /// progress_ when the caller last gave up waiting (caller only).
    uint64_t stalled_at_ = ~uint64_t{0};

    PipeHelper helper_;
};

/**
 * The ring itself.  @p Source is a copyable, default-constructible
 * value with `bool Produce(Chunk* chunk, bool ahead)`, which fills the
 * chunk with what comes next and advances the value.  Produce must be
 * pure: two copies of one value produce the same chunks.  The helper
 * calls it with ahead = true on its own copy; that copy may fall behind
 * the caller's, and Produce may then return false instead of reading
 * data the caller has recycled.  The caller's own calls never fail.
 */
template <class Chunk, class Source>
class RefPipe
{
    static_assert(std::is_base_of_v<RefChunk, Chunk>);

  public:
    RefPipe(const Source& source, uint64_t announced)
        : caller_(source),
          helper_(source),
          ring_(std::make_unique_for_overwrite<Slot[]>(kPipeSlots + 1)),
          core_(kOps, this, announced)
    {
        core_.Start();
    }

    ~RefPipe() { core_.Stop(); }

    RefPipe(const RefPipe&) = delete;
    RefPipe& operator=(const RefPipe&) = delete;

    /** Declares @p chunks more chunks producible. */
    void Announce(uint64_t chunks) { core_.Announce(chunks); }

    /** The next chunk in order; valid until Release(). */
    Chunk& Acquire() { return ring_[core_.Acquire()].chunk; }

    /** Returns the acquired chunk's slot to the producer. */
    void Release() { core_.Release(); }

    /** The source as it stands after the last acquired chunk. */
    const Source& source() const { return caller_; }

  private:
    struct Slot {
        Chunk chunk;
        Source after;  ///< The helper's source after producing chunk.
    };

    static RefPipe* Self(void* context)
    {
        return static_cast<RefPipe*>(context);
    }

    static bool ProduceAhead(void* context, size_t slot)
    {
        RefPipe* self = Self(context);
        Slot& s = self->ring_[slot];
        if (!self->helper_.Produce(&s.chunk, /*ahead=*/true)) {
            return false;
        }
        s.after = self->helper_;
        return true;
    }

    static void ProduceInline(void* context)
    {
        RefPipe* self = Self(context);
        self->caller_.Produce(&self->ring_[PipeCore::kInline].chunk,
                              /*ahead=*/false);
    }

    static void Adopt(void* context, size_t slot)
    {
        RefPipe* self = Self(context);
        self->caller_ = self->ring_[slot].after;
    }

    static void Send(void* context)
    {
        RefPipe* self = Self(context);
        self->mailbox_ = self->caller_;
    }

    static void Receive(void* context)
    {
        RefPipe* self = Self(context);
        self->helper_ = self->mailbox_;
    }

    static constexpr PipeCore::Ops kOps = {&ProduceAhead, &ProduceInline,
                                           &Adopt, &Send, &Receive};

    Source caller_;   ///< Caller only.
    Source helper_;   ///< Helper only, once it runs.
    Source mailbox_;  ///< Handed over under PipeCore's sync protocol.
    /// kPipeSlots ring slots, then the caller's inline slot.
    std::unique_ptr<Slot[]> ring_;
    PipeCore core_;
};

}  // namespace spur::workload

#endif  // SPUR_WORKLOAD_REF_PIPE_H_
