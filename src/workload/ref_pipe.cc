#include "src/workload/ref_pipe.h"

#include <system_error>

#include "src/common/cpu.h"

namespace spur::workload {

namespace {

/// Threads inside a pipe stage plus helpers working for one,
/// process-wide.
std::atomic<uint32_t> g_running{0};
/// Bumped whenever g_running falls or a pipe stops; parked helpers
/// sleep on it.  Monotonic, so a waiter cannot miss a change.
std::atomic<uint32_t> g_epoch{0};
/// ScopedPipeBudget's override, or -1 for HardwareThreads().
std::atomic<int64_t> g_budget_override{-1};
std::atomic<uint64_t> g_helper_chunks{0};

/// Pipe stages the calling thread has open; it is counted in g_running
/// while this is nonzero.
thread_local unsigned t_stages = 0;

/// Busy-wait steps before the helper sleeps.  `pause` takes ~24 ns on a
/// 4-vCPU Xeon VM, so this is ~50 µs there: longer than one chunk
/// takes to simulate, so a helper in step with the caller rarely pays a
/// futex wakeup, and short enough that an idle helper yields its CPU
/// soon.
constexpr uint32_t kSpinSteps = 2048;

/// PipeCore::sync_ states: the helper asks for the caller's source;
/// the caller has put it in the mailbox.
constexpr uint32_t kSyncAsked = 1;
constexpr uint32_t kSyncAnswered = 2;

unsigned
Budget()
{
    const int64_t budget = g_budget_override.load(std::memory_order_relaxed);
    return budget >= 0 ? static_cast<unsigned>(budget) : HardwareThreads();
}

void
WakeParked()
{
    g_epoch.fetch_add(1);
    g_epoch.notify_all();
}

/** Counts the calling helper as running if the budget has room. */
bool
TryActivate(unsigned budget)
{
    if (g_running.fetch_add(1) + 1 <= budget) {
        return true;
    }
    // No wakeup: the count only returns to where it was.
    g_running.fetch_sub(1);
    return false;
}

void
Deactivate()
{
    g_running.fetch_sub(1);
    WakeParked();
}

}  // namespace

ScopedPipeBudget::ScopedPipeBudget(unsigned cpus)
    : previous_(g_budget_override.exchange(cpus))
{
}

ScopedPipeBudget::~ScopedPipeBudget()
{
    g_budget_override.store(previous_);
}

uint64_t
PipeHelperChunks()
{
    return g_helper_chunks.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// PipeHelper
// ---------------------------------------------------------------------------

PipeHelper::PipeHelper() : budget_(Budget())
{
    // The caller counts from here on (once per thread); the helper only
    // if it fits too.
    const uint32_t running = (t_stages++ == 0) ? g_running.fetch_add(1) + 1
                                               : g_running.load();
    wanted_ = running < budget_;
}

PipeHelper::~PipeHelper()
{
    Stop();
    if (--t_stages == 0) {
        g_running.fetch_sub(1);
    }
    WakeParked();
}

void
PipeHelper::Start(void (*main)(void*), void* context)
{
    if (!wanted_) {
        return;
    }
    try {
        thread_ = std::thread([this, main, context] {
            main(context);
            Unseat();
        });
    } catch (const std::system_error&) {
        // No thread to be had: the caller does every chunk itself.
    }
}

void
PipeHelper::Stop()
{
    if (thread_.joinable()) {
        stop_.store(true);
        Ring();
        WakeParked();
        thread_.join();
    }
}

void
PipeHelper::Ring()
{
    if (thread_.joinable()) {
        bell_.fetch_add(1, std::memory_order_release);
        bell_.notify_one();
    }
}

bool
PipeHelper::Seat()
{
    // The budget is re-checked before every chunk.
    if (held_ && g_running.load(std::memory_order_relaxed) > budget_) {
        Unseat();
    }
    if (held_) {
        return true;
    }
    if (TryActivate(budget_)) {
        held_ = true;
        seated_.store(true, std::memory_order_release);
        return true;
    }
    // The CPUs are taken: the caller works alone meanwhile.  Sleep
    // until a stage or helper gives one back, or we stop.
    const uint32_t epoch = g_epoch.load();
    if (!stop_.load() && g_running.load() >= budget_) {
        g_epoch.wait(epoch);
    }
    return false;
}

void
PipeHelper::Unseat()
{
    if (held_) {
        held_ = false;
        seated_.store(false, std::memory_order_release);
        Deactivate();
    }
}

bool
PipeHelper::SpinBell(uint32_t seen) const
{
    for (uint32_t s = 0; s < kSpinSteps; ++s) {
        if (bell_.load(std::memory_order_acquire) != seen) {
            return true;
        }
        CpuRelax();
    }
    return false;
}

void
PipeHelper::SleepBell(uint32_t seen) const
{
    bell_.wait(seen, std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// PipeCore
// ---------------------------------------------------------------------------

PipeCore::PipeCore(const Ops& ops, void* context, uint64_t announced)
    : ops_(ops), context_(context), announced_(announced)
{
}

PipeCore::~PipeCore()
{
    Stop();
}

void
PipeCore::Start()
{
    helper_.Start(&PipeCore::HelperMain, this);
}

void
PipeCore::Stop()
{
    helper_.Stop();
}

void
PipeCore::Announce(uint64_t chunks)
{
    const uint64_t now = announced_.load(std::memory_order_relaxed);
    announced_.store(now + chunks, std::memory_order_release);
    helper_.Ring();
}

size_t
PipeCore::Acquire()
{
    const uint64_t i = consumed_.load(std::memory_order_relaxed);
    const size_t slot = i % kPipeSlots;
    if (published_[slot].load(std::memory_order_acquire) == i + 1 ||
        (helper_.running() && WaitForHelper(i))) {
        ops_.adopt(context_, slot);
        return slot;
    }
    ops_.produce_inline(context_);
    if (helper_.running() &&
        sync_.load(std::memory_order_acquire) == kSyncAsked) {
        // The helper fell behind: hand it the source after this chunk,
        // so it produces the next one while this one is simulated.
        ops_.send(context_);
        sync_next_ = i + 1;
        sync_.store(kSyncAnswered, std::memory_order_release);
        helper_.Ring();
    }
    return kInline;
}

bool
PipeCore::WaitForHelper(uint64_t i)
{
    // Wait only for a helper that is producing chunk i (or finishing
    // the one before it) and has made progress since the caller last
    // gave up on it.  Anything else would be a wait of unknown length.
    const std::atomic<uint64_t>& published = published_[i % kPipeSlots];
    const PipeHelper::Wait wait = PipeHelper::WaitBounded(
        [&] { return published.load(std::memory_order_acquire) == i + 1; },
        [&] {
            const uint64_t working =
                working_.load(std::memory_order_acquire);
            return helper_.seated() &&
                   sync_.load(std::memory_order_acquire) == 0 &&
                   working != kNotWorking && working + 1 >= i &&
                   progress_.load(std::memory_order_acquire) !=
                       stalled_at_;
        });
    if (wait == PipeHelper::Wait::kTimedOut) {
        stalled_at_ = progress_.load(std::memory_order_acquire);
    }
    return wait == PipeHelper::Wait::kDone;
}

void
PipeCore::Release()
{
    const uint64_t i = consumed_.load(std::memory_order_relaxed);
    consumed_.store(i + 1, std::memory_order_release);
    helper_.Ring();
}

void
PipeCore::WaitHelperBell(uint32_t seen)
{
    if (!helper_.SpinBell(seen)) {
        // Asleep, the helper is slow to answer: the caller must not
        // wait.
        working_.store(kNotWorking, std::memory_order_release);
        helper_.SleepBell(seen);
    }
}

void
PipeCore::HelperMain(void* self)
{
    static_cast<PipeCore*>(self)->HelperLoop();
}

void
PipeCore::HelperLoop()
{
    uint64_t next = 0;  // The chunk the helper's source produces next.
    for (;;) {
        const uint32_t bell = helper_.bell();
        if (helper_.stopping()) {
            break;
        }
        if (!helper_.Seat()) {
            continue;
        }
        const uint32_t sync = sync_.load(std::memory_order_acquire);
        if (sync == kSyncAnswered) {
            ops_.receive(context_);
            next = sync_next_;
            sync_.store(0, std::memory_order_release);
            continue;
        }
        if (sync == kSyncAsked) {
            WaitHelperBell(bell);
            continue;
        }
        const uint64_t consumed = consumed_.load(std::memory_order_acquire);
        if (next < consumed) {
            // The caller produced chunk `next` itself: catch up through
            // the mailbox rather than re-produce what it has passed.
            sync_.store(kSyncAsked, std::memory_order_release);
            continue;
        }
        // The slot is free once the chunk kPipeSlots back is released,
        // and only announced chunks may be produced.
        if (next >= consumed + kPipeSlots ||
            next >= announced_.load(std::memory_order_acquire)) {
            WaitHelperBell(bell);
            continue;
        }
        working_.store(next, std::memory_order_release);
        const size_t slot = next % kPipeSlots;
        if (ops_.produce_ahead(context_, slot)) {
            published_[slot].store(next + 1, std::memory_order_release);
            g_helper_chunks.fetch_add(1, std::memory_order_relaxed);
            ++next;
        }
        progress_.fetch_add(1, std::memory_order_release);
    }
}

}  // namespace spur::workload
