/**
 * @file
 * A fixed-size pool of worker threads draining a FIFO task queue.
 *
 * The pool is deliberately minimal: tasks are type-erased closures, the
 * queue is unbounded, and completion tracking is left to the caller
 * (see runner.h, which layers deterministic experiment orchestration on
 * top).  A task that throws is considered a caller bug at this layer;
 * Runner wraps every task so exceptions never reach the pool.
 *
 * The queue and stop flag carry thread-safety annotations
 * (src/common/thread_annotations.h): under clang -Wthread-safety,
 * touching them without holding mutex_ is a compile error.
 */
#ifndef SPUR_RUNNER_THREAD_POOL_H_
#define SPUR_RUNNER_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace spur::runner {

/** Fixed-size worker pool; tasks run in submission order, one per slot. */
class ThreadPool
{
  public:
    /** Starts @p threads workers (at least one). */
    explicit ThreadPool(unsigned threads);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Enqueues @p task to run on some worker thread. */
    void Submit(std::function<void()> task);

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  private:
    void WorkerLoop(unsigned worker_index);

    /** True when a worker should stop sleeping on ready_. */
    bool HasWork() const SPUR_REQUIRES(mutex_)
    {
        return stopping_ || !queue_.empty();
    }

    Mutex mutex_;
    CondVar ready_;
    std::deque<std::function<void()>> queue_ SPUR_GUARDED_BY(mutex_);
    bool stopping_ SPUR_GUARDED_BY(mutex_) = false;
    std::vector<std::thread> workers_;
};

/** Threads to use when the user does not say: HardwareThreads(), the
 *  CPUs this process may run on. */
unsigned HardwareJobs();

/**
 * Installs the process-wide default job count used when a runner entry
 * point is called with jobs = 0 (as runner::RunMatrix does).  Passing 0
 * restores the hardware default.  The bench/example harness installs the
 * --jobs flag value here so library-level callers inherit it.
 */
void SetDefaultJobs(unsigned jobs);

/** The effective default job count (never 0). */
unsigned DefaultJobs();

/**
 * 0-based index of the pool worker running the current thread, 0 on
 * any thread outside a pool.  Recorded in per-cell telemetry so the
 * JSON trajectory shows how cells spread over workers.
 */
unsigned CurrentWorkerIndex();

}  // namespace spur::runner

#endif  // SPUR_RUNNER_THREAD_POOL_H_
