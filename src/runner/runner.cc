#include "src/runner/runner.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <utility>

#include "src/check/audit.h"
#include "src/audit/dominance.h"
#include "src/common/log.h"
#include "src/common/mutex.h"
#include "src/common/random.h"
#include "src/common/thread_annotations.h"
#include "src/runner/thread_pool.h"
#include "src/sweep/telemetry.h"

namespace spur::runner {

namespace {

/** Resolves a user-facing job count (0 = default) against the work size. */
unsigned
EffectiveJobs(unsigned jobs, size_t count)
{
    if (jobs == 0) {
        jobs = DefaultJobs();
    }
    return static_cast<unsigned>(
        std::min<size_t>(jobs, std::max<size_t>(count, 1)));
}

/**
 * The cells this shard owns, in execution order: the shuffled list
 * filtered to the shard and, when a cost table is supplied, reordered
 * longest-first (stable, so unknown-cost cells keep their shuffled
 * relative order behind every measured one).
 */
std::vector<CellId>
ShardCells(const std::vector<core::RunConfig>& configs, uint32_t reps,
           const MatrixOptions& options)
{
    const uint32_t shard_count = std::max(options.shard_count, 1u);
    if (options.shard_index >= shard_count) {
        Fatal("RunMatrix: shard index " +
              std::to_string(options.shard_index) +
              " out of range for count " + std::to_string(shard_count));
    }
    std::vector<CellId> cells =
        MatrixOrder(configs.size(), reps, options.shuffle_seed);
    if (shard_count > 1) {
        std::vector<CellId> mine;
        mine.reserve(cells.size() / shard_count + 1);
        for (size_t ordinal = 0; ordinal < cells.size(); ++ordinal) {
            if ((options.shard_offset + ordinal) % shard_count ==
                options.shard_index) {
                mine.push_back(cells[ordinal]);
            }
        }
        cells = std::move(mine);
    }
    if (options.cost) {
        std::vector<double> costs(cells.size());
        for (size_t i = 0; i < cells.size(); ++i) {
            costs[i] = options.cost(configs[cells[i].config_index],
                                    cells[i].rep);
        }
        std::vector<size_t> order(cells.size());
        for (size_t i = 0; i < order.size(); ++i) {
            order[i] = i;
        }
        std::stable_sort(order.begin(), order.end(),
                         [&costs](size_t a, size_t b) {
                             return costs[a] > costs[b];
                         });
        std::vector<CellId> sorted;
        sorted.reserve(cells.size());
        for (const size_t i : order) {
            sorted.push_back(cells[i]);
        }
        cells = std::move(sorted);
    }
    return cells;
}

/**
 * Post-matrix audit (audit builds only): once every cell of the grid has
 * finished, the cross-policy dominance invariants are checkable — MIN is
 * a lower bound on dirty faults, reference bits never increase page-ins.
 */
void
AuditMatrix(const std::vector<core::RunConfig>& configs,
            const std::vector<std::vector<core::RunResult>>& results)
{
    if constexpr (check::kAuditEnabled) {
        audit::AuditDominance(configs, results)
            .RaiseIfFailed("runner::RunMatrix (post-matrix)");
    } else {
        (void)configs;
        (void)results;
    }
}

}  // namespace

uint64_t
CellSeed(uint64_t config_seed, uint32_t rep)
{
    // Distinct, reproducible seed per repetition; must never change, or
    // every recorded result in the perf trajectory shifts.
    return config_seed * 1000003 + rep * 7919 + 17;
}

std::vector<CellId>
MatrixOrder(size_t num_configs, uint32_t reps, uint64_t shuffle_seed)
{
    std::vector<CellId> cells;
    cells.reserve(num_configs * reps);
    for (size_t i = 0; i < num_configs; ++i) {
        for (uint32_t r = 0; r < reps; ++r) {
            cells.push_back(CellId{i, r});
        }
    }
    Rng rng(shuffle_seed);
    for (size_t i = cells.size(); i > 1; --i) {
        std::swap(cells[i - 1], cells[rng.NextBelow(i)]);
    }
    return cells;
}

void
ParallelFor(size_t count, unsigned jobs,
            const std::function<void(size_t)>& fn)
{
    if (count == 0) {
        return;
    }
    jobs = EffectiveJobs(jobs, count);
    std::vector<std::exception_ptr> errors(count);
    if (jobs <= 1) {
        for (size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    } else {
        // Completion gate shared with the workers; the counter's guard
        // is machine-checked via the annotation (DESIGN.md §13).
        struct Gate {
            Mutex mutex;
            CondVar all_done;
            size_t finished SPUR_GUARDED_BY(mutex) = 0;
        } gate;
        ThreadPool pool(jobs);
        for (size_t i = 0; i < count; ++i) {
            pool.Submit([&, i] {
                try {
                    fn(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
                {
                    MutexLock lock(gate.mutex);
                    ++gate.finished;
                }
                gate.all_done.NotifyOne();
            });
        }
        {
            MutexLock lock(gate.mutex);
            while (gate.finished != count) {
                gate.all_done.Wait(gate.mutex);
            }
        }
    }
    for (const std::exception_ptr& error : errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
}

std::vector<CellId>
ExecutionOrder(const std::vector<core::RunConfig>& configs, uint32_t reps,
               const MatrixOptions& options)
{
    std::vector<CellId> cells = ShardCells(configs, reps, options);
    if (options.skip) {
        std::erase_if(cells, [&](const CellId& id) {
            core::RunConfig cell = configs[id.config_index];
            cell.seed = CellSeed(cell.seed, id.rep);
            return options.skip(cell, id.rep);
        });
    }
    return cells;
}

std::vector<std::vector<core::RunResult>>
RunMatrix(const std::vector<core::RunConfig>& configs, uint32_t reps,
          const MatrixOptions& options, const CellCallback& progress)
{
    std::vector<CellId> cells = ShardCells(configs, reps, options);
    // The resume hook filters owned cells before any scheduling; skipped
    // cells surface through progress so the caller can substitute their
    // previously recorded results.
    bool any_skipped = false;
    if (options.skip) {
        std::vector<CellId> to_run;
        to_run.reserve(cells.size());
        for (const CellId& id : cells) {
            Cell cell;
            cell.config_index = id.config_index;
            cell.rep = id.rep;
            cell.config = configs[id.config_index];
            cell.config.seed = CellSeed(cell.config.seed, id.rep);
            if (options.skip(cell.config, id.rep)) {
                any_skipped = true;
                cell.executed = false;
                if (progress) {
                    progress(cell);
                }
            } else {
                to_run.push_back(id);
            }
        }
        cells = std::move(to_run);
    }
    // The cross-policy dominance audit needs the complete grid; a shard
    // holds only its slice and a resumed run skips cells, so the audit
    // runs on full in-process runs alone (the shard-union CI job still
    // covers sharded sweeps end to end).
    const bool full_matrix = options.shard_count <= 1 && !any_skipped;
    std::vector<std::vector<core::RunResult>> results(configs.size());
    for (auto& group : results) {
        group.resize(reps);
    }

    const unsigned jobs = EffectiveJobs(options.jobs, cells.size());
    if (jobs <= 1) {
        for (const CellId& id : cells) {
            Cell cell;
            cell.config_index = id.config_index;
            cell.rep = id.rep;
            cell.config = configs[id.config_index];
            cell.config.seed = CellSeed(cell.config.seed, id.rep);
            const sweep::Stopwatch stopwatch;
            cell.result = core::RunOnce(cell.config);
            cell.wall_seconds = stopwatch.Seconds();
            cell.peak_rss_bytes = sweep::PeakRssBytes();
            cell.worker = CurrentWorkerIndex();
            results[id.config_index][id.rep] = cell.result;
            if (progress) {
                progress(cell);
            }
        }
        if (full_matrix) {
            AuditMatrix(configs, results);
        }
        return results;
    }

    // Workers execute cells and hand them back over a completion queue;
    // the calling thread drains it, firing progress callbacks here so
    // callers never need their own locking.
    struct Done {
        Cell cell;
        std::exception_ptr error;
    };
    // Completion queue shared with the workers; the deque's guard is
    // machine-checked via the annotation (DESIGN.md §13).
    struct DoneQueue {
        Mutex mutex;
        CondVar ready;
        std::deque<Done> cells SPUR_GUARDED_BY(mutex);
    } completed;

    ThreadPool pool(jobs);
    for (const CellId& id : cells) {
        pool.Submit([&, id] {
            Done d;
            d.cell.config_index = id.config_index;
            d.cell.rep = id.rep;
            d.cell.config = configs[id.config_index];
            d.cell.config.seed = CellSeed(d.cell.config.seed, id.rep);
            try {
                const sweep::Stopwatch stopwatch;
                d.cell.result = core::RunOnce(d.cell.config);
                d.cell.wall_seconds = stopwatch.Seconds();
                d.cell.peak_rss_bytes = sweep::PeakRssBytes();
                d.cell.worker = CurrentWorkerIndex();
            } catch (...) {
                d.error = std::current_exception();
            }
            {
                MutexLock lock(completed.mutex);
                completed.cells.push_back(std::move(d));
            }
            completed.ready.NotifyOne();
        });
    }

    // Deterministic error choice: the failed cell with the lowest
    // (config_index, rep), independent of completion order.
    std::exception_ptr first_error;
    std::pair<size_t, uint32_t> first_error_cell{~size_t{0}, 0};
    for (size_t drained = 0; drained < cells.size(); ++drained) {
        Done d;
        {
            MutexLock lock(completed.mutex);
            while (completed.cells.empty()) {
                completed.ready.Wait(completed.mutex);
            }
            d = std::move(completed.cells.front());
            completed.cells.pop_front();
        }
        if (d.error) {
            const std::pair<size_t, uint32_t> at{d.cell.config_index,
                                                 d.cell.rep};
            if (!first_error || at < first_error_cell) {
                first_error = d.error;
                first_error_cell = at;
            }
            continue;
        }
        if (progress) {
            progress(d.cell);
        }
        results[d.cell.config_index][d.cell.rep] = std::move(d.cell.result);
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
    if (full_matrix) {
        AuditMatrix(configs, results);
    }
    return results;
}

std::vector<std::vector<core::RunResult>>
RunMatrix(const std::vector<core::RunConfig>& configs, uint32_t reps,
          uint64_t shuffle_seed, unsigned jobs, const CellCallback& progress)
{
    MatrixOptions options;
    options.shuffle_seed = shuffle_seed;
    options.jobs = jobs;
    return RunMatrix(configs, reps, options, progress);
}

std::vector<core::RunResult>
RunAll(const std::vector<core::RunConfig>& configs, unsigned jobs)
{
    std::vector<core::RunResult> results(configs.size());
    ParallelFor(configs.size(), jobs,
                [&](size_t i) { results[i] = core::RunOnce(configs[i]); });
    return results;
}

}  // namespace spur::runner
