/**
 * @file
 * Concurrency stress tests for the parallel-runner machinery: the thread
 * pool, ParallelFor, RunMatrix's completion queue, the serialized
 * logger, and the helper threads of the reference pipe and the trace
 * recorder's encode stage.  These are written
 * for the TSan preset (build-tsan/) — under ThreadSanitizer any data
 * race in the exercised paths fails the test — but they also run in
 * every other build as plain correctness checks.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/core/experiment.h"
#include "src/runner/runner.h"
#include "src/runner/thread_pool.h"
#include "src/sim/config.h"
#include "src/workload/driver.h"
#include "src/workload/ref_pipe.h"
#include "src/workload/trace.h"
#include "src/workload/workloads.h"
#include "tests/op_log.h"

namespace spur::runner {
namespace {

TEST(ThreadPoolStressTest, ManySubmittersManyTasks)
{
    // Tasks submitted from several threads (through a feeder pool) into a
    // shared worker pool: exercises the queue's mutex from both sides.
    std::atomic<uint64_t> sum{0};
    {
        ThreadPool workers(4);
        {
            ThreadPool feeders(3);
            for (int f = 0; f < 3; ++f) {
                feeders.Submit([&workers, &sum, f] {
                    for (uint64_t i = 0; i < 2'000; ++i) {
                        workers.Submit([&sum, f, i] {
                            sum.fetch_add(f * 10'000 + i % 7,
                                          std::memory_order_relaxed);
                        });
                    }
                });
            }
        }  // Feeders joined: all 6000 tasks are queued.
    }      // Workers joined: all tasks ran.
    uint64_t expected = 0;
    for (int f = 0; f < 3; ++f) {
        for (uint64_t i = 0; i < 2'000; ++i) {
            expected += f * 10'000 + i % 7;
        }
    }
    EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolStressTest, DestructorDrainsPendingQueue)
{
    // The destructor promises to drain the queue, not discard it; a lost
    // task here would surface as a missed experiment cell in RunMatrix.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 5'000; ++i) {
            pool.Submit([&ran] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        }
    }
    EXPECT_EQ(ran.load(), 5'000);
}

TEST(ParallelForStressTest, AllIndicesVisitedExactlyOnce)
{
    constexpr size_t kCount = 10'000;
    std::vector<std::atomic<int>> visits(kCount);
    ParallelFor(kCount, /*jobs=*/8, [&](size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelForStressTest, ExceptionsPropagateWithoutRaces)
{
    std::atomic<int> ran{0};
    EXPECT_THROW(
        ParallelFor(512, /*jobs=*/8,
                    [&](size_t i) {
                        ran.fetch_add(1, std::memory_order_relaxed);
                        if (i % 17 == 3) {
                            throw std::runtime_error("injected");
                        }
                    }),
        std::runtime_error);
    EXPECT_EQ(ran.load(), 512);  // A failure never cancels other items.
}

TEST(LogStressTest, ConcurrentLoggingAndVerbosityToggles)
{
    // Warn/Inform serialize on an internal mutex and SetVerbose flips
    // shared state; hammering them together is the TSan target.  Output
    // goes to stderr, so keep the volume modest.
    SetVerbose(false);
    {
        ThreadPool pool(6);
        for (int t = 0; t < 6; ++t) {
            pool.Submit([t] {
                for (int i = 0; i < 200; ++i) {
                    if (t == 0 && i % 50 == 0) {
                        SetVerbose(i % 100 == 0);
                    } else if (t % 2 == 0) {
                        Inform("stress inform " + std::to_string(i));
                    } else if (i % 100 == 99) {
                        Warn("stress warn " + std::to_string(t));
                    }
                }
            });
        }
    }
    SetVerbose(true);
}

TEST(RunMatrixStressTest, ParallelMatrixMatchesSequential)
{
    // The determinism contract under contention: many small cells, more
    // jobs than cores, progress callbacks firing — bit-identical results
    // at any job count, no races under TSan.
    std::vector<core::RunConfig> configs;
    for (const policy::DirtyPolicyKind dirty :
         {policy::DirtyPolicyKind::kSpur, policy::DirtyPolicyKind::kFault}) {
        core::RunConfig config;
        config.workload = core::WorkloadId::kSlc;
        config.memory_mb = 5;
        config.dirty = dirty;
        config.refs = 60'000;
        configs.push_back(config);
    }

    const auto sequential = RunMatrix(configs, /*reps=*/3,
                                      /*shuffle_seed=*/7, /*jobs=*/1);
    std::atomic<int> cells{0};
    const auto parallel =
        RunMatrix(configs, /*reps=*/3, /*shuffle_seed=*/7, /*jobs=*/6,
                  [&](const Cell&) {
                      cells.fetch_add(1, std::memory_order_relaxed);
                  });
    EXPECT_EQ(cells.load(), 6);

    ASSERT_EQ(sequential.size(), parallel.size());
    for (size_t i = 0; i < sequential.size(); ++i) {
        ASSERT_EQ(sequential[i].size(), parallel[i].size());
        for (size_t r = 0; r < sequential[i].size(); ++r) {
            EXPECT_EQ(sequential[i][r].page_ins, parallel[i][r].page_ins);
            EXPECT_EQ(sequential[i][r].refs_issued,
                      parallel[i][r].refs_issued);
            for (size_t e = 0; e < sim::kNumEvents; ++e) {
                const auto event = static_cast<sim::Event>(e);
                ASSERT_EQ(sequential[i][r].events.Get(event),
                          parallel[i][r].events.Get(event))
                    << sim::ToString(event);
            }
        }
    }
}

}  // namespace
}  // namespace spur::runner

namespace spur::workload {
namespace {

/// Concurrent drivers, and as many concurrent replays.
constexpr int kPipesPerKind = 8;
constexpr uint64_t kStressRefs = 40'000;
constexpr int kStressReps = 3;

/** Pipe i's script, at a tiny slice so chunks hand over constantly. */
WorkloadSpec
StressSpec(int i)
{
    return (i % 2 == 0) ? MakeCtxSwitchHeavy() : MakeServerChurn();
}

uint32_t
StressSlice(int i)
{
    return 1 + 3 * static_cast<uint32_t>(i);
}

OpLog
StressLive(int i)
{
    OpLog log(sim::MachineConfig::Prototype(8));
    Driver driver(log, StressSpec(i), kStressRefs, i, StressSlice(i));
    driver.Run();
    return log;
}

TraceStream
StressStream(int i)
{
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    TraceStreamMeta meta;
    meta.workload = StressSpec(i).name;
    meta.seed = static_cast<uint64_t>(i);
    meta.refs = kStressRefs;
    meta.page_bytes = config.page_bytes;
    meta.block_bytes = config.block_bytes;
    CountingHost counting(config);
    TraceEncoder encoder(meta);
    RecordingHost recorder(counting, encoder);
    Driver driver(recorder, StressSpec(i), kStressRefs, i, StressSlice(i));
    driver.Run();
    recorder.StopRecording();
    std::string error;
    auto trace = RecoverTraceBytes(
        EncodeTraceFile({encoder.Finish(driver.refs_issued())}), &error);
    return trace.has_value() ? trace->streams.at(0) : TraceStream{};
}

OpLog
StressReplay(const TraceStream& stream)
{
    OpLog log(sim::MachineConfig::Prototype(8), /*first_pid=*/100);
    ReplayStream(stream, log);
    return log;
}

/**
 * Runs kPipesPerKind drivers and kPipesPerKind replays at once, each
 * kStressReps times, under a CPU budget of @p cpus, and checks every
 * run against its single-threaded op sequence.
 */
void
StressPipes(unsigned cpus)
{
    std::vector<OpLog> live_expected;
    std::vector<TraceStream> streams;
    std::vector<OpLog> replay_expected;
    {
        ScopedPipeBudget inline_only(0);
        for (int i = 0; i < kPipesPerKind; ++i) {
            live_expected.push_back(StressLive(i));
            streams.push_back(StressStream(i));
            ASSERT_GT(streams.back().accesses, 0u);
            replay_expected.push_back(StressReplay(streams.back()));
        }
    }
    ScopedPipeBudget budget(cpus);
    std::vector<int> same(2 * kPipesPerKind, 1);
    std::vector<std::thread> threads;
    for (int i = 0; i < kPipesPerKind; ++i) {
        threads.emplace_back([&, i] {
            for (int rep = 0; rep < kStressReps; ++rep) {
                same[i] &= StressLive(i).SameOps(live_expected[i]);
            }
        });
        threads.emplace_back([&, i] {
            for (int rep = 0; rep < kStressReps; ++rep) {
                same[kPipesPerKind + i] &=
                    StressReplay(streams[i]).SameOps(replay_expected[i]);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    for (int i = 0; i < 2 * kPipesPerKind; ++i) {
        EXPECT_TRUE(same[i]) << (i < kPipesPerKind ? "driver " : "replay ")
                             << i % kPipesPerKind;
    }
}

TEST(RefPipeStressTest, TwoCpuBudgetParksHelpersAndTakesChunksOver)
{
    // Sixteen callers on two CPUs: helpers start only while a pipe runs
    // alone, park as soon as the count passes the budget, and callers
    // take over the chunks of parked or preempted helpers, which then
    // catch up through the mailbox.
    StressPipes(2);
}

TEST(RefPipeStressTest, UnboundedBudgetHandsEveryChunkOver)
{
    // Every pipe gets a helper: thirty-two threads on the machine's
    // CPUs, so handoffs, take-overs from preempted helpers, catch-ups
    // and stale queue loads between sixteen pairs.
    StressPipes(1024);
}

/**
 * Runs kPipesPerKind recorders at once, each kStressReps times, under a
 * CPU budget of @p cpus: each encode stage's caller and helper hand
 * chunks back and forth (and driver pipes run beside them), and every
 * stream must come out as the single-threaded encoder writes it.
 */
void
StressRecorders(unsigned cpus)
{
    std::vector<std::string> expected;
    {
        ScopedPipeBudget inline_only(0);
        for (int i = 0; i < kPipesPerKind; ++i) {
            expected.push_back(StressStream(i).framed);
            ASSERT_FALSE(expected.back().empty());
        }
    }
    ScopedPipeBudget budget(cpus);
    std::vector<int> same(kPipesPerKind, 1);
    std::vector<std::thread> threads;
    for (int i = 0; i < kPipesPerKind; ++i) {
        threads.emplace_back([&, i] {
            for (int rep = 0; rep < kStressReps; ++rep) {
                same[i] &= StressStream(i).framed == expected[i];
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    for (int i = 0; i < kPipesPerKind; ++i) {
        EXPECT_TRUE(same[i]) << "recorder " << i;
    }
}

TEST(RecordStageStressTest, TwoCpuBudgetParksEncodersAndCallersTakeOver)
{
    // Eight recorders on two CPUs: encode helpers park while the count
    // is over budget, and their callers encode the waiting chunks.
    StressRecorders(2);
}

TEST(RecordStageStressTest, UnboundedBudgetHandsChunksBetweenThreads)
{
    // Every recorder gets an encode helper and a driver helper: 24
    // threads on the machine's CPUs, so chunks pass between caller and
    // helper in both directions and sleeping callers are woken.
    StressRecorders(1024);
}

}  // namespace
}  // namespace spur::workload
