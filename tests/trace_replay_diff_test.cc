/**
 * @file
 * The --record-trace / --replay-trace contract, end to end through
 * runner::BenchSession: for every scenario × dirty policy, a session
 * that records while running live, a session that replays the recorded
 * library, and the plain live session all produce byte-identical
 * --json documents — at --jobs=1 and --jobs=4.  This is the acceptance
 * gate of DESIGN.md §19: one workload generation feeds every cell of a
 * policy matrix, and parallelism never leaks into the bytes.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/runner/session.h"
#include "tests/temp_dir.h"

namespace spur {
namespace {

std::string
ReadFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string bytes;
    if (f != nullptr) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
            bytes.append(buf, n);
        }
        std::fclose(f);
    }
    return bytes;
}

/** The scenario × dirty-policy matrix every session here runs. */
std::vector<core::RunConfig>
MatrixConfigs()
{
    const policy::DirtyPolicyKind kinds[] = {
        policy::DirtyPolicyKind::kFault, policy::DirtyPolicyKind::kFlush,
        policy::DirtyPolicyKind::kSpur, policy::DirtyPolicyKind::kWrite,
        policy::DirtyPolicyKind::kMin};
    std::vector<core::RunConfig> configs;
    for (const core::WorkloadId workload : core::kScenarioLibrary) {
        for (const policy::DirtyPolicyKind dirty : kinds) {
            core::RunConfig config;
            config.workload = workload;
            config.dirty = dirty;
            config.memory_mb = 8;
            config.refs = 120'000;
            config.seed = 33;
            configs.push_back(config);
        }
    }
    return configs;
}

/**
 * Runs the matrix through one BenchSession built from @p flags plus a
 * --json path, returning the document bytes.  All sessions share the
 * bench name, so the documents are comparable byte for byte.  With
 * @p reps the session runs it as a shuffled RunMatrix of that many
 * repetitions, else through RunAll.
 */
std::string
RunSession(ScopedTempDir& tmp, const std::string& tag,
           std::vector<std::string> flags,
           std::vector<core::RunResult>* results = nullptr,
           uint32_t reps = 0)
{
    const std::string json_path = tmp.Path(tag + ".json");
    flags.push_back("--json=" + json_path);
    std::vector<char*> argv;
    std::string argv0 = "trace_replay_diff";
    argv.push_back(argv0.data());
    for (std::string& flag : flags) {
        argv.push_back(flag.data());
    }
    const Args args(static_cast<int>(argv.size()), argv.data());
    runner::BenchSession session("trace_replay_diff", args);
    if (reps == 0) {
        std::vector<core::RunResult> run = session.RunAll(MatrixConfigs());
        if (results != nullptr) {
            *results = std::move(run);
        }
    } else {
        session.RunMatrix(MatrixConfigs(), reps);
    }
    EXPECT_EQ(session.Finish(), 0) << tag;
    return ReadFile(json_path);
}

TEST(TraceReplayDiffTest, ReplayedMatrixIsByteIdenticalAtAnyJobs)
{
    ScopedTempDir tmp;
    const std::string trace_path = tmp.Path("scenarios.trc");

    // Plain live run: the reference bytes.
    std::vector<core::RunResult> live_results;
    const std::string live =
        RunSession(tmp, "live", {"--jobs=1"}, &live_results);
    ASSERT_FALSE(live.empty());

    // Recording must not perturb the run it records.
    const std::string recorded = RunSession(
        tmp, "record", {"--jobs=1", "--record-trace=" + trace_path});
    EXPECT_EQ(recorded, live);

    // Replaying the library reproduces the live bytes — with the
    // generator out of the loop entirely — at one worker and at four.
    std::vector<core::RunResult> replay_results;
    const std::string replay_j1 =
        RunSession(tmp, "replay_j1",
                   {"--jobs=1", "--replay-trace=" + trace_path},
                   &replay_results);
    EXPECT_EQ(replay_j1, live);
    const std::string replay_j4 = RunSession(
        tmp, "replay_j4", {"--jobs=4", "--replay-trace=" + trace_path});
    EXPECT_EQ(replay_j4, live);

    // The in-memory results agree too, not just the serialized ones.
    ASSERT_EQ(replay_results.size(), live_results.size());
    for (size_t i = 0; i < live_results.size(); ++i) {
        EXPECT_EQ(replay_results[i].events.TotalMisses(),
                  live_results[i].events.TotalMisses())
            << i;
        EXPECT_EQ(replay_results[i].events.Get(sim::Event::kDirtyFault),
                  live_results[i].events.Get(sim::Event::kDirtyFault))
            << i;
        EXPECT_EQ(replay_results[i].refs_issued,
                  live_results[i].refs_issued)
            << i;
        EXPECT_EQ(replay_results[i].elapsed_seconds,
                  live_results[i].elapsed_seconds)
            << i;
    }
}

TEST(TraceReplayDiffTest, RecordingAtFourJobsMatchesOneJob)
{
    // The claim-once protocol: whichever cell wins the race to record a
    // stream, the committed bytes are the same; and streams are
    // committed in the order a sequential run claims them, whichever
    // cell finishes first.  So every --jobs=4 library is byte-identical
    // to the --jobs=1 one and replays to the same --json.
    ScopedTempDir tmp;
    const std::string trace_j1 = tmp.Path("j1.trc");
    const std::string live_j1 = RunSession(
        tmp, "record_j1", {"--jobs=1", "--record-trace=" + trace_j1});
    const std::string library_j1 = ReadFile(trace_j1);
    ASSERT_FALSE(library_j1.empty());
    std::string trace_j4;
    for (int run = 0; run < 3; ++run) {
        const std::string tag = "record_j4_" + std::to_string(run);
        trace_j4 = tmp.Path(tag + ".trc");
        const std::string live_j4 = RunSession(
            tmp, tag, {"--jobs=4", "--record-trace=" + trace_j4});
        EXPECT_EQ(live_j4, live_j1) << tag;
        // Not EXPECT_EQ: a mismatch would print both libraries.
        EXPECT_TRUE(ReadFile(trace_j4) == library_j1)
            << tag << ": the library depends on --jobs";
    }

    const std::string replay_a = RunSession(
        tmp, "replay_a", {"--jobs=4", "--replay-trace=" + trace_j1});
    const std::string replay_b = RunSession(
        tmp, "replay_b", {"--jobs=1", "--replay-trace=" + trace_j4});
    EXPECT_EQ(replay_a, live_j1);
    EXPECT_EQ(replay_b, live_j1);
}

TEST(TraceReplayDiffTest, ShuffledMatrixRecordingAtFourJobsMatchesOneJob)
{
    // The same through RunMatrix, whose cells run in the shuffled order
    // of the randomized design: the library follows that order.
    ScopedTempDir tmp;
    const std::string trace_j1 = tmp.Path("j1.trc");
    RunSession(tmp, "record_j1", {"--jobs=1", "--record-trace=" + trace_j1},
               nullptr, /*reps=*/2);
    const std::string library_j1 = ReadFile(trace_j1);
    ASSERT_FALSE(library_j1.empty());
    for (int run = 0; run < 3; ++run) {
        const std::string tag = "record_j4_" + std::to_string(run);
        const std::string trace_j4 = tmp.Path(tag + ".trc");
        RunSession(tmp, tag, {"--jobs=4", "--record-trace=" + trace_j4},
                   nullptr, /*reps=*/2);
        EXPECT_TRUE(ReadFile(trace_j4) == library_j1)
            << tag << ": the library depends on --jobs";
    }
}

}  // namespace
}  // namespace spur
