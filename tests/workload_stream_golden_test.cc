/**
 * @file
 * Stream goldens for the workload generator: every named workload and a
 * set of hand-built edge profiles is driven through RecordingHost over
 * the counts-only CountingHost, and the FNV-1a64 digest of the encoded
 * SPUR-TRACE/1 stream is pinned.
 *
 * The encoded stream holds every WorkloadHost operation the driver
 * issues (creates, maps, shares, switches, teardowns and every
 * reference), so a generator change that moves one draw, one address
 * or one quantum boundary moves the digest.  Generator speedups must
 * keep these pins: a transformation that keeps the draw sequence keeps
 * every byte (DESIGN.md §15).  The edge profiles reach the folded
 * generator-selection branches (empty regions, disabled generators,
 * extreme probabilities, lifetimes that end inside a quantum).
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "src/sim/config.h"
#include "src/workload/driver.h"
#include "src/workload/trace.h"
#include "src/workload/workloads.h"

namespace spur::workload {
namespace {

constexpr uint64_t kSeed = 7;

uint64_t
Fnv1a64(const std::string& bytes)
{
    uint64_t digest = 14695981039346656037ULL;
    for (const char c : bytes) {
        digest ^= static_cast<unsigned char>(c);
        digest *= 1099511628211ULL;
    }
    return digest;
}

/** Records @p spec for @p refs references and digests the stream. */
uint64_t
StreamDigest(WorkloadSpec spec, uint64_t refs)
{
    TraceStreamMeta meta;
    meta.workload = spec.name;
    meta.seed = kSeed;
    meta.refs = refs;
    const sim::MachineConfig config = sim::MachineConfig::Prototype(8);
    meta.page_bytes = config.page_bytes;
    meta.block_bytes = config.block_bytes;
    CountingHost host(config);
    TraceEncoder encoder(meta);
    RecordingHost recorder(host, encoder);
    const uint32_t slice_refs = spec.slice_refs;
    Driver driver(recorder, std::move(spec), refs, kSeed, slice_refs);
    driver.Run();
    recorder.StopRecording();
    return Fnv1a64(encoder.Finish(driver.refs_issued()));
}

std::string
Hex(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

// ---- Named workloads ------------------------------------------------------

TEST(WorkloadStreamGoldenTest, NamedWorkloads)
{
    // 3M refs: every WORKLOAD1 job (the debugger starts at 2.6M) has run.
    constexpr uint64_t kRefs = 3'000'000;
    const std::pair<WorkloadSpec, const char*> cases[] = {
        {MakeWorkload1(), "689c3f0e14c4efff"},
        {MakeSlc(), "339648eddffcc1c3"},
        {MakeDevMachine(0.5), "22e2d1582675caee"},
        {MakeDevMachine(1.0), "17900f77d090c8f8"},
        {MakeDevMachine(2.0), "472b5e3efb1d4cbf"},
        {MakeCtxSwitchHeavy(), "9f1d047e9a3f8dd7"},
        {MakeFlushStorm(), "073b229aa99f834c"},
        {MakeServerChurn(), "3ee8aa7c8dd088e8"},
        {MakeGcSweep(), "0daaa3d982277e4e"},
    };
    for (const auto& [spec, pin] : cases) {
        EXPECT_EQ(Hex(StreamDigest(spec, kRefs)), pin) << spec.name;
    }
}

// ---- Edge profiles ----------------------------------------------------------

/** The base edge profile: every data generator enabled, output files on. */
ProcessProfile
EdgeBase()
{
    ProcessProfile p;
    p.name = "edge";
    p.w_file_write = 0.4;
    return p;
}

/** One process of @p profile, running for the whole stream. */
WorkloadSpec
Solo(const ProcessProfile& profile)
{
    WorkloadSpec spec;
    spec.name = profile.name;
    spec.jobs.push_back(JobSpec{profile, 0, 1, 0});
    return spec;
}

struct EdgeCase {
    const char* name;
    void (*edit)(ProcessProfile&);
    const char* pin;
};

TEST(WorkloadStreamGoldenTest, EdgeProfiles)
{
    constexpr uint64_t kRefs = 300'000;
    const EdgeCase cases[] = {
        {"base", [](ProcessProfile&) {}, "38354abc37e685fe"},
        {"no-data", [](ProcessProfile& p) { p.data_pages = 0; },
         "1dc9db046a9744ee"},
        {"no-heap", [](ProcessProfile& p) { p.heap_pages = 0; },
         "0e078ace7bc6cd9c"},
        {"no-stack", [](ProcessProfile& p) { p.stack_pages = 0; },
         "8eea2a694ca4529a"},
        {"no-data-no-heap",
         [](ProcessProfile& p) {
             p.data_pages = 0;
             p.heap_pages = 0;
         },
         "48c4b5f42a902ac6"},
        {"no-file-write", [](ProcessProfile& p) { p.w_file_write = 0; },
         "1ff87ea46a626edc"},
        {"slide-never", [](ProcessProfile& p) { p.ws_slide_prob = 0; },
         "796c025e02b3d49d"},
        {"slide-always", [](ProcessProfile& p) { p.ws_slide_prob = 1; },
         "d4ef47e735a7b808"},
        {"no-stack-refs", [](ProcessProfile& p) { p.frac_stack = 0; },
         "25da0af07d1c28f6"},
        {"all-stack-refs", [](ProcessProfile& p) { p.frac_stack = 1; },
         "875aeb76b4b764bf"},
        {"data-only", [](ProcessProfile& p) { p.frac_ifetch = 0; },
         "5d35fa4deed92ebc"},
        {"rand-only",
         [](ProcessProfile& p) {
             p.w_seq_read = p.w_seq_write = p.w_rmw = 0;
             p.w_scan_update = p.w_file_write = 0;
         },
         "2b30369a9c07f574"},
        {"file-write-only-no-data",
         [](ProcessProfile& p) {
             p.w_seq_read = p.w_seq_write = p.w_rmw = 0;
             p.w_scan_update = p.w_rand = 0;
             p.data_pages = 0;
         },
         "5018db2ea6bbf1d9"},
        {"tiny-regions",
         [](ProcessProfile& p) {
             p.code_pages = 1;
             p.data_pages = 4;
             p.heap_pages = 1;
             p.stack_pages = 1;
             p.ws_slide_prob = 0.01;
         },
         "c0fa3f4f1da447a8"},
        {"extreme-probabilities",
         [](ProcessProfile& p) {
             p.rand_write_frac = 1;
             p.file_reread_frac = 1;
             p.call_prob = 0;
         },
         "fcbc1e672fb6ad93"},
    };
    for (const EdgeCase& c : cases) {
        ProcessProfile profile = EdgeBase();
        c.edit(profile);
        EXPECT_EQ(Hex(StreamDigest(Solo(profile), kRefs)), c.pin) << c.name;
    }
}

TEST(WorkloadStreamGoldenTest, LifetimeEndsMidQuantum)
{
    // Lifetimes that are not a multiple of the quantum: NextBatch returns
    // short, the driver reaps and respawns between quanta, and two
    // instances share text through the job's owner process.
    ProcessProfile profile = EdgeBase();
    profile.lifetime_refs = 12'345;
    WorkloadSpec spec;
    spec.name = "mid-quantum";
    spec.slice_refs = 5'000;
    spec.jobs.push_back(JobSpec{profile, 0, 2, 777});
    ProcessProfile once = EdgeBase();
    once.name = "once";
    once.lifetime_refs = 4'321;
    spec.jobs.push_back(JobSpec{once, 1'000, 1, 0});
    EXPECT_EQ(Hex(StreamDigest(std::move(spec), 200'000)),
              "82fe72daf4fdfe0a");
}

}  // namespace
}  // namespace spur::workload
