/**
 * @file
 * Tests for the common utilities: bit helpers, the deterministic RNG
 * (including the exactness of its integer-threshold draws), table
 * rendering, argument parsing, the hardware thread count, and the
 * framing substrate under SPUR-STREAM/1 and SPUR-TRACE/1.
 */
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/args.h"
#include "src/common/bits.h"
#include "src/common/cpu.h"
#include "src/common/framed_log.h"
#include "src/common/random.h"
#include "src/common/table.h"
#include "src/sweep/stream.h"
#include "src/workload/trace.h"
#include "src/workload/workloads.h"

namespace spur {
namespace {

// ---------------------------------------------------------------------------
// bits.h
// ---------------------------------------------------------------------------

TEST(BitsTest, IsPowerOfTwo)
{
    EXPECT_FALSE(IsPowerOfTwo(0));
    EXPECT_TRUE(IsPowerOfTwo(1));
    EXPECT_TRUE(IsPowerOfTwo(2));
    EXPECT_FALSE(IsPowerOfTwo(3));
    EXPECT_TRUE(IsPowerOfTwo(4096));
    EXPECT_FALSE(IsPowerOfTwo(4097));
    EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 63));
}

TEST(BitsTest, FloorLog2)
{
    EXPECT_EQ(FloorLog2(1), 0u);
    EXPECT_EQ(FloorLog2(2), 1u);
    EXPECT_EQ(FloorLog2(3), 1u);
    EXPECT_EQ(FloorLog2(32), 5u);
    EXPECT_EQ(FloorLog2(4096), 12u);
    EXPECT_EQ(FloorLog2((uint64_t{1} << 40) + 5), 40u);
}

TEST(BitsTest, ExtractBits)
{
    EXPECT_EQ(ExtractBits(0xFF00, 8, 8), 0xFFu);
    EXPECT_EQ(ExtractBits(0xABCD, 0, 4), 0xDu);
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 0, 64), ~uint64_t{0});
    EXPECT_EQ(ExtractBits(0b1010, 1, 2), 0b01u);
}

// Shift counts at or beyond the 64-bit boundary are UB on a bare shift;
// ExtractBits must give them defined results instead.  These run under
// UBSan in the asan preset, so a regression aborts the test.
TEST(BitsTest, ExtractBitsEdgeCasesAreDefined)
{
    // lo at or past the top bit: the field reads as zero.
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 64, 8), 0u);
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 200, 64), 0u);
    // lo + width past the top: clamps to the bits that exist.
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 60, 64), 0xFu);
    EXPECT_EQ(ExtractBits(uint64_t{1} << 63, 63, 8), 1u);
    // Zero-width field is empty.
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 0, 0), 0u);
    EXPECT_EQ(ExtractBits(~uint64_t{0}, 63, 0), 0u);
    // Everything above is also constant-foldable (no UB in constexpr).
    static_assert(ExtractBits(~uint64_t{0}, 64, 8) == 0);
    static_assert(ExtractBits(~uint64_t{0}, 60, 64) == 0xF);
}

TEST(BitsTest, AlignUpDown)
{
    EXPECT_EQ(AlignUp(0, 32), 0u);
    EXPECT_EQ(AlignUp(1, 32), 32u);
    EXPECT_EQ(AlignUp(32, 32), 32u);
    EXPECT_EQ(AlignUp(33, 32), 64u);
    EXPECT_EQ(AlignDown(33, 32), 32u);
    EXPECT_EQ(AlignDown(4095, 4096), 0u);
    EXPECT_EQ(AlignDown(4096, 4096), 4096u);
}

TEST(BitsTest, AlignAtTopOfAddressSpace)
{
    // The largest representable multiple of the alignment round-trips
    // exactly; align == 1 is the identity everywhere.
    const uint64_t top = ~uint64_t{0} - 4095;  // 2^64 - 4096
    EXPECT_EQ(AlignUp(top, 4096), top);
    EXPECT_EQ(AlignUp(top - 1, 4096), top);
    EXPECT_EQ(AlignDown(~uint64_t{0}, 4096), top);
    EXPECT_EQ(AlignUp(~uint64_t{0}, 1), ~uint64_t{0});
    EXPECT_EQ(AlignDown(~uint64_t{0}, 1), ~uint64_t{0});
    EXPECT_EQ(AlignDown(~uint64_t{0}, uint64_t{1} << 63), uint64_t{1} << 63);
}

// ---------------------------------------------------------------------------
// random.h
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.Next(), b.Next());
    }
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        same += (a.Next() == b.Next()) ? 1 : 0;
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange)
{
    Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.NextBelow(bound), bound);
        }
    }
}

TEST(RngTest, NextBelowCoversRange)
{
    Rng rng(9);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i) {
        ++seen[rng.NextBelow(10)];
    }
    for (int count : seen) {
        // Uniform expectation 1000; allow generous slack.
        EXPECT_GT(count, 700);
        EXPECT_LT(count, 1300);
    }
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double value = rng.NextDouble();
        ASSERT_GE(value, 0.0);
        ASSERT_LT(value, 1.0);
        sum += value;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(5);
    Rng twin(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.Chance(0.0));
        EXPECT_TRUE(rng.Chance(1.0));
        EXPECT_FALSE(rng.Chance(-1.0));
        EXPECT_TRUE(rng.Chance(2.0));
        EXPECT_FALSE(rng.ChanceBelow(Rng::Threshold(0.0)));
        EXPECT_TRUE(rng.ChanceBelow(Rng::Threshold(1.0)));
        EXPECT_FALSE(rng.ChanceBelow(Rng::Threshold(-1.0)));
        EXPECT_TRUE(rng.ChanceBelow(Rng::Threshold(2.0)));
    }
    // Certain outcomes draw nothing: the state has not moved.
    EXPECT_EQ(rng.Next(), twin.Next());
}

TEST(RngTest, ChanceBelowMatchesChance)
{
    Rng a(23);
    Rng b(23);
    for (const double p : {0.0, 1e-300, 2e-4, 0.02, 0.25, 0.55, 0.999, 1.0}) {
        const uint64_t threshold = Rng::Threshold(p);
        for (int i = 0; i < 2000; ++i) {
            ASSERT_EQ(a.ChanceBelow(threshold), b.Chance(p)) << p;
        }
    }
    EXPECT_EQ(a.Next(), b.Next());
}

/**
 * `Next53() < Threshold(p)` must agree with `NextDouble() < p` for every
 * 53-bit draw.  The decision flips at n = Threshold(p), so check the
 * draws on both sides of it, the ends of the range, and a random draw.
 */
void
ExpectThresholdExact(double p, Rng& rng)
{
    const uint64_t threshold = Rng::Threshold(p);
    ASSERT_LE(threshold, Rng::kAlways) << p;
    const uint64_t last = Rng::kAlways - 1;
    for (const uint64_t n :
         {uint64_t{0}, last, threshold, threshold - 1, threshold + 1,
          rng.Next() >> 11}) {
        if (n > last) {
            continue;  // Not a 53-bit draw (the wrap of threshold - 1).
        }
        const double value = static_cast<double>(n) * 0x1.0p-53;
        ASSERT_EQ(n < threshold, value < p) << p << " at n=" << n;
    }
}

TEST(RngTest, ThresholdIsExactAtBoundaries)
{
    Rng rng(29);
    for (const double p :
         {0.0, -0.0, -1.0, 1.0, 2.0, std::nextafter(1.0, 0.0),
          std::nextafter(0.0, 1.0), std::numeric_limits<double>::min(),
          std::numeric_limits<double>::denorm_min() * 12345, 0x1.0p-53,
          0x1.0p-54, 0.5, 0.55, 0.7, 0.1, 1.0 / 3.0}) {
        ExpectThresholdExact(p, rng);
    }
    EXPECT_EQ(Rng::Threshold(std::nan("")), 0u);
    EXPECT_EQ(Rng::Threshold(1.0), Rng::kAlways);
    EXPECT_EQ(Rng::Threshold(std::nextafter(1.0, 0.0)), Rng::kAlways - 1);
    EXPECT_EQ(Rng::Threshold(std::numeric_limits<double>::denorm_min()), 1u);
}

TEST(RngTest, ThresholdIsExactForRandomProbabilities)
{
    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
        // Uniform p, plus p spread over many binades.
        ExpectThresholdExact(rng.NextDouble(), rng);
        ExpectThresholdExact(
            std::ldexp(rng.NextDouble(), -static_cast<int>(rng.NextBelow(64))),
            rng);
    }
}

TEST(RngTest, ThresholdIsExactOnDrawStreams)
{
    Rng a(37);
    Rng b(37);
    for (int i = 0; i < 2000; ++i) {
        const double p = static_cast<double>(i) / 2000.0;
        const uint64_t threshold = Rng::Threshold(p);
        for (int j = 0; j < 20; ++j) {
            ASSERT_EQ(a.Next53() < threshold, b.NextDouble() < p) << p;
        }
    }
}

TEST(RngTest, ThresholdIsExactForEveryProfileProbability)
{
    // Every probability the workload generator compares draws against:
    // the cumulative generator weights and the per-reference fractions.
    const workload::WorkloadSpec specs[] = {
        workload::MakeWorkload1(),        workload::MakeSlc(),
        workload::MakeDevMachine(0.5),    workload::MakeDevMachine(1.0),
        workload::MakeDevMachine(2.0),    workload::MakeCtxSwitchHeavy(),
        workload::MakeFlushStorm(),       workload::MakeServerChurn(),
        workload::MakeGcSweep(),
    };
    Rng rng(41);
    size_t checked = 0;
    for (const workload::WorkloadSpec& spec : specs) {
        for (const workload::JobSpec& job : spec.jobs) {
            const workload::ProcessProfile& p = job.profile;
            const double weights[] = {p.w_seq_read,    p.w_seq_write,
                                      p.w_rmw,         p.w_scan_update,
                                      p.w_rand,        p.w_file_write};
            double total = 0;
            for (const double w : weights) {
                total += w;
            }
            double acc = 0;
            for (const double w : weights) {
                acc += w / total;
                ExpectThresholdExact(acc, rng);
                ++checked;
            }
            for (const double q : {p.frac_ifetch, p.frac_stack,
                                   p.ws_slide_prob, p.rand_write_frac,
                                   p.file_reread_frac, p.call_prob}) {
                ExpectThresholdExact(q, rng);
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 100u);
}

TEST(RngTest, ChanceProbabilityApproximate)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
        hits += rng.Chance(0.25) ? 1 : 0;
    }
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(RngTest, ZipfBiasesTowardZero)
{
    Rng rng(13);
    uint64_t low = 0;
    uint64_t high = 0;
    const uint64_t n = 100;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t idx = rng.NextZipf(n, 0.9);
        ASSERT_LT(idx, n);
        if (idx < n / 10) {
            ++low;
        }
        if (idx >= n - n / 10) {
            ++high;
        }
    }
    EXPECT_GT(low, high * 5);
}

TEST(RngTest, ZipfDegenerateCases)
{
    Rng rng(17);
    EXPECT_EQ(rng.NextZipf(0, 0.8), 0u);
    EXPECT_EQ(rng.NextZipf(1, 0.8), 0u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_LT(rng.NextZipf(5, 0.99), 5u);  // Near-1 skew is clamped.
    }
}

// ---------------------------------------------------------------------------
// table.h
// ---------------------------------------------------------------------------

std::string
Render(Table& table, bool csv = false)
{
    std::FILE* f = std::tmpfile();
    if (csv) {
        table.PrintCsv(f);
    } else {
        table.Print(f);
    }
    std::fseek(f, 0, SEEK_SET);
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        out.append(buf, n);
    }
    std::fclose(f);
    return out;
}

TEST(TableTest, RendersHeaderAndRows)
{
    Table t("Title");
    t.SetHeader({"a", "bb"});
    t.AddRow({"1", "2"});
    t.AddRow({"333", "4"});
    const std::string out = Render(t);
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
    EXPECT_EQ(t.NumRows(), 2u);
}

TEST(TableTest, PadsShortRows)
{
    Table t("");
    t.SetHeader({"a", "b", "c"});
    t.AddRow({"only"});
    const std::string out = Render(t);
    EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecialCells)
{
    Table t("T");
    t.SetHeader({"x"});
    t.AddRow({"has,comma"});
    t.AddRow({"has\"quote"});
    const std::string out = Render(t, /*csv=*/true);
    EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
    EXPECT_NE(out.find("# T"), std::string::npos);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(Table::Num(uint64_t{12345}), "12345");
    EXPECT_EQ(Table::Num(1.5, 2), "1.50");
    EXPECT_EQ(Table::Rel(1.034), "(1.03)");
    EXPECT_EQ(Table::Pct(0.18), "18%");
    EXPECT_EQ(Table::Pct(0.1849, 1), "18.5%");
}

// ---------------------------------------------------------------------------
// args.h
// ---------------------------------------------------------------------------

Args
MakeArgs(std::vector<const char*> argv)
{
    argv.insert(argv.begin(), "prog");
    return Args(static_cast<int>(argv.size()),
                const_cast<char**>(argv.data()));
}

TEST(ArgsTest, ParsesEqualsForm)
{
    const Args args = MakeArgs({"--reps=5", "--name=x"});
    EXPECT_EQ(args.GetInt("reps", 0), 5);
    EXPECT_EQ(args.GetString("name"), "x");
}

TEST(ArgsTest, ParsesSpaceForm)
{
    const Args args = MakeArgs({"--reps", "7"});
    EXPECT_EQ(args.GetInt("reps", 0), 7);
}

TEST(ArgsTest, BareFlagAndDefaults)
{
    const Args args = MakeArgs({"--csv"});
    EXPECT_TRUE(args.Has("csv"));
    EXPECT_FALSE(args.Has("missing"));
    EXPECT_EQ(args.GetInt("missing", 42), 42);
    EXPECT_DOUBLE_EQ(args.GetDouble("missing", 2.5), 2.5);
}

TEST(ArgsTest, Positional)
{
    const Args args = MakeArgs({"pos1", "--flag", "pos2"});
    // "pos2" follows a bare flag, so it is consumed as its value.
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
    EXPECT_EQ(args.GetString("flag"), "pos2");
}

TEST(ArgsTest, DoubleValues)
{
    const Args args = MakeArgs({"--x=1.25"});
    EXPECT_DOUBLE_EQ(args.GetDouble("x", 0), 1.25);
}

// ---------------------------------------------------------------------------
// FormatToolUsage — the one renderer behind every tool's --help.
// ---------------------------------------------------------------------------

TEST(ToolUsageTest, RendersSynopsesOverviewAndAlignedFlags)
{
    const std::vector<ToolCommand> commands = {
        {"go [--fast] TARGET",
         "run the thing",
         {{"--fast", "skip checks"}, {"--dry-run=N", "pretend N times"}}},
        {"stop",
         "halt the thing",
         {{"--now", "no grace period"}}},
    };
    const std::string text =
        FormatToolUsage("demo", "A demo tool.", commands);

    // The usage block lists every synopsis, continuation-aligned.
    EXPECT_EQ(text.rfind("usage: demo go [--fast] TARGET\n", 0), 0u);
    EXPECT_NE(text.find("\n       demo stop\n"), std::string::npos);
    EXPECT_NE(text.find("\nA demo tool.\n"), std::string::npos);
    // Each command section carries its summary...
    EXPECT_NE(text.find("\n  run the thing\n"), std::string::npos);
    EXPECT_NE(text.find("\n  halt the thing\n"), std::string::npos);
    // ...and flag docs align on one column across the whole tool: the
    // widest flag is "--dry-run=N" (11 chars), so every doc starts at
    // 4 (indent) + 11 + 2 = column 17.
    EXPECT_NE(text.find("    --fast       skip checks\n"),
              std::string::npos);
    EXPECT_NE(text.find("    --dry-run=N  pretend N times\n"),
              std::string::npos);
    EXPECT_NE(text.find("    --now        no grace period\n"),
              std::string::npos);
}

TEST(ToolUsageTest, FlaglessCommandRendersWithoutFlagBlock)
{
    const std::vector<ToolCommand> commands = {
        {"version", "print the version", {}},
    };
    const std::string text = FormatToolUsage("demo", "", commands);
    EXPECT_EQ(text,
              "usage: demo version\n"
              "\n"
              "demo version\n"
              "  print the version\n");
}

// ---------------------------------------------------------------------------
// cpu.h
// ---------------------------------------------------------------------------

TEST(HardwareThreadsTest, AtLeastOne)
{
    EXPECT_GE(HardwareThreads(), 1u);
}

#if defined(__linux__)
TEST(HardwareThreadsTest, CountsTheAffinityMaskNotTheMachine)
{
    // Under `taskset -c 0` the machine still has all its CPUs
    // (hardware_concurrency), but the process may use one.
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(HardwareThreads(), static_cast<unsigned>(CPU_COUNT(&saved)));
    int first = 0;
    while (!CPU_ISSET(first, &saved)) {
        ++first;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned pinned = HardwareThreads();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
}
#endif

// ---------------------------------------------------------------------------
// framed_log.h, over both formats' tag sets
// ---------------------------------------------------------------------------

struct FrameFormat {
    const char* name;
    std::string_view tags;
    std::string_view magic;
    std::string_view other_magic;  ///< The other format's magic line.
};

constexpr FrameFormat kFrameFormats[] = {
    {"Stream", sweep::kStreamTags, sweep::kStreamMagic,
     workload::kTraceMagic},
    {"Trace", workload::kTraceTags, workload::kTraceMagic,
     sweep::kStreamMagic},
};

void
PrintTo(const FrameFormat& format, std::ostream* os)
{
    *os << format.name;
}

class FramedLogTest : public ::testing::TestWithParam<FrameFormat>
{
  protected:
    /** Scans @p bytes from offset 0. */
    FrameStatus Scan(std::string_view bytes, Frame* frame = nullptr,
                     std::string* why = nullptr) const
    {
        Frame unused_frame;
        std::string unused_why;
        return NextFrame(bytes, 0, GetParam().tags,
                         frame != nullptr ? frame : &unused_frame,
                         why != nullptr ? why : &unused_why);
    }
};

TEST_P(FramedLogTest, EveryProperPrefixOfAFrameIsTruncation)
{
    for (const char tag : GetParam().tags) {
        for (const std::string& payload :
             {std::string(), std::string("x\ny"), std::string(123, 'p')}) {
            const std::string frame = EncodeFrame(tag, payload);
            for (size_t cut = 1; cut < frame.size(); ++cut) {
                std::string why;
                EXPECT_EQ(Scan(std::string_view(frame).substr(0, cut),
                               nullptr, &why),
                          FrameStatus::kTruncated)
                    << tag << " cut at " << cut << ": " << why;
            }
            const std::string followed = frame + "tail";
            Frame scanned;
            ASSERT_EQ(Scan(followed, &scanned), FrameStatus::kOk);
            EXPECT_EQ(scanned.tag, tag);
            EXPECT_EQ(scanned.payload, payload);
            EXPECT_EQ(scanned.end, frame.size());
        }
    }
}

TEST_P(FramedLogTest, EachMalformedHeaderByteIsCorruption)
{
    struct Damage {
        size_t at;         ///< Byte of "<tag> 3\nabc\n" replaced.
        const char* with;  ///< Replacement bytes tried there.
        const char* why;
    };
    const Damage damages[] = {
        {1, "x0\n\t", "missing space after frame tag"},
        {2, "x \n-", "malformed frame length"},
        {3, "x \r-", "malformed frame length"},
        {7, "x \r0", "frame payload not newline-terminated"},
    };
    for (const char tag : GetParam().tags) {
        const std::string frame = EncodeFrame(tag, "abc");
        ASSERT_EQ(frame.size(), 8u);
        for (const Damage& damage : damages) {
            for (const char* c = damage.with; *c != '\0'; ++c) {
                std::string bad = frame;
                bad[damage.at] = *c;
                std::string why;
                EXPECT_EQ(Scan(bad, nullptr, &why), FrameStatus::kCorrupt)
                    << tag << " byte " << damage.at;
                EXPECT_EQ(why, damage.why) << tag << " byte " << damage.at;
            }
        }
    }
    for (int c = 0; c < 256; ++c) {
        const char tag = static_cast<char>(c);
        if (GetParam().tags.find(tag) != std::string_view::npos) {
            continue;
        }
        std::string why;
        EXPECT_EQ(Scan(EncodeFrame(tag, "abc"), nullptr, &why),
                  FrameStatus::kCorrupt)
            << "tag " << c;
        EXPECT_EQ(why, "unknown frame tag") << "tag " << c;
    }
}

TEST_P(FramedLogTest, LengthBoundSeparatesTruncationFromCorruption)
{
    static_assert(kMaxFramePayload == 1ULL << 30);
    for (const char tag : GetParam().tags) {
        const std::string at_bound = std::string(1, tag) + " 1073741824\n";
        EXPECT_EQ(Scan(at_bound), FrameStatus::kTruncated) << tag;
        EXPECT_EQ(Scan(at_bound + "partial payload"), FrameStatus::kTruncated)
            << tag;
        for (const std::string& over :
             {std::string(1, tag) + " 1073741825\n",
              std::string(1, tag) + " 1073741825",
              std::string(1, tag) + " 99999999999999999999999\n"}) {
            std::string why;
            EXPECT_EQ(Scan(over, nullptr, &why), FrameStatus::kCorrupt)
                << over;
            EXPECT_EQ(why, "frame length out of range") << over;
        }
    }
}

TEST_P(FramedLogTest, MagicCutIsTruncationMismatchIsCorruption)
{
    const std::string_view magic = GetParam().magic;
    for (size_t cut = 0; cut < magic.size(); ++cut) {
        EXPECT_EQ(CheckMagic(magic.substr(0, cut), magic),
                  MagicStatus::kTruncated)
            << "cut at " << cut;
    }
    EXPECT_EQ(CheckMagic(magic, magic), MagicStatus::kOk);
    EXPECT_EQ(CheckMagic(std::string(magic) + "H 0\n\n", magic),
              MagicStatus::kOk);
    for (size_t at = 0; at < magic.size(); ++at) {
        std::string bad(magic);
        bad[at] ^= 0x20;
        EXPECT_EQ(CheckMagic(bad, magic), MagicStatus::kMismatch)
            << "byte " << at;
        EXPECT_EQ(CheckMagic(std::string_view(bad).substr(0, at + 1), magic),
                  MagicStatus::kMismatch)
            << "cut after damaged byte " << at;
    }
    EXPECT_EQ(CheckMagic(GetParam().other_magic, magic),
              MagicStatus::kMismatch);
}

INSTANTIATE_TEST_SUITE_P(Formats, FramedLogTest,
                         ::testing::ValuesIn(kFrameFormats),
                         [](const auto& info) {
                             return std::string(info.param.name);
                         });

}  // namespace
}  // namespace spur
