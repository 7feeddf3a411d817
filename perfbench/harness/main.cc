// perfbench: host-time benchmark of the SPUR simulator on the paper's
// cells.  See perfbench/README.md for the workloads, the metrics and
// how each per-layer number relates to an end-to-end one.
//
//   perfbench --workload <paper-live|policy-replay|scenario-record>
//             --seed <n> --seconds <s> --trace <0|1>
//             --pins <pinned_digests.txt> --workdir <dir> [--commit <id>]
//   perfbench --print-pins --seed 1      (regenerates the pinned digests)
//
// Prints a run descriptor, the metrics by name with units and sample
// counts, and as its last line one JSON object.  Exits nonzero when a
// cell fails its correctness checks.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cells.h"
#include "harness/layers.h"
#include "src/check/audit.h"
#include "src/core/run_trace.h"
#include "src/workload/trace.h"

namespace perfbench {
namespace {

namespace core = spur::core;
namespace sim = spur::sim;
namespace workload = spur::workload;
using spur::policy::DirtyPolicyKind;

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif


struct Options {
    std::string workload;
    uint64_t seed = kPinnedSeed;
    double seconds = 10.0;
    bool trace = false;
    bool print_pins = false;
    std::string pins_path;
    std::string workdir = ".";
    std::string commit = "unknown";
};

[[noreturn]] void
Usage(const std::string& message)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <paper-live|policy-replay|"
                 "scenario-record> --seed <n> --seconds <s> --trace <0|1> "
                 "--pins <file> --workdir <dir> [--commit <id>]\n"
                 "       perfbench --print-pins [--seed <n>]\n",
                 message.c_str());
    std::exit(2);
}

Options
ParseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        const size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (arg != "--print-pins") {
            if (i + 1 >= argc) {
                Usage("missing value for " + arg);
            }
            value = argv[++i];
        }
        char* end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0') {
                Usage("bad --seed '" + value + "'");
            }
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(options.seconds > 0)) {
                Usage("bad --seconds '" + value + "'");
            }
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") {
                Usage("--trace takes 0 or 1");
            }
            options.trace = value == "1";
        } else if (arg == "--print-pins") {
            options.print_pins = true;
        } else if (arg == "--pins") {
            options.pins_path = value;
        } else if (arg == "--workdir") {
            options.workdir = value;
        } else if (arg == "--commit") {
            options.commit = value;
        } else {
            Usage("unknown flag " + arg);
        }
    }
    return options;
}

std::string
JsonString(const std::string& text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
JsonNumber(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0);
    return buf;
}

std::string
CpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

std::string
Descriptor(const Options& options)
{
    std::ostringstream out;
    out << "{\"workload\": " << JsonString(options.workload)
        << ", \"seed\": " << options.seed
        << ", \"seconds\": " << JsonNumber(options.seconds)
        << ", \"trace\": " << (options.trace ? 1 : 0)
        << ", \"cell_refs\": " << kCellRefs
        << ", \"commit\": " << JsonString(options.commit)
        << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"cpu\": " << JsonString(CpuModel())
        << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
        << ", \"flags\": " << JsonString(PERFBENCH_CXX_FLAGS)
        << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE) << "}";
    return out.str();
}

/** Sorted-sample quantile (lower nearest rank). */
double
Quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const size_t index = static_cast<size_t>(
        std::floor(q * static_cast<double>(values.size() - 1)));
    return values[index];
}

double
Median(const std::vector<double>& values)
{
    return Quantile(values, 0.5);
}

/**
 * Mean of the middle half of @p values (all of them below four): as
 * robust as the median to a cold first sample, but it moves smoothly
 * as the share of samples taken in a slow host regime changes.
 */
double
InterquartileMean(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t trim = values.size() >= 4 ? values.size() / 4 : 0;
    double sum = 0;
    for (size_t i = trim; i < values.size() - trim; ++i) {
        sum += values[i];
    }
    return values.empty() ? 0.0
                          : sum / static_cast<double>(values.size() - 2 * trim);
}

/** p99, or the highest percentile that leaves ten samples beyond it. */
double
TailQuantileLevel(size_t samples)
{
    if (samples <= 20) {
        return 0.5;
    }
    return std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples));
}

double
Ratio(double numerator, double denominator)
{
    return denominator != 0 ? numerator / denominator : 0.0;
}

[[gnu::format(printf, 1, 2)]] std::string
Format(const char* format, ...)
{
    char buf[160];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

// ---------------------------------------------------------------------------
// Pinned digests
// ---------------------------------------------------------------------------

using Pins = std::map<std::string, uint64_t>;

bool
LoadPins(const std::string& path, Pins* pins, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read pinned digests '" + path + "'";
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string id;
        std::string hex;
        if (!(fields >> id >> hex)) {
            *error = "malformed pin line '" + line + "'";
            return false;
        }
        (*pins)[id] = std::strtoull(hex.c_str(), nullptr, 16);
    }
    return true;
}

std::string
Hex(uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/** Per-cell inputs built before a pass: specs and cold machines. */
struct PassState {
    std::vector<workload::WorkloadSpec> specs;
    std::vector<std::unique_ptr<core::SpurSystem>> systems;
};

PassState
PreparePass(const Workload& w)
{
    PassState state;
    for (const Cell& cell : w.cells) {
        state.specs.push_back(core::SpecFor(cell.config));
        state.systems.push_back(MakeSystem(cell.config));
    }
    return state;
}

/**
 * Records every distinct stream the workload's cells replay (through
 * CountingHost), frames them as one trace and recovers it, as a
 * replaying sweep would load its library.
 */
std::optional<workload::RecoveredTrace>
RecordAndRecover(const Workload& w, Tracer* tracer, std::string* error)
{
    std::vector<std::string> frames;
    std::vector<std::string> identities;
    for (const Cell& cell : w.cells) {
        const std::string identity =
            core::TraceMetaFor(cell.config).Identity();
        if (std::find(identities.begin(), identities.end(), identity) ==
            identities.end()) {
            identities.push_back(identity);
            ScopedSpan span(tracer, "setup.record_stream", cell.config.refs);
            frames.push_back(RecordStream(cell.config));
        }
    }
    const std::string bytes = workload::EncodeTraceFile(frames);
    ScopedSpan span(tracer, "trace.recover", bytes.size());
    std::optional<workload::RecoveredTrace> trace =
        workload::RecoverTraceBytes(bytes, error);
    if (trace.has_value() &&
        (!trace->complete || trace->streams.size() != frames.size())) {
        *error = "recovered trace incomplete: " + trace->note;
        trace.reset();
    }
    return trace;
}

const workload::TraceStream*
FindStream(const workload::RecoveredTrace& trace, const Cell& cell)
{
    const std::string identity = core::TraceMetaFor(cell.config).Identity();
    for (const workload::TraceStream& stream : trace.streams) {
        if (stream.meta.Identity() == identity) {
            return &stream;
        }
    }
    return nullptr;
}

/** One executed cell, kept for metrics and checks. */
struct CellRun {
    size_t cell_index = 0;
    int pass = 0;
    bool traced = false;
    CellResult result;
};

/** The whole run's bookkeeping. */
class Bench
{
  public:
    Bench(Options options, Workload w, Pins pins)
        : options_(std::move(options)), w_(std::move(w)),
          pins_(std::move(pins))
    {
    }

    /** Runs setup and the timed passes; returns false on a setup error. */
    bool Run();

    /** Prints descriptor, metrics and the final JSON line; returns the
     *  process exit code. */
    int Report();

    /** Prints "<cell id> <digest>" for every cell (pin regeneration). */
    int PrintPins();

  private:
    /** Sets up and runs one pass; false when setup fails. */
    bool RunPass(int pass);
    void CheckCell(const CellRun& run);
    void Fail(const std::string& cell_id, const std::string& message);
    void CrossCheckLiveReplay();
    void WriteSpans() const;

    Options options_;
    Workload w_;
    Pins pins_;
    Tracer tracer_;
    std::optional<workload::RecoveredTrace> streams_;

    std::vector<double> setup_s_;
    std::vector<CellRun> runs_;
    struct PassTotals {
        bool traced;
        uint64_t refs;
        int64_t cell_ns;
    };
    std::vector<PassTotals> passes_;
    std::map<size_t, uint64_t> first_digest_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

void
Bench::Fail(const std::string& cell_id, const std::string& message)
{
    ++failed_;
    failures_.push_back(cell_id + ": " + message);
}

bool
Bench::Run()
{
    // Whole passes only, so every pass has the same cell mix.
    const int64_t loop_start = NowNs();
    for (int pass = 0;; ++pass) {
        if (!RunPass(pass)) {
            return false;
        }
        const double elapsed =
            static_cast<double>(NowNs() - loop_start) * 1e-9;
        const double per_pass = elapsed / (pass + 1);
        if (elapsed + 0.5 * per_pass >= options_.seconds) {
            break;
        }
    }
    if (w_.cells.front().mode == CellMode::kReplay) {
        CrossCheckLiveReplay();
    }
    return true;
}

bool
Bench::RunPass(int pass)
{
    // Setup: everything before the pass's first timed cell.  Every pass
    // sets up from scratch, so setup_s samples the whole run.
    tracer_.SetCell(-1);
    const int64_t setup_start = NowNs();
    PassState state = PreparePass(w_);
    if (w_.cells.front().mode == CellMode::kReplay) {
        std::string error;
        streams_ =
            RecordAndRecover(w_, options_.trace ? &tracer_ : nullptr, &error);
        if (!streams_.has_value()) {
            std::fprintf(stderr, "perfbench: setup failed: %s\n",
                         error.c_str());
            return false;
        }
    }
    setup_s_.push_back(static_cast<double>(NowNs() - setup_start) * 1e-9);

    // scenario-record: a fresh trace file in a fresh directory per pass.
    std::filesystem::path dir;
    workload::TraceFileWriter writer;
    const bool recording = w_.cells.front().mode == CellMode::kRecord;
    if (recording) {
        std::string tmpl =
            (std::filesystem::path(options_.workdir) / "tmp-XXXXXX").string();
        if (mkdtemp(tmpl.data()) == nullptr) {
            std::fprintf(stderr, "perfbench: mkdtemp %s failed\n",
                         tmpl.c_str());
            return false;
        }
        dir = tmpl;
        std::string error;
        if (!writer.Open((dir / "scenarios.trace").string(), &error)) {
            std::fprintf(stderr, "perfbench: trace open: %s\n",
                         error.c_str());
            std::filesystem::remove_all(dir);
            return false;
        }
    }

    // A traced run runs every cell twice, back to back: untraced, then
    // traced on a second cold machine.  The host's speed drifts over
    // seconds, so only such adjacent pairs measure the tracing overhead.
    PassTotals totals[2] = {{false, 0, 0}, {true, 0, 0}};
    const size_t first_run = runs_.size();
    for (size_t i = 0; i < w_.cells.size(); ++i) {
        const Cell& cell = w_.cells[i];
        CellInputs inputs;
        inputs.spec = &state.specs[i];
        inputs.writer = recording ? &writer : nullptr;
        if (cell.mode == CellMode::kReplay) {
            inputs.stream = FindStream(*streams_, cell);
        }
        for (bool traced : {false, true}) {
            if (traced && !options_.trace) {
                break;
            }
            std::unique_ptr<core::SpurSystem> system =
                traced ? MakeSystem(cell.config) : std::move(state.systems[i]);
            tracer_.SetCell(static_cast<int32_t>(pass * w_.cells.size() + i));
            CellRun run;
            run.cell_index = i;
            run.pass = pass;
            run.traced = traced;
            run.result = RunCell(cell, *system, inputs,
                                 traced ? &tracer_ : nullptr);
            system.reset();  // Teardown outside the timed cell.
            totals[traced].refs += run.result.refs;
            totals[traced].cell_ns += run.result.wall_ns;
            ++attempted_;
            CheckCell(run);
            runs_.push_back(std::move(run));
        }
    }
    tracer_.SetCell(-1);
    passes_.push_back(totals[0]);
    if (options_.trace) {
        passes_.push_back(totals[1]);
    }

    if (recording) {
        std::string error;
        if (!writer.Finish(&error)) {
            Fail("pass " + std::to_string(pass), "trace finish: " + error);
        }
        std::optional<workload::RecoveredTrace> trace;
        {
            const std::string path = (dir / "scenarios.trace").string();
            ScopedSpan span(options_.trace ? &tracer_ : nullptr,
                            "trace.recover", std::filesystem::file_size(path));
            trace = workload::RecoverTraceFile(path, &error);
        }
        std::filesystem::remove_all(dir);
        // The file must recover complete, each stream exactly as the
        // encoder sealed it.
        for (size_t k = first_run; k < runs_.size(); ++k) {
            const CellRun& run = runs_[k];
            const std::string id = w_.cells[run.cell_index].Id();
            const size_t slot = k - first_run;
            if (!trace.has_value()) {
                Fail(id, "trace file did not recover: " + error);
            } else if (!trace->complete ||
                       trace->streams.size() != runs_.size() - first_run) {
                Fail(id, "trace file incomplete: " + trace->note);
            } else if (trace->streams[slot].framed !=
                           run.result.stream_bytes ||
                       trace->streams[slot].accesses !=
                           run.result.stream_accesses ||
                       trace->streams[slot].refs_issued != run.result.refs) {
                Fail(id, "recovered stream differs from the encoded one");
            }
            // Checked: release the buffer (assigning an empty string
            // would keep its capacity).
            std::string().swap(runs_[k].result.stream_bytes);
        }
    }
    return true;
}

void
Bench::CheckCell(const CellRun& run)
{
    const std::string id = w_.cells[run.cell_index].Id();
    const CellResult& result = run.result;
    if (!result.error.empty()) {
        Fail(id, result.error);
        return;
    }
    if (result.refs != w_.cells[run.cell_index].config.refs) {
        Fail(id, "issued " + std::to_string(result.refs) + " refs");
        return;
    }
    const auto [it, inserted] =
        first_digest_.emplace(run.cell_index, result.digest);
    if (!inserted && it->second != result.digest) {
        Fail(id, "digest " + Hex(result.digest) + " differs from pass 0's " +
                     Hex(it->second));
        return;
    }
    if (options_.seed == kPinnedSeed && !options_.print_pins &&
        run.pass == 0) {
        const auto pin = pins_.find(id);
        if (pin == pins_.end()) {
            Fail(id, "no pinned digest");
        } else if (pin->second != result.digest) {
            Fail(id, "digest " + Hex(result.digest) + " != pinned " +
                         Hex(pin->second));
        }
    }
}

void
Bench::CrossCheckLiveReplay()
{
    // The replayed SPUR cells must match the same cells generated live.
    for (size_t i = 0; i < w_.cells.size(); ++i) {
        Cell live = w_.cells[i];
        if (live.config.dirty != DirtyPolicyKind::kSpur) {
            continue;
        }
        live.mode = CellMode::kLive;
        const workload::WorkloadSpec spec = core::SpecFor(live.config);
        CellInputs inputs;
        inputs.spec = &spec;
        std::unique_ptr<core::SpurSystem> system = MakeSystem(live.config);
        const CellResult result = RunCell(live, *system, inputs, nullptr);
        ++attempted_;
        if (!result.error.empty()) {
            Fail(live.Id() + " (live)", result.error);
        } else if (result.digest != first_digest_[i]) {
            Fail(live.Id(), "live digest " + Hex(result.digest) +
                                " != replay digest " +
                                Hex(first_digest_[i]));
        }
    }
}

int
Bench::PrintPins()
{
    for (const CellRun& run : runs_) {
        if (run.pass == 0) {
            std::printf("%s %s\n", w_.cells[run.cell_index].Id().c_str(),
                        Hex(run.result.digest).c_str());
        }
    }
    return failed_ == 0 ? 0 : 1;
}

void
Bench::WriteSpans() const
{
    const std::string path = (std::filesystem::path(options_.workdir) /
                              ("spans-" + w_.name + "-seed" +
                               std::to_string(options_.seed) + ".csv"))
                                 .string();
    std::ofstream out(path, std::ios::trunc);
    out << "# perfbench spans " << Descriptor(options_) << "\n";
    for (const CellRun& run : runs_) {
        if (run.traced) {
            out << "# cell " << run.pass * w_.cells.size() + run.cell_index
                << " pass=" << run.pass << " "
                << w_.cells[run.cell_index].Id() << "\n";
        }
    }
    out << "id,parent,cell,name,start_ns,end_ns,work,misses,page_faults,"
           "daemon_sweeps,page_flushes\n";
    const std::vector<Span>& spans = tracer_.spans();
    const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << i << ',' << s.parent << ',' << s.cell << ',' << s.name << ','
            << s.start_ns - origin << ',' << s.end_ns - origin << ','
            << s.work << ',' << s.misses << ',' << s.page_faults << ','
            << s.daemon_sweeps << ',' << s.page_flushes << '\n';
    }
    std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string samples;  ///< Human-readable sample description.
};

double
PeakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Table 4.1's headline ratios next to the paper's (informational). */
void
PrintTable41(const Workload& w, const std::vector<CellRun>& runs)
{
    std::map<std::string, const CellResult*> by_id;
    for (const CellRun& run : runs) {
        if (run.pass == 0 && !run.traced) {
            by_id[w.cells[run.cell_index].Id()] = &run.result;
        }
    }
    std::printf("Table 4.1 headline ratios at %" PRIu64
                " refs/cell (model vs. paper; informational):\n",
                kCellRefs);
    for (const char* name : {"WORKLOAD1", "SLC"}) {
        for (const char* mb : {"5", "6", "8"}) {
            const std::string base = std::string(name) + "/" + mb + "MB/SPUR/";
            const CellResult* miss = by_id[base + "MISS"];
            const CellResult* ref = by_id[base + "REF"];
            const CellResult* noref = by_id[base + "NOREF"];
            if (miss == nullptr || ref == nullptr || noref == nullptr) {
                continue;
            }
            const double pageins = Ratio(
                static_cast<double>(noref->events.Get(sim::Event::kPageIn)),
                static_cast<double>(miss->events.Get(sim::Event::kPageIn)));
            const double elapsed =
                Ratio(ref->elapsed_seconds, miss->elapsed_seconds);
            const char* paper_pageins =
                std::string(mb) != "8"
                    ? "1.34-1.89"
                    : (std::string(name) == "SLC" ? "1.43" : "1.05");
            std::printf("  %-9s %sMB  NOREF/MISS page-ins %.3f (paper %s)"
                        "  REF/MISS elapsed %.3f (paper 1.01-1.08)\n",
                        name, mb, pageins, paper_pageins, elapsed);
        }
    }
}

int
Bench::Report()
{
    std::printf("descriptor %s\n", Descriptor(options_).c_str());

    // The host flips between speed regimes that last seconds, so a cell
    // runs wholly fast or wholly slow.  Every figure below therefore
    // averages over passes or cells, which is smooth in the share of
    // slow time, instead of taking one median over the run, which jumps
    // between regimes.
    double total_refs[2] = {0, 0};  // [untraced, traced]
    double total_ns[2] = {0, 0};
    size_t pass_count[2] = {0, 0};
    for (const PassTotals& pass : passes_) {
        total_refs[pass.traced] += static_cast<double>(pass.refs);
        total_ns[pass.traced] += static_cast<double>(pass.cell_ns);
        pass_count[pass.traced] += 1;
    }
    const double untraced_mrefs = Ratio(total_refs[0] * 1e3, total_ns[0]);
    const double traced_mrefs = Ratio(total_refs[1] * 1e3, total_ns[1]);

    std::vector<double> quantum_ns;
    std::vector<double> access_ns;
    double cell_p50_sum = 0;  // Per-cell median quantum ns/ref.
    size_t untraced_cells = 0;
    for (const CellRun& run : runs_) {
        if (!run.traced) {
            const size_t first = quantum_ns.size();
            for (const Quantum& q : run.result.quanta) {
                quantum_ns.push_back(static_cast<double>(q.wall_ns) /
                                     static_cast<double>(q.refs));
            }
            cell_p50_sum += Median(std::vector<double>(
                quantum_ns.begin() + static_cast<ptrdiff_t>(first),
                quantum_ns.end()));
            ++untraced_cells;
        } else {
            for (const Quantum& q : run.result.core_quanta) {
                access_ns.push_back(static_cast<double>(q.access_ns) /
                                    static_cast<double>(q.refs));
            }
        }
    }
    // Every cell issues the same references, so a plain mean over cells
    // is also the reference-weighted one.
    const double p50 =
        Ratio(cell_p50_sum, static_cast<double>(untraced_cells));

    std::vector<Metric> metrics;
    const double failed_frac =
        Ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
    if (!options_.trace) {
        const double tail = TailQuantileLevel(quantum_ns.size());
        metrics = {
            {"mrefs_per_s", untraced_mrefs, "Mref/s",
             Format("%.0f refs over %zu passes", total_refs[0],
                    pass_count[0])},
            {"ns_per_ref_p50", p50, "ns",
             Format("mean of %zu per-cell p50s, %zu quanta",
                    untraced_cells, quantum_ns.size())},
            {"ns_per_ref_p99", Quantile(quantum_ns, tail), "ns",
             Format("p%.4g of %zu quanta", tail * 100, quantum_ns.size())},
            {"setup_s", InterquartileMean(setup_s_), "s",
             Format("interquartile mean of %zu setups", setup_s_.size())},
            {"peak_rss_mb", PeakRssMb(), "MB", "1 process"},
        };
    } else {
        const std::map<std::string, SelfTime> self = SelfTimes(tracer_.spans());
        // Self time of a layer: the span named `name` plus every span
        // named `name.<call>`.
        const auto layer = [&](const std::string& name) {
            SelfTime total;
            for (const auto& [span, entry] : self) {
                if (span == name || span.rfind(name + ".", 0) == 0) {
                    total.self_ns += entry.self_ns;
                    total.total_ns += entry.total_ns;
                    total.calls += entry.calls;
                    total.work += entry.work;
                }
            }
            return total;
        };
        const SelfTime cell = layer("cell");
        const SelfTime gen = layer("workload.gen");
        const SelfTime access = layer("core.access");
        const SelfTime ctx = layer("core.ctx_switch");
        const SelfTime lifecycle = layer("core.lifecycle");
        const SelfTime encode = layer("trace.record");
        const SelfTime write = layer("trace.write");
        const SelfTime decode = layer("trace.decode");
        const SelfTime recover = layer("trace.recover");
        const auto per_ref = [&](double value) {
            return Ratio(value, static_cast<double>(cell.work));
        };
        const auto share = [&](int64_t ns) {
            return Ratio(static_cast<double>(ns),
                         static_cast<double>(cell.total_ns));
        };
        const auto per_call = [](double value, uint64_t calls) {
            return Ratio(value, static_cast<double>(calls));
        };
        const double access_tail = TailQuantileLevel(access_ns.size());
        const std::string traced = Format("%" PRIu64 " refs traced", cell.work);
        metrics = {
            {"workload.gen_ns_per_ref", per_ref(gen.self_ns), "ns/ref",
             traced},
            {"workload.gen_share", share(gen.self_ns), "fraction", traced},
            {"core.access_ns_per_ref", per_ref(access.self_ns), "ns/ref",
             traced},
            {"core.access_ns_per_ref_p99", Quantile(access_ns, access_tail),
             "ns/ref",
             Format("p%.4g of %zu quanta", access_tail * 100,
                    access_ns.size())},
            {"core.access_share", share(access.self_ns), "fraction", traced},
            {"core.lifecycle_us_per_call",
             per_call(lifecycle.self_ns / 1e3, lifecycle.calls), "us",
             Format("%" PRIu64 " calls", lifecycle.calls)},
            {"core.ctx_switch_ns_per_call", per_call(ctx.self_ns, ctx.calls),
             "ns", Format("%" PRIu64 " calls", ctx.calls)},
            {"trace.encode_ns_per_ref", per_ref(encode.self_ns), "ns/ref",
             traced},
            {"trace.encode_share", share(encode.self_ns), "fraction", traced},
            {"trace.write_ms", per_call(write.total_ns / 1e6, write.calls),
             "ms", Format("%" PRIu64 " appends", write.calls)},
            {"trace.bytes_per_ref", per_ref(write.work), "bytes/ref", traced},
            {"trace.recover_ns_per_byte",
             per_call(recover.total_ns, recover.work), "ns/byte",
             Format("%" PRIu64 " bytes", recover.work)},
            {"trace.decode_ns_per_ref", per_ref(decode.self_ns), "ns/ref",
             traced},
            {"trace.decode_share", share(decode.self_ns), "fraction", traced},
        };

        // Counts: one pass's cells (every pass is digest-identical).
        sim::EventCounts sum;
        uint64_t pass_refs = 0;
        for (const CellRun& run : runs_) {
            if (run.pass != 0 || run.traced) {
                continue;
            }
            pass_refs += run.result.refs;
            for (size_t e = 0; e < sim::kNumEvents; ++e) {
                const auto event = static_cast<sim::Event>(e);
                sum.Add(event, run.result.events.Get(event));
            }
        }
        const auto count = [&](sim::Event event) {
            return static_cast<double>(sum.Get(event));
        };
        const auto per_kref = [&](double value) {
            return Ratio(value * 1e3, static_cast<double>(pass_refs));
        };
        const std::string pass = Format("%" PRIu64 " refs, one pass",
                                        pass_refs);
        metrics.insert(
            metrics.end(),
            {
                {"cache.misses_per_kref",
                 per_kref(static_cast<double>(sum.TotalMisses())), "1/kref",
                 pass},
                {"cache.writebacks_per_kref",
                 per_kref(count(sim::Event::kWriteback)), "1/kref", pass},
                {"cache.page_flushes", count(sim::Event::kPageFlush), "count",
                 pass},
                {"xlate.pte_hit_ratio",
                 Ratio(count(sim::Event::kXlatePteHit),
                       count(sim::Event::kXlatePteHit) +
                           count(sim::Event::kXlatePteMiss)),
                 "fraction", pass},
            });
        const std::pair<const char*, sim::Event> counts[] = {
            {"policy.dirty_faults", sim::Event::kDirtyFault},
            {"policy.excess_faults", sim::Event::kExcessFault},
            {"policy.dirty_bit_misses", sim::Event::kDirtyBitMiss},
            {"policy.ref_clear_flushes", sim::Event::kRefClearFlush},
            {"vm.page_faults", sim::Event::kPageFault},
            {"vm.page_ins", sim::Event::kPageIn},
            {"vm.page_outs", sim::Event::kPageOutDirty},
            {"vm.daemon_sweeps", sim::Event::kDaemonSweep},
            {"vm.zero_fills", sim::Event::kZeroFill},
        };
        for (const auto& [name, event] : counts) {
            metrics.push_back({name, count(event), "count", pass});
        }
        metrics.insert(
            metrics.end(),
            {
                {"bench.trace_overhead_pct",
                 (Ratio(untraced_mrefs, traced_mrefs) - 1.0) * 100.0, "%",
                 Format("%zu untraced vs %zu traced passes", pass_count[0],
                        pass_count[1])},
                {"bench.unattributed_share", share(cell.self_ns), "fraction",
                 traced},
                {"bench.failed_frac", failed_frac, "fraction",
                 Format("%" PRIu64 " of %" PRIu64 " cells", failed_,
                        attempted_)},
            });

        const int64_t nesting = MaxNestingErrorNs(tracer_.spans());
        std::printf("span nesting error: %" PRId64 " ns (max over %zu spans)\n",
                    nesting, tracer_.spans().size());
        if (nesting != 0) {
            Fail("spans", "child spans escape their parents");
        }
        WriteSpans();
        if (w_.name == "paper-live") {
            PrintTable41(w_, runs_);
        }
    }

    std::printf("%s: %zu passes x %zu cells, %" PRIu64 " refs/cell\n",
                w_.name.c_str(), pass_count[0], w_.cells.size(), kCellRefs);
    std::printf("  per-pass Mref/s:");
    for (const PassTotals& pass : passes_) {
        std::printf(" %.3f%s",
                    Ratio(static_cast<double>(pass.refs) * 1e3,
                          static_cast<double>(pass.cell_ns)),
                    pass.traced ? "(traced)" : "");
    }
    std::printf("\n");
    for (const Metric& m : metrics) {
        std::printf("  %-28s %14.6g %-9s (%s)\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples.c_str());
    }
    std::printf("  %-28s %14.6g %-9s (%" PRIu64 " of %" PRIu64
                " cells; a failure makes the run exit 1)\n",
                "failed_frac", failed_frac, "fraction", failed_, attempted_);
    for (const std::string& failure : failures_) {
        std::printf("FAILED %s\n", failure.c_str());
    }

    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
                ": {\"value\": " + JsonNumber(metrics[i].value) +
                ", \"unit\": " + JsonString(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failed_ == 0 ? 0 : 1;
}

int
Main(int argc, char** argv)
{
    Options options = ParseOptions(argc, argv);
    // Serve multi-megabyte buffers (trace streams, file images) from
    // their own mappings, returned to the system when freed.  glibc's
    // default raises this threshold after the first such free, after
    // which each pass's stream buffers land in fresh heap behind the
    // small results kept from earlier passes, and peak RSS grows with
    // the number of passes a run happens to fit.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to time a build without "
                         "NDEBUG (configure with CMAKE_BUILD_TYPE=Release)\n");
    return 2;
#endif
    if constexpr (spur::check::kAuditEnabled) {
        std::fprintf(stderr, "perfbench: refusing to time an audit build "
                             "(SPUR_AUDIT=ON)\n");
        return 2;
    }

    if (options.print_pins) {
        // Every workload's cells, one line each; cells shared between
        // workloads (live and replayed SPUR cells) must agree.
        std::map<std::string, std::string> pins;
        int status = 0;
        for (const char* name : kWorkloadNames) {
            Options one = options;
            one.workload = name;
            one.seconds = 1e-9;
            Workload w;
            MakeWorkload(name, options.seed, &w);
            Bench bench(one, w, Pins{});
            if (!bench.Run()) {
                return 1;
            }
            std::fflush(stdout);
            status |= bench.PrintPins();
        }
        return status;
    }

    Workload w;
    if (!MakeWorkload(options.workload, options.seed, &w)) {
        Usage("unknown --workload '" + options.workload + "'");
    }
    Pins pins;
    if (options.seed == kPinnedSeed) {
        std::string error;
        if (!LoadPins(options.pins_path, &pins, &error)) {
            std::fprintf(stderr, "perfbench: %s\n", error.c_str());
            return 2;
        }
    }
    std::error_code ec;
    std::filesystem::create_directories(options.workdir, ec);
    Bench bench(options, std::move(w), std::move(pins));
    if (!bench.Run()) {
        return 1;
    }
    return bench.Report();
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    return perfbench::Main(argc, argv);
}
