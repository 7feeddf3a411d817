/**
 * @file
 * Host-time attribution from outside the simulator.
 *
 * The benchmark never instruments the library.  It stacks thin
 * forwarding WorkloadHost wrappers (LayerHost) at the layer boundaries
 * of a run, for example
 *
 *     Driver -> LayerHost -> RecordingHost -> LayerHost -> SpurSystem
 *
 * so the machine under test sees exactly the call sequence
 * core::RunOnce would give it.  Every wrapper counts the references of
 * the current scheduling quantum and reads the clock once per quantum,
 * at OnContextSwitch.  With a Tracer attached it also records one span
 * per forwarded call; a layer's self time is then its span time minus
 * the time its child spans cover.
 */
#ifndef PERFBENCH_HARNESS_LAYERS_H_
#define PERFBENCH_HARNESS_LAYERS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/events.h"
#include "src/workload/host.h"

namespace perfbench {

/** Host monotonic time in nanoseconds. */
int64_t NowNs();

/** One timed interval of host work. */
struct Span {
    const char* name = "";  ///< Static string naming the layer call.
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;    ///< Index of the enclosing span, or -1.
    int32_t cell = -1;      ///< Cell the span belongs to, or -1.
    uint64_t work = 0;      ///< References (or bytes) the call carried.
    // EventCounts deltas across a core.access span.
    uint32_t misses = 0;
    uint32_t page_faults = 0;
    uint32_t daemon_sweeps = 0;
    uint32_t page_flushes = 0;
};

/** In-memory span recorder; spans nest in open/close order. */
class Tracer
{
  public:
    Tracer() { spans_.reserve(1 << 16); }

    /** Spans opened from now on belong to @p cell (-1: none). */
    void SetCell(int32_t cell) { cell_ = cell; }

    /** Opens a span under the innermost open one; returns its index. */
    size_t Open(const char* name, uint64_t work = 0);

    /** Closes span @p id (the innermost open one). */
    void Close(size_t id);

    Span& at(size_t id) { return spans_[id]; }
    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    int32_t open_ = -1;
    int32_t cell_ = -1;
};

/** A span for the lifetime of a scope; free when @p tracer is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer* tracer, const char* name, uint64_t work = 0)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->Open(name, work) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr) {
            tracer_->Close(id_);
        }
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer* tracer_;
    size_t id_;
};

/** Span names for each WorkloadHost call a LayerHost forwards. */
struct LayerNames {
    const char* access;
    const char* ctx_switch;
    const char* create;
    const char* destroy;
    const char* map;
    const char* share;
};

/** Calls into the simulated machine (SpurSystem). */
inline constexpr LayerNames kCoreLayer{
    "core.access",           "core.ctx_switch",   "core.lifecycle.create",
    "core.lifecycle.destroy", "core.lifecycle.map", "core.lifecycle.share"};

/** Calls into the trace recorder (RecordingHost). */
inline constexpr LayerNames kRecordLayer{
    "trace.record.access",  "trace.record.ctx_switch",
    "trace.record.create",  "trace.record.destroy",
    "trace.record.map",     "trace.record.share"};

/** One scheduling quantum as seen at a layer boundary. */
struct Quantum {
    int64_t wall_ns = 0;    ///< Since the previous switch (or start).
    int64_t access_ns = 0;  ///< Inside AccessBatch (traced runs only).
    uint64_t refs = 0;
};

/**
 * A forwarding WorkloadHost that times the layer below it.  Behaviour
 * is exactly the inner host's; the wrapper only reads the clock.
 */
class LayerHost : public spur::workload::WorkloadHost
{
  public:
    /**
     * @param inner   the host every call is forwarded to.
     * @param tracer  span sink, or null for an untraced run.
     * @param names   span names for this boundary.
     * @param events  the machine's counters; when set, access spans
     *                carry their EventCounts deltas.
     */
    LayerHost(spur::workload::WorkloadHost& inner, Tracer* tracer,
              const LayerNames& names,
              const spur::sim::EventCounts* events = nullptr);

    /** Starts the first quantum's clock. */
    void Start(int64_t now_ns) { quantum_start_ns_ = now_ns; }

    /** Stops recording spans (teardown after the timed cell). */
    void StopTracing() { tracer_ = nullptr; }

    /** Quanta completed so far, in issue order. */
    const std::vector<Quantum>& quanta() const { return quanta_; }

    spur::Pid CreateProcess() override;
    void DestroyProcess(spur::Pid pid) override;
    void MapRegion(spur::Pid pid, spur::ProcessAddr base, uint64_t bytes,
                   spur::vm::PageKind kind) override;
    void ShareSegment(spur::Pid pid, unsigned reg, spur::Pid other,
                      unsigned other_reg) override;
    void Access(const spur::MemRef& ref) override;
    void AccessBatch(const spur::MemRef* refs, size_t n) override;
    void OnContextSwitch() override;
    const spur::sim::MachineConfig& config() const override
    {
        return inner_.config();
    }

  private:
    spur::workload::WorkloadHost& inner_;
    Tracer* tracer_;
    LayerNames names_;
    const spur::sim::EventCounts* events_;
    std::vector<Quantum> quanta_;
    Quantum current_;
    int64_t quantum_start_ns_ = 0;
};

/** Self time and call count of one span name. */
struct SelfTime {
    int64_t self_ns = 0;
    int64_t total_ns = 0;
    uint64_t calls = 0;
    uint64_t work = 0;
};

/**
 * Per-name self times over @p spans: each span's duration minus the
 * durations of its direct children.
 */
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/**
 * Largest amount, in ns, by which a span sticks out of its parent or
 * overlaps its previous sibling.  Zero means child spans tile inside
 * their parents, so every self time is the exact uncovered part of its
 * span and the self times under a cell sum to the cell's wall time.
 */
int64_t MaxNestingErrorNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LAYERS_H_
