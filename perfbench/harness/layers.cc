#include "harness/layers.h"

#include <algorithm>
#include <chrono>
#include <climits>

namespace perfbench {

using spur::MemRef;
using spur::Pid;
using spur::ProcessAddr;
using spur::sim::Event;
using spur::sim::EventCounts;

int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

size_t
Tracer::Open(const char* name, uint64_t work)
{
    Span span;
    span.name = name;
    span.parent = open_;
    span.cell = cell_;
    span.work = work;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_ = static_cast<int32_t>(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::Close(size_t id)
{
    Span& span = spans_[id];
    span.end_ns = NowNs();
    open_ = span.parent;
}

LayerHost::LayerHost(spur::workload::WorkloadHost& inner, Tracer* tracer,
                     const LayerNames& names, const EventCounts* events)
    : inner_(inner), tracer_(tracer), names_(names), events_(events)
{
    quanta_.reserve(4096);
}

Pid
LayerHost::CreateProcess()
{
    ScopedSpan span(tracer_, names_.create);
    return inner_.CreateProcess();
}

void
LayerHost::DestroyProcess(Pid pid)
{
    ScopedSpan span(tracer_, names_.destroy);
    inner_.DestroyProcess(pid);
}

void
LayerHost::MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                     spur::vm::PageKind kind)
{
    ScopedSpan span(tracer_, names_.map);
    inner_.MapRegion(pid, base, bytes, kind);
}

void
LayerHost::ShareSegment(Pid pid, unsigned reg, Pid other, unsigned other_reg)
{
    ScopedSpan span(tracer_, names_.share);
    inner_.ShareSegment(pid, reg, other, other_reg);
}

namespace {

struct EventSnapshot {
    uint64_t misses, page_faults, daemon_sweeps, page_flushes;
};

EventSnapshot
Snap(const EventCounts& events)
{
    return {events.TotalMisses(), events.Get(Event::kPageFault),
            events.Get(Event::kDaemonSweep), events.Get(Event::kPageFlush)};
}

}  // namespace

void
LayerHost::Access(const MemRef& ref)
{
    current_.refs += 1;
    if (tracer_ == nullptr) {
        inner_.Access(ref);
        return;
    }
    const size_t id = tracer_->Open(names_.access, 1);
    inner_.Access(ref);
    tracer_->Close(id);
    const Span& span = tracer_->at(id);
    current_.access_ns += span.end_ns - span.start_ns;
}

void
LayerHost::AccessBatch(const MemRef* refs, size_t n)
{
    current_.refs += n;
    if (tracer_ == nullptr) {
        inner_.AccessBatch(refs, n);
        return;
    }
    const EventSnapshot before =
        events_ != nullptr ? Snap(*events_) : EventSnapshot{};
    const size_t id = tracer_->Open(names_.access, n);
    inner_.AccessBatch(refs, n);
    tracer_->Close(id);
    Span& span = tracer_->at(id);
    current_.access_ns += span.end_ns - span.start_ns;
    if (events_ != nullptr) {
        const EventSnapshot after = Snap(*events_);
        span.misses = static_cast<uint32_t>(after.misses - before.misses);
        span.page_faults =
            static_cast<uint32_t>(after.page_faults - before.page_faults);
        span.daemon_sweeps =
            static_cast<uint32_t>(after.daemon_sweeps - before.daemon_sweeps);
        span.page_flushes =
            static_cast<uint32_t>(after.page_flushes - before.page_flushes);
    }
}

void
LayerHost::OnContextSwitch()
{
    {
        ScopedSpan span(tracer_, names_.ctx_switch);
        inner_.OnContextSwitch();
    }
    const int64_t now = NowNs();
    current_.wall_ns = now - quantum_start_ns_;
    quantum_start_ns_ = now;
    if (current_.refs != 0) {
        quanta_.push_back(current_);
    }
    current_ = Quantum{};
}

std::map<std::string, SelfTime>
SelfTimes(const std::vector<Span>& spans)
{
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
        if (span.parent >= 0) {
            child_ns[static_cast<size_t>(span.parent)] +=
                span.end_ns - span.start_ns;
        }
    }
    std::map<std::string, SelfTime> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const int64_t total = spans[i].end_ns - spans[i].start_ns;
        SelfTime& entry = out[spans[i].name];
        entry.self_ns += total - child_ns[i];
        entry.total_ns += total;
        entry.calls += 1;
        entry.work += spans[i].work;
    }
    return out;
}

int64_t
MaxNestingErrorNs(const std::vector<Span>& spans)
{
    std::vector<int64_t> last_child_end(spans.size(), INT64_MIN);
    int64_t last_root_end = INT64_MIN;
    int64_t worst = 0;
    for (const Span& span : spans) {
        int64_t error = span.start_ns > span.end_ns
                            ? span.start_ns - span.end_ns
                            : 0;
        int64_t* previous_end = &last_root_end;
        if (span.parent >= 0) {
            const Span& parent = spans[static_cast<size_t>(span.parent)];
            error = std::max({error, parent.start_ns - span.start_ns,
                              span.end_ns - parent.end_ns});
            previous_end = &last_child_end[static_cast<size_t>(span.parent)];
        }
        if (*previous_end != INT64_MIN) {
            error = std::max(error, *previous_end - span.start_ns);
        }
        *previous_end = span.end_ns;
        worst = std::max(worst, error);
    }
    return worst;
}

}  // namespace perfbench
