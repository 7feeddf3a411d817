/**
 * @file
 * OpLog: a counts-only WorkloadHost that logs every call, so one
 * driver run's op sequence can be re-issued to TraceEncoders or hosts,
 * or compared with another run's.  Shared by the encoder equivalence
 * tests (tests/trace_encoder_test.cc), the pipe identity tests
 * (tests/ref_pipe_test.cc) and bench/micro_throughput.cc.
 */
#ifndef SPUR_TESTS_OP_LOG_H_
#define SPUR_TESTS_OP_LOG_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/config.h"
#include "src/workload/host.h"
#include "src/workload/trace.h"

namespace spur::workload {

class OpLog : public WorkloadHost
{
  public:
    /** @param first_pid  the pid CreateProcess hands out first. */
    explicit OpLog(const sim::MachineConfig& config, Pid first_pid = 1)
        : config_(config), next_pid_(first_pid)
    {
    }

    Pid CreateProcess() override
    {
        ops_.push_back({Kind::kCreate, next_pid_});
        return next_pid_++;
    }
    void DestroyProcess(Pid pid) override
    {
        ops_.push_back({Kind::kDestroy, pid});
    }
    void MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                   vm::PageKind kind) override
    {
        ops_.push_back({Kind::kMap, pid, base, bytes, kind});
    }
    void ShareSegment(Pid pid, unsigned reg, Pid other,
                      unsigned other_reg) override
    {
        ops_.push_back({Kind::kShare, pid, 0, 0, vm::PageKind::kData, reg,
                        other, other_reg});
    }
    void Access(const MemRef& ref) override { AccessBatch(&ref, 1); }
    void AccessBatch(const MemRef* refs, size_t n) override
    {
        Op op{Kind::kAccess};
        op.first = refs_.size();
        op.count = n;
        ops_.push_back(op);
        refs_.insert(refs_.end(), refs, refs + n);
    }
    void OnContextSwitch() override { ops_.push_back({Kind::kSwitch}); }
    const sim::MachineConfig& config() const override { return config_; }

    const std::vector<MemRef>& refs() const { return refs_; }

    /**
     * True when @p other logged the same calls with the same references,
     * counting consecutive AccessBatch calls as one: the host contract
     * makes a batch split invisible, so it is not a difference.
     */
    bool SameOps(const OpLog& other) const
    {
        return Merged() == other.Merged() && SameRefs(other);
    }

    /** True when @p other logged the same references in the same order. */
    bool SameRefs(const OpLog& other) const
    {
        return std::equal(refs_.begin(), refs_.end(), other.refs_.begin(),
                          other.refs_.end(),
                          [](const MemRef& a, const MemRef& b) {
                              return a.pid == b.pid && a.addr == b.addr &&
                                     a.type == b.type;
                          });
    }

    /** References logged before each context switch, in order. */
    std::vector<uint64_t> RefsAtSwitches() const
    {
        std::vector<uint64_t> at;
        uint64_t refs = 0;
        for (const Op& op : ops_) {
            refs += op.count;
            if (op.kind == Kind::kSwitch) {
                at.push_back(refs);
            }
        }
        return at;
    }

    /**
     * Re-issues the log to @p host, each logged batch as one
     * AccessBatch.  With @p scribble each batch is issued from one
     * buffer that is overwritten with junk as soon as the call returns,
     * so a host that read it later would see garbage.  Pids are issued as logged:
     * @p host must hand out the logged pids (a CountingHost does for a
     * log whose first pid is 1).
     */
    void Replay(WorkloadHost& host, bool scribble = false) const
    {
        std::vector<MemRef> buffer;
        for (const Op& op : ops_) {
            switch (op.kind) {
              case Kind::kCreate:
                host.CreateProcess();
                break;
              case Kind::kDestroy:
                host.DestroyProcess(op.pid);
                break;
              case Kind::kMap:
                host.MapRegion(op.pid, op.base, op.bytes, op.page_kind);
                break;
              case Kind::kShare:
                host.ShareSegment(op.pid, op.reg, op.other, op.other_reg);
                break;
              case Kind::kSwitch:
                host.OnContextSwitch();
                break;
              case Kind::kAccess:
                if (!scribble) {
                    host.AccessBatch(&refs_[op.first], op.count);
                    break;
                }
                buffer.assign(refs_.begin() + op.first,
                              refs_.begin() + op.first + op.count);
                host.AccessBatch(buffer.data(), buffer.size());
                std::fill(buffer.begin(), buffer.end(),
                          MemRef{~Pid{0}, 0xdeadbeef, AccessType::kWrite});
                break;
            }
        }
    }

    /**
     * Re-issues the log to @p encoder.  @p chunk = 0 issues accesses
     * through per-reference OnAccess; otherwise each logged batch goes
     * through OnAccessBatch in pieces of at most @p chunk references.
     */
    void Replay(TraceEncoder& encoder, size_t chunk) const
    {
        for (const Op& op : ops_) {
            switch (op.kind) {
              case Kind::kCreate:
                encoder.OnCreateProcess(op.pid);
                break;
              case Kind::kDestroy:
                encoder.OnDestroyProcess(op.pid);
                break;
              case Kind::kMap:
                encoder.OnMapRegion(op.pid, op.base, op.bytes, op.page_kind);
                break;
              case Kind::kShare:
                encoder.OnShareSegment(op.pid, op.reg, op.other,
                                       op.other_reg);
                break;
              case Kind::kSwitch:
                encoder.OnContextSwitch();
                break;
              case Kind::kAccess:
                for (size_t i = 0; i < op.count;) {
                    const MemRef* ref = &refs_[op.first + i];
                    if (chunk == 0) {
                        encoder.OnAccess(*ref);
                        ++i;
                        continue;
                    }
                    const size_t n = std::min(chunk, op.count - i);
                    encoder.OnAccessBatch(ref, n);
                    i += n;
                }
                break;
            }
        }
    }

  private:
    enum class Kind : uint8_t {
        kCreate, kDestroy, kMap, kShare, kSwitch, kAccess
    };
    struct Op {
        Kind kind;
        Pid pid = 0;
        ProcessAddr base = 0;
        uint64_t bytes = 0;
        vm::PageKind page_kind = vm::PageKind::kData;
        unsigned reg = 0;
        Pid other = 0;
        unsigned other_reg = 0;
        size_t first = 0;  ///< kAccess: index of the first ref.
        size_t count = 0;  ///< kAccess: refs in the logged batch.

        bool operator==(const Op&) const = default;
    };

    /** ops_ with each run of access ops folded into one. */
    std::vector<Op> Merged() const
    {
        std::vector<Op> merged;
        for (const Op& op : ops_) {
            if (op.kind == Kind::kAccess && !merged.empty() &&
                merged.back().kind == Kind::kAccess) {
                merged.back().count += op.count;
            } else {
                merged.push_back(op);
            }
        }
        return merged;
    }

    sim::MachineConfig config_;
    Pid next_pid_;
    std::vector<Op> ops_;
    std::vector<MemRef> refs_;
};

}  // namespace spur::workload

#endif  // SPUR_TESTS_OP_LOG_H_
