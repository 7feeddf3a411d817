/**
 * @file
 * A synthetic process: owns an address space in a SpurSystem and generates
 * a reference stream according to its ProcessProfile.  The generating
 * half is a copyable value, ProcessGenerator.
 */
#ifndef SPUR_WORKLOAD_PROCESS_H_
#define SPUR_WORKLOAD_PROCESS_H_

#include <array>
#include <cstdint>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/workload/host.h"
#include "src/workload/profile.h"

namespace spur::workload {

/** Process-VA layout constants: one segment register per region kind
 *  (top two address bits select the register, see pt::SegmentMap), so
 *  text or data can be shared between processes at segment granularity. */
inline constexpr ProcessAddr kCodeBase = 0x00000000;   // Segment 0.
inline constexpr ProcessAddr kDataBase = 0x40000000;   // Segment 1.
inline constexpr ProcessAddr kHeapBase = 0x80000000;   // Segment 2.
inline constexpr ProcessAddr kStackBase = 0xC0000000;  // Segment 3.

/** Segment-register indexes of the regions. */
inline constexpr unsigned kCodeSeg = 0;
inline constexpr unsigned kDataSeg = 1;

/**
 * Sharing instructions for a new process: reuse another process's text
 * and/or data segment instead of mapping private regions (Sprite's
 * sticky text and file-cache effects for repeatedly invoked tools).
 */
struct ShareSpec {
    Pid owner = 0;
    bool text = false;
    bool data = false;
};

/**
 * Maps the data segment for @p profile on @p pid: when the profile writes
 * output files, the lower half (input files, read through the file cache)
 * is mapped read-only and the upper half (output files) read-write;
 * otherwise the whole region is file-cache.
 */
void MapDataSegment(WorkloadHost& system, Pid pid,
                    const ProcessProfile& profile);

/**
 * The reference generator of one synthetic process: its profile, RNG
 * and cursors, and nothing else.  It is a value: a copy generates
 * exactly the stream the original would from the same point, which is
 * what lets the driver's RefPipe generate ahead on a helper thread from
 * a snapshot while the process itself stays with the driver.
 */
class ProcessGenerator
{
  public:
    /**
     * @param seed    deterministic per-process random seed.
     * @param pid     the pid every generated reference carries.
     * @param config  the machine geometry (page and block size).
     */
    ProcessGenerator(const ProcessProfile& profile, uint64_t seed, Pid pid,
                     const sim::MachineConfig& config);

    /** Generates and returns the next memory reference. */
    MemRef Next();

    /**
     * Fills @p out with up to @p max references and returns how many were
     * generated (short only when the process finishes).  Exactly the
     * stream a sequence of Next() calls would produce: the generator is
     * pure (rng + cursors, no feedback from the system), so batching
     * cannot change it.
     */
    size_t NextBatch(MemRef* out, size_t max);

    /** True once lifetime_refs references have been generated. */
    bool Done() const
    {
        return profile_.lifetime_refs != 0 &&
               refs_issued_ >= profile_.lifetime_refs;
    }

    Pid pid() const { return pid_; }
    uint64_t refs_issued() const { return refs_issued_; }

  private:
    ProcessProfile profile_;
    Rng rng_;
    Pid pid_;
    uint64_t refs_issued_ = 0;

    unsigned page_shift_;
    uint32_t block_bytes_;
    uint32_t page_bytes_;
    uint32_t blocks_per_page_;
    uint32_t words_per_block_;

    // ---- Per-profile constants, hoisted out of the per-reference path -------
    // Integer thresholds against Rng::Next53() (Rng::Threshold): each
    // comparison is exactly the `NextDouble() < p` it replaces, on the
    // same draw, so the stream is unchanged.
    uint64_t ifetch_t_;       ///< frac_ifetch.
    uint64_t stack_t_;        ///< frac_stack.
    uint64_t slide_t_;        ///< ws_slide_prob, for Rng::ChanceBelow.
    uint64_t rand_write_t_;   ///< rand_write_frac.
    uint64_t reread_t_;       ///< file_reread_frac.
    uint64_t stack_write_t_;  ///< The stack's frame-setup write share.
    /// Generator selection: the cumulative generator weights as
    /// thresholds, monotone, with each generator whose region is empty
    /// inheriting its predecessor's (so it is never chosen).  The chosen
    /// generator is the number of thresholds the draw is not below.
    std::array<uint64_t, 5> gen_t_{};
    /// What a draw above every threshold runs: file_write, or its
    /// fallbacks when the profile has no data region.
    enum class Tail : uint8_t { kFileWrite, kRand, kStack };
    Tail tail_;
    double zipf_exponent_;        ///< Rng::ZipfExponent(zipf_skew).
    double stack_zipf_exponent_;  ///< Rng::ZipfExponent(0.85).
    uint32_t heap_region_pages_;  ///< max(1, heap_pages).
    uint32_t scan_read_burst_;    ///< scan_read_blocks, clipped to a page.
    uint32_t scan_write_burst_;   ///< scan_write_blocks, clipped likewise.
    ProcessAddr code_end_;        ///< End of the text region.
    ProcessAddr seq_read_end_;    ///< End of the input-file half.
    ProcessAddr heap_end_;        ///< End of the heap region.
    ProcessAddr file_lo_;         ///< Start of the output-file half.
    ProcessAddr file_end_;        ///< End of the data region.

    // ---- Generator state ----------------------------------------------------
    // Instruction-fetch loop model.
    ProcessAddr loop_base_ = 0;   ///< First block of the current loop body.
    ProcessAddr loop_end_ = 0;    ///< One past the body's last word.
    ProcessAddr loop_pc_ = 0;     ///< Next word to fetch.
    uint32_t loop_blocks_ = 1;    ///< Body length in blocks.
    uint32_t loop_iters_left_ = 1;///< Iterations remaining.
    uint32_t code_ws_base_ = 0;   ///< Hot-code window base page.
    ProcessAddr seq_read_pos_;    ///< Data-scan cursor.
    ProcessAddr alloc_front_;     ///< Heap allocation cursor (seq_write).
    ProcessAddr file_write_pos_;  ///< Output-file cursor (file_write).
    uint32_t heap_ws_base_ = 0;   ///< Heap working-set window base page.
    // Pending write burst (rmw completion, rand/stack store runs).
    ProcessAddr burst_addr_ = 0;  ///< Next word to write, or 0.
    uint32_t burst_words_ = 0;    ///< Words remaining in the burst.
    // scan_update state machine.
    ProcessAddr scan_page_ = 0;   ///< Page being scanned (0 = pick new).
    uint32_t scan_index_ = 0;     ///< Next block within the burst.
    bool scan_writing_ = false;   ///< Read phase vs. write-back phase.

    /** Next() without the reference count. */
    MemRef Generate();
    MemRef MakeIFetch();
    void PickNextLoop();
    MemRef MakeDataRef();
    MemRef GenSeqRead();
    MemRef GenSeqWrite();
    MemRef GenRmw();
    MemRef GenScanUpdate();
    MemRef GenRand();
    MemRef GenStack();
    MemRef GenFileWrite();

    /** Starts a write burst at @p addr, clipped to its cache block, and
     *  returns the first write of the burst. */
    MemRef StartBurst(ProcessAddr addr, uint32_t words);

    /** Picks a page within [base, base+window) of a region via Zipf,
     *  wrapping at @p region_pages (>= 1, and >= @p window_pages). */
    uint32_t ZipfPage(uint32_t window_base, uint32_t window_pages,
                      uint32_t region_pages);

    /** @p page modulo @p region_pages, for @p page < 2 * region_pages
     *  (a window base inside the region plus an offset inside the
     *  window, which is no larger than the region). */
    static uint32_t WrapPage(uint32_t page, uint32_t region_pages)
    {
        return (page >= region_pages) ? page - region_pages : page;
    }

    /** A random block-aligned address inside @p region_base + page. */
    ProcessAddr BlockAddr(ProcessAddr region_base, uint32_t page,
                          uint32_t block);

    MemRef Ref(ProcessAddr addr, AccessType type)
    {
        return MemRef{pid_, addr, type};
    }
};

/**
 * One live synthetic process: a ProcessGenerator whose address space
 * lives in a WorkloadHost.  Copying the generator half
 * (`ProcessGenerator snapshot = process;`) takes a snapshot; assigning
 * it back restores one.
 */
class SyntheticProcess : public ProcessGenerator
{
  public:
    /** Creates the process in @p system and maps its regions. */
    SyntheticProcess(WorkloadHost& system, const ProcessProfile& profile,
                     uint64_t seed, const ShareSpec* share = nullptr);

    /** Tears the process down in the system (frees all its pages). */
    ~SyntheticProcess();

    SyntheticProcess(const SyntheticProcess&) = delete;
    SyntheticProcess& operator=(const SyntheticProcess&) = delete;

    /** Issues the next reference directly into the system. */
    void Step() { system_.Access(Next()); }

  private:
    WorkloadHost& system_;
};

}  // namespace spur::workload

#endif  // SPUR_WORKLOAD_PROCESS_H_
