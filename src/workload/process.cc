#include "src/workload/process.h"

#include <algorithm>

#include "src/common/log.h"

namespace spur::workload {

namespace {

/// Stack activity clusters near the top of the region (page 0) ...
constexpr double kStackZipfSkew = 0.85;
/// ... with a write bias: call frames are written on entry.
constexpr double kStackWriteFrac = 0.55;

}  // namespace

ProcessGenerator::ProcessGenerator(const ProcessProfile& profile,
                                   uint64_t seed, Pid pid,
                                   const sim::MachineConfig& config)
    : profile_(profile),
      rng_(seed),
      pid_(pid),
      page_shift_(config.PageShift()),
      block_bytes_(static_cast<uint32_t>(config.block_bytes)),
      page_bytes_(static_cast<uint32_t>(config.page_bytes)),
      blocks_per_page_(page_bytes_ / block_bytes_),
      words_per_block_(block_bytes_ / 4),
      seq_read_pos_(kDataBase),
      alloc_front_(kHeapBase),
      file_write_pos_(kDataBase)
{
    // The generator needs the numbers only; without the name a copy
    // never allocates.
    profile_.name.clear();
    // Clamp windows to region sizes.
    profile_.heap_ws_pages =
        std::max(1u, std::min(profile_.heap_ws_pages, profile_.heap_pages));
    profile_.code_ws_pages =
        std::max(1u, std::min(profile_.code_ws_pages, profile_.code_pages));

    // Generator selection.  The six weights normalize to a cumulative
    // distribution; a draw picks the first generator whose bound it is
    // below and whose region exists.  Region sizes are profile constants,
    // so that test folds in here: an unusable generator takes its
    // predecessor's threshold, which keeps the thresholds monotone and
    // makes the pick the count of thresholds at or below the draw.
    const std::array<double, 6> weights = {
        profile_.w_seq_read, profile_.w_seq_write, profile_.w_rmw,
        profile_.w_scan_update, profile_.w_rand, profile_.w_file_write};
    double total = 0;
    for (double w : weights) {
        if (w < 0) {
            Fatal("ProcessProfile: negative generator weight");
        }
        total += w;
    }
    if (total <= 0) {
        Fatal("ProcessProfile: all generator weights are zero");
    }
    double acc = 0;
    uint64_t threshold = 0;
    for (size_t i = 0; i < gen_t_.size(); ++i) {
        acc += weights[i] / total;
        const bool usable =
            (i == 0) ? profile_.data_pages > 0 : profile_.heap_pages > 0;
        if (usable) {
            threshold = Rng::Threshold(acc);
        }
        gen_t_[i] = threshold;
    }
    tail_ = (profile_.data_pages > 0)   ? Tail::kFileWrite
            : (profile_.heap_pages > 0) ? Tail::kRand
                                        : Tail::kStack;

    ifetch_t_ = Rng::Threshold(profile_.frac_ifetch);
    stack_t_ = Rng::Threshold(profile_.frac_stack);
    slide_t_ = Rng::Threshold(profile_.ws_slide_prob);
    rand_write_t_ = Rng::Threshold(profile_.rand_write_frac);
    reread_t_ = Rng::Threshold(profile_.file_reread_frac);
    stack_write_t_ = Rng::Threshold(kStackWriteFrac);
    zipf_exponent_ = Rng::ZipfExponent(profile_.zipf_skew);
    stack_zipf_exponent_ = Rng::ZipfExponent(kStackZipfSkew);

    heap_region_pages_ = std::max(1u, profile_.heap_pages);
    scan_read_burst_ = std::min(profile_.scan_read_blocks, blocks_per_page_);
    scan_write_burst_ = std::min(profile_.scan_write_blocks, scan_read_burst_);
    code_end_ = kCodeBase + profile_.code_pages * page_bytes_;
    heap_end_ = kHeapBase + profile_.heap_pages * page_bytes_;
    file_end_ = kDataBase + profile_.data_pages * page_bytes_;
    file_lo_ = kDataBase + std::max(1u, profile_.data_pages / 2) * page_bytes_;
    // Input files live in the lower part of the data region; output
    // files (GenFileWrite) in the upper part, so scans do not pre-cache
    // the blocks the writer dirties.
    seq_read_end_ = (profile_.w_file_write > 0) ? file_lo_ : file_end_;
}

SyntheticProcess::SyntheticProcess(WorkloadHost& system,
                                   const ProcessProfile& profile,
                                   uint64_t seed, const ShareSpec* share)
    : ProcessGenerator(profile, seed, system.CreateProcess(),
                       system.config()),
      system_(system)
{
    const Pid pid = this->pid();
    const auto map = [&](ProcessAddr base, uint32_t pages,
                         vm::PageKind kind) {
        if (pages > 0) {
            system_.MapRegion(pid, base,
                              uint64_t{pages} * system_.config().page_bytes,
                              kind);
        }
    };
    if (share != nullptr && share->text) {
        system_.ShareSegment(pid, kCodeSeg, share->owner, kCodeSeg);
    } else {
        map(kCodeBase, profile.code_pages, vm::PageKind::kCode);
    }
    if (share != nullptr && share->data) {
        system_.ShareSegment(pid, kDataSeg, share->owner, kDataSeg);
    } else {
        MapDataSegment(system_, pid, profile);
    }
    map(kHeapBase, profile.heap_pages, vm::PageKind::kHeap);
    map(kStackBase, profile.stack_pages, vm::PageKind::kStack);
}

void
MapDataSegment(WorkloadHost& system, Pid pid,
               const ProcessProfile& profile)
{
    if (profile.data_pages == 0) {
        return;
    }
    const uint64_t page_bytes = system.config().page_bytes;
    if (profile.w_file_write > 0 && profile.data_pages >= 4) {
        const uint32_t half = profile.data_pages / 2;
        system.MapRegion(pid, kDataBase, uint64_t{half} * page_bytes,
                         vm::PageKind::kFileCache);
        system.MapRegion(pid,
                         kDataBase + static_cast<ProcessAddr>(
                                         half * page_bytes),
                         uint64_t{profile.data_pages - half} * page_bytes,
                         vm::PageKind::kData);
    } else {
        system.MapRegion(pid, kDataBase,
                         uint64_t{profile.data_pages} * page_bytes,
                         profile.w_file_write > 0 ? vm::PageKind::kData
                                                  : vm::PageKind::kFileCache);
    }
}

SyntheticProcess::~SyntheticProcess()
{
    system_.DestroyProcess(pid());
}

MemRef
ProcessGenerator::Generate()
{
    if (rng_.Next53() < ifetch_t_) {
        return MakeIFetch();
    }
    return MakeDataRef();
}

MemRef
ProcessGenerator::Next()
{
    ++refs_issued_;
    return Generate();
}

size_t
ProcessGenerator::NextBatch(MemRef* out, size_t max)
{
    size_t n = max;
    if (profile_.lifetime_refs != 0) {
        const uint64_t left = (refs_issued_ < profile_.lifetime_refs)
                                  ? profile_.lifetime_refs - refs_issued_
                                  : 0;
        n = static_cast<size_t>(std::min<uint64_t>(n, left));
    }
    for (size_t i = 0; i < n; ++i) {
        out[i] = Generate();
    }
    refs_issued_ += n;
    return n;
}

MemRef
ProcessGenerator::MakeIFetch()
{
    if (loop_base_ == 0) {
        PickNextLoop();
    }
    const MemRef ref = Ref(loop_pc_, AccessType::kIFetch);
    loop_pc_ += 4;
    if (loop_pc_ == loop_end_) {
        loop_pc_ = loop_base_;
        if (--loop_iters_left_ == 0) {
            PickNextLoop();
        }
    }
    return ref;
}

void
ProcessGenerator::PickNextLoop()
{
    if (loop_base_ == 0 || rng_.Chance(profile_.call_prob)) {
        // Call or long jump into the hot-code window, which itself drifts
        // slowly across the text (program phases).
        if (rng_.Chance(0.02)) {
            code_ws_base_ = static_cast<uint32_t>(rng_.NextBelow(
                std::max(1u,
                         profile_.code_pages - profile_.code_ws_pages + 1)));
        }
        const uint32_t page =
            ZipfPage(code_ws_base_, profile_.code_ws_pages,
                     std::max(1u, profile_.code_pages));
        const uint32_t block =
            static_cast<uint32_t>(rng_.NextBelow(blocks_per_page_));
        loop_base_ = BlockAddr(kCodeBase, page, block);
    } else {
        // Fall through to the code after the previous loop body.
        loop_base_ += loop_blocks_ * block_bytes_;
        if (loop_base_ >= code_end_) {
            loop_base_ = kCodeBase;
        }
    }
    loop_blocks_ = 1 + static_cast<uint32_t>(
                           rng_.NextBelow(profile_.loop_blocks_max));
    loop_iters_left_ = 1 + static_cast<uint32_t>(
                               rng_.NextBelow(profile_.loop_iters_max));
    // Keep the body inside the region.
    const uint32_t body_bytes = loop_blocks_ * block_bytes_;
    if (loop_base_ + body_bytes > code_end_) {
        loop_base_ = code_end_ - body_bytes;
    }
    // The body is contiguous, so fetching it block by block, word by
    // word, is one cursor from loop_base_ to loop_end_.
    loop_pc_ = loop_base_;
    loop_end_ = loop_base_ + body_bytes;
}

MemRef
ProcessGenerator::MakeDataRef()
{
    // Slide the heap working set occasionally: phase behaviour.
    if (rng_.ChanceBelow(slide_t_) && profile_.heap_pages > 0) {
        heap_ws_base_ = (heap_ws_base_ + 1 +
                         static_cast<uint32_t>(rng_.NextBelow(4))) %
                        heap_region_pages_;
    }
    if (profile_.stack_pages > 0 && rng_.Next53() < stack_t_) {
        return GenStack();
    }
    // A pending write burst completes before anything else starts.
    if (burst_words_ != 0) {
        const MemRef ref = Ref(burst_addr_, AccessType::kWrite);
        burst_addr_ += 4;
        --burst_words_;
        return ref;
    }
    const uint64_t draw = rng_.Next53();
    const unsigned slot =
        unsigned{draw >= gen_t_[0]} + unsigned{draw >= gen_t_[1]} +
        unsigned{draw >= gen_t_[2]} + unsigned{draw >= gen_t_[3]} +
        unsigned{draw >= gen_t_[4]};
    switch (slot) {
    case 0:
        return GenSeqRead();
    case 1:
        return GenSeqWrite();
    case 2:
        return GenRmw();
    case 3:
        return GenScanUpdate();
    case 4:
        return GenRand();
    default:
        break;
    }
    if (tail_ == Tail::kFileWrite) {
        return GenFileWrite();
    }
    if (tail_ == Tail::kRand) {
        return GenRand();
    }
    return GenStack();
}

MemRef
ProcessGenerator::StartBurst(ProcessAddr addr, uint32_t words)
{
    // Clip the burst to its cache block so every word after the first
    // hits the freshly written (dirty) block.
    const uint32_t word_in_block = (addr & (block_bytes_ - 1)) / 4;
    const uint32_t room = words_per_block_ - word_in_block;
    const uint32_t len = std::max(1u, std::min(words, room));
    burst_addr_ = addr + 4;
    burst_words_ = len - 1;
    return Ref(addr, AccessType::kWrite);
}

MemRef
ProcessGenerator::GenFileWrite()
{
    if (file_write_pos_ < file_lo_) {
        file_write_pos_ = file_lo_;
    }
    // Sometimes re-read an earlier output page (previewing what was
    // written) rather than appending.
    const uint32_t written_pages = (file_write_pos_ - file_lo_) >> page_shift_;
    if (written_pages > 0 && rng_.Next53() < reread_t_) {
        const uint32_t page =
            static_cast<uint32_t>(rng_.NextBelow(written_pages));
        const ProcessAddr addr =
            file_lo_ + page * page_bytes_ +
            static_cast<ProcessAddr>(rng_.NextBelow(page_bytes_) & ~3u);
        return Ref(addr, AccessType::kRead);
    }
    const MemRef ref = Ref(file_write_pos_, AccessType::kWrite);
    file_write_pos_ += 4;
    if (file_write_pos_ >= file_end_) {
        file_write_pos_ = file_lo_;
    }
    return ref;
}

MemRef
ProcessGenerator::GenSeqRead()
{
    const MemRef ref = Ref(seq_read_pos_, AccessType::kRead);
    seq_read_pos_ += 4;
    if (seq_read_pos_ >= seq_read_end_) {
        seq_read_pos_ = kDataBase;
    }
    return ref;
}

MemRef
ProcessGenerator::GenSeqWrite()
{
    const MemRef ref = Ref(alloc_front_, AccessType::kWrite);
    alloc_front_ += 4;
    if (alloc_front_ >= heap_end_) {
        alloc_front_ = kHeapBase;
    }
    return ref;
}

MemRef
ProcessGenerator::GenRmw()
{
    const uint32_t page = ZipfPage(heap_ws_base_, profile_.heap_ws_pages,
                                   heap_region_pages_);
    const uint32_t block =
        static_cast<uint32_t>(rng_.NextBelow(blocks_per_page_));
    const ProcessAddr addr = BlockAddr(kHeapBase, page, block);
    // The modify-write of a couple of words follows on later accesses.
    burst_addr_ = addr;
    burst_words_ = 2;
    return Ref(addr, AccessType::kRead);
}

MemRef
ProcessGenerator::GenScanUpdate()
{
    if (scan_page_ == 0) {
        // Scans walk *allocated* structures: pages at or below the
        // allocation high-water mark.  Resident allocated pages are
        // already dirty (writes take the fast path), but pages that were
        // paged out and reloaded come back clean — so the excess-fault
        // rate tracks paging pressure, as in the paper's Table 3.3.
        const uint32_t allocated = (alloc_front_ - kHeapBase) >> page_shift_;
        if (allocated == 0) {
            return GenRand();
        }
        const uint32_t page =
            static_cast<uint32_t>(rng_.NextBelow(allocated));
        scan_page_ = kHeapBase + page * page_bytes_;
        scan_index_ = 0;
        scan_writing_ = false;
    }
    MemRef ref{};
    if (!scan_writing_) {
        ref = Ref(scan_page_ + scan_index_ * block_bytes_, AccessType::kRead);
        if (++scan_index_ >= scan_read_burst_) {
            scan_index_ = 0;
            scan_writing_ = true;
        }
    } else {
        ref =
            Ref(scan_page_ + scan_index_ * block_bytes_, AccessType::kWrite);
        if (++scan_index_ >= scan_write_burst_) {
            scan_page_ = 0;  // Burst complete; pick a new page next time.
        }
    }
    return ref;
}

MemRef
ProcessGenerator::GenRand()
{
    const bool write = rng_.Next53() < rand_write_t_;
    // Reads concentrate on the hot (Zipf) pages, which therefore live in
    // the cache; update bursts scatter uniformly over the window, mostly
    // landing on blocks that are *not* cached — real programs update far
    // more data than they keep hot, which is why the paper measures four
    // to six write-miss fills per write hit on a clean block.
    // Updates cover only the lower half of the window: the upper half
    // models initialized-once, read-many structures (tables, loaded
    // structures), which is where replaced-but-never-modified writable
    // pages come from (Table 3.5's "not modified" column).
    uint32_t page;
    if (write) {
        const uint32_t write_span = std::max(1u, profile_.heap_ws_pages / 2);
        page = WrapPage(heap_ws_base_ + static_cast<uint32_t>(
                                            rng_.NextBelow(write_span)),
                        heap_region_pages_);
    } else {
        page = ZipfPage(heap_ws_base_, profile_.heap_ws_pages,
                        heap_region_pages_);
    }
    const uint32_t block =
        static_cast<uint32_t>(rng_.NextBelow(blocks_per_page_));
    const ProcessAddr addr =
        BlockAddr(kHeapBase, page, block) +
        4 * static_cast<uint32_t>(rng_.NextBelow(words_per_block_));
    if (write) {
        return StartBurst(addr, profile_.write_burst_words);
    }
    return Ref(addr, AccessType::kRead);
}

MemRef
ProcessGenerator::GenStack()
{
    const uint32_t page = static_cast<uint32_t>(
        rng_.NextZipfPow(profile_.stack_pages, stack_zipf_exponent_));
    const uint32_t block =
        static_cast<uint32_t>(rng_.NextBelow(blocks_per_page_));
    const ProcessAddr addr = BlockAddr(kStackBase, page, block);
    if (rng_.Next53() < stack_write_t_) {
        // Frame setup: a run of stores.
        return StartBurst(addr, words_per_block_);
    }
    return Ref(addr, AccessType::kRead);
}

uint32_t
ProcessGenerator::ZipfPage(uint32_t window_base, uint32_t window_pages,
                           uint32_t region_pages)
{
    const uint32_t offset = static_cast<uint32_t>(
        rng_.NextZipfPow(window_pages, zipf_exponent_));
    return WrapPage(window_base + offset, region_pages);
}

ProcessAddr
ProcessGenerator::BlockAddr(ProcessAddr region_base, uint32_t page,
                            uint32_t block)
{
    return region_base + page * page_bytes_ + block * block_bytes_;
}

}  // namespace spur::workload
