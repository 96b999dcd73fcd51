#include "jvm/java_heap.hh"

#include <algorithm>

#include "base/hash.hh"
#include "base/logging.hh"

namespace jtps::jvm
{

JavaHeap::JavaHeap(guest::GuestOs &os, Pid pid, const GcConfig &cfg,
                   std::uint64_t proc_seed)
    : os_(os), pid_(pid), cfg_(cfg), proc_seed_(proc_seed),
      rng_(hashCombine(proc_seed, stringTag("heap-rng")))
{
}

void
JavaHeap::init()
{
    jtps_assert(vma_ == nullptr);
    heap_pages_ = bytesToPages(cfg_.heapBytes);
    if (cfg_.policy == GcConfig::Policy::Gencon) {
        jtps_assert(cfg_.nurseryBytes > 0 &&
                    cfg_.nurseryBytes < cfg_.heapBytes);
        nursery_pages_ = bytesToPages(cfg_.nurseryBytes);
    }
    vma_ = os_.mmapAnon(pid_, cfg_.heapBytes, guest::MemCategory::JavaHeap,
                        "java-heap");
}

void
JavaHeap::writeObjectPages(std::uint64_t first, std::uint64_t count,
                           std::uint64_t salt)
{
    // Object content: addresses, hash codes and payload all derive from
    // the process seed, so no two processes ever produce equal pages,
    // and from the GC epoch, so content changes when objects move.
    const std::uint64_t tag =
        hash3(proc_seed_, stringTag("heap-obj"), salt);
    os_.writePages(vma_, first, count, [tag](std::uint64_t page) {
        return mem::PageData::filled(tag, page);
    });
}

void
JavaHeap::zeroPages(std::uint64_t first, std::uint64_t count)
{
    os_.writePages(vma_, first, count,
                   [](std::uint64_t) { return mem::PageData::zero(); });
}

std::uint64_t
JavaHeap::livePages() const
{
    if (cfg_.policy == GcConfig::Policy::Gencon)
        return live_end_ + tenured_cursor_;
    return live_end_;
}

void
JavaHeap::allocate(Bytes bytes)
{
    jtps_assert(vma_ != nullptr);
    allocated_bytes_ += bytes;
    partial_ += bytes;

    const std::uint64_t alloc_space =
        cfg_.policy == GcConfig::Policy::Gencon ? nursery_pages_
                                                : heap_pages_;
    const auto trigger = static_cast<std::uint64_t>(
        alloc_space * cfg_.gcTriggerFraction);

    while (partial_ >= pageSize) {
        if (cursor_ >= trigger) {
            if (cfg_.policy == GcConfig::Policy::Gencon)
                minorGc();
            else
                globalGc();
        }
        // Fill up to the trigger in one run. A collection that leaves
        // the cursor at or past the trigger gets one page, and the
        // next page collects again.
        const std::uint64_t run = std::min(
            partial_ / pageSize,
            cursor_ < trigger ? trigger - cursor_ : std::uint64_t{1});
        partial_ -= run * pageSize;
        writeObjectPages(cursor_, run, gc_epoch_);
        cursor_ += run;
    }
}

void
JavaHeap::clearHeadroomOnce()
{
    if (headroom_cleared_)
        return;
    headroom_cleared_ = true;
    // The first sweep clears the headroom above the allocation trigger;
    // the cursor never climbs back there, so these zero pages stay calm
    // and become the heap's only lasting TPS contribution (the paper's
    // ~0.7% of transiently shared, zero-filled heap pages).
    const std::uint64_t space =
        cfg_.policy == GcConfig::Policy::Gencon ? nursery_pages_
                                                : heap_pages_;
    const std::uint64_t base_page =
        static_cast<std::uint64_t>(space * cfg_.gcTriggerFraction);
    const std::uint64_t tail = static_cast<std::uint64_t>(
        heap_pages_ * cfg_.headroomZeroFraction);
    if (base_page < heap_pages_)
        zeroPages(base_page, std::min(tail, heap_pages_ - base_page));
}

void
JavaHeap::globalGc()
{
    ++gc_epoch_;
    ++global_gcs_;
    os_.traceRecord(TraceEventType::GcGlobal, pid_, gc_epoch_);
    clearHeadroomOnce();

    // Mark-sweep-compact: survivors slide to the bottom of the space at
    // new offsets (content changes), and the reclaimed tail is zeroed.
    const std::uint64_t space =
        cfg_.policy == GcConfig::Policy::Gencon
            ? heap_pages_ - nursery_pages_
            : heap_pages_;
    const std::uint64_t base =
        cfg_.policy == GcConfig::Policy::Gencon ? nursery_pages_ : 0;
    const std::uint64_t old_top =
        cfg_.policy == GcConfig::Policy::Gencon ? tenured_cursor_
                                                : cursor_;
    const auto new_live = static_cast<std::uint64_t>(
        std::min<double>(old_top, space) * cfg_.liveFraction);

    writeObjectPages(base, new_live, gc_epoch_);
    // Eagerly zero only the allocation-adjacent prefix of the reclaimed
    // space; the rest keeps stale object bytes until reallocated.
    const auto zero_end = new_live + static_cast<std::uint64_t>(
        (old_top - new_live) * cfg_.zeroFillFraction);
    zeroPages(base + new_live, zero_end - new_live);

    if (cfg_.policy == GcConfig::Policy::Gencon) {
        tenured_cursor_ = new_live;
    } else {
        cursor_ = new_live;
        live_end_ = new_live;
    }
}

void
JavaHeap::minorGc()
{
    ++gc_epoch_;
    ++minor_gcs_;
    os_.traceRecord(TraceEventType::GcMinor, pid_, gc_epoch_);
    clearHeadroomOnce();

    // Copying nursery collection: a small survivor set is copied to the
    // bottom of the nursery; some pages' worth of objects are promoted
    // into the tenured space; everything else is zeroed.
    const auto survivors = static_cast<std::uint64_t>(
        nursery_pages_ * cfg_.nurserySurvivorFraction);
    const auto promote = static_cast<std::uint64_t>(
        nursery_pages_ * cfg_.promoteFraction);

    writeObjectPages(0, std::min(survivors, cursor_), gc_epoch_);
    const std::uint64_t reclaimed =
        cursor_ > survivors ? cursor_ - survivors : 0;
    const auto zero_end = survivors + static_cast<std::uint64_t>(
        reclaimed * cfg_.zeroFillFraction);
    zeroPages(survivors, zero_end - survivors);

    const std::uint64_t tenured_space = heap_pages_ - nursery_pages_;
    for (std::uint64_t i = 0; i < promote; ++i) {
        if (tenured_cursor_ >=
            static_cast<std::uint64_t>(tenured_space * 0.95)) {
            globalGc(); // tenured full: global collection
        }
        writeObjectPages(nursery_pages_ + tenured_cursor_, 1, gc_epoch_);
        ++tenured_cursor_;
    }

    cursor_ = std::min(survivors, cursor_);
    live_end_ = cursor_;
}

void
JavaHeap::mutateHeaders(std::uint32_t count, Rng &rng)
{
    const std::uint64_t live = livePages();
    if (live == 0)
        return;
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint64_t pick = rng.nextBelow(live);
        std::uint64_t page;
        if (cfg_.policy == GcConfig::Policy::Gencon && pick >= live_end_)
            page = nursery_pages_ + (pick - live_end_); // tenured object
        else
            page = pick;
        // Lock word / hash-bits update in the object header sector.
        os_.writeWord(vma_, page, 0,
                      hash3(proc_seed_, stringTag("lockword"),
                            header_muts_++));
    }
}

void
JavaHeap::touchLive(std::uint32_t pages, Rng &rng)
{
    const std::uint64_t live = livePages();
    if (live == 0)
        return;
    const std::uint64_t hot = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(live * hotFraction));
    for (std::uint32_t i = 0; i < pages; ++i) {
        std::uint64_t pick = rng.bernoulli(hotProbability)
                                 ? rng.nextBelow(hot)
                                 : rng.nextBelow(live);
        std::uint64_t page;
        if (cfg_.policy == GcConfig::Policy::Gencon && pick >= live_end_)
            page = nursery_pages_ + (pick - live_end_);
        else
            page = pick;
        os_.touch(vma_, page);
    }
}

} // namespace jtps::jvm
