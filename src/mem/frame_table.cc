#include "mem/frame_table.hh"

#include <algorithm>

#include "base/logging.hh"

namespace jtps::mem
{

FrameTable::FrameTable(std::uint64_t capacity_frames, StatSet *stats)
    : capacity_(capacity_frames),
      stat_frames_allocated_(stats, "host.frames_allocated"),
      stat_frames_freed_(stats, "host.frames_freed"),
      stat_mappings_added_(stats, "host.mappings_added"),
      stat_victim_fallback_sweeps_(stats, "host.victim_fallback_sweeps"),
      stat_shard_clock_sweeps_(stats, "host.shard_clock_sweeps")
{
    jtps_assert(capacity_frames > 0);
    ksm_stable_epochs_.fill(1);
    // Register at zero so the counters appear in every registry even if
    // the sampled-LRU fast path never misses.
    stat_victim_fallback_sweeps_.declare();
    stat_shard_clock_sweeps_.declare();
}

Hfn
FrameTable::allocRaw(const PageData &initial)
{
    if (resident_ >= capacity_)
        return invalidFrame;

    Hfn hfn;
    if (!free_list_.empty()) {
        hfn = free_list_.back();
        free_list_.pop_back();
    } else {
        hfn = frameCount();
        if ((hfn & (kSlabFrames - 1)) == 0) {
            // Open the next slab. The table can never hand out more
            // than capacity_ frame numbers, so the last slab needs no
            // room past it.
            slabs_.emplace_back();
            slabs_.back().reserve(std::min(kSlabFrames, capacity_ - hfn));
        }
        slabs_.back().emplace_back();
        if ((hfn >> 6) >= allocated_.size())
            allocated_.push_back(0);
        write_gens_.push_back(0);
    }

    Frame &f = slot(hfn);
    f.data = initial;
    // A recycled hfn gets a fresh generation here, so any cache entry
    // keyed by (hfn, generation) from the previous tenant can never
    // match again.
    write_gens_[hfn] = ++gen_clock_;
    f.refcount = 0;
    f.ksmStable = false;
    f.referenced = true;
    f.lastTouch = ++access_clock_;
    f.pinned = false;
    f.ksmStripe = 0;
    f.primary = Mapping{};
    f.extra.clear();
    setAllocBit(hfn);
    ++resident_;
    stat_frames_allocated_.inc();
    return hfn;
}

void
FrameTable::freeRaw(Hfn hfn)
{
    jtps_assert(isAllocated(hfn));
    Frame &f = slot(hfn);
    jtps_assert(f.refcount == 0);
    clearAllocBit(hfn);
    if (f.ksmStable) {
        // All mappings are already gone (refcount 0), so the frame's
        // sharing contribution was removed mapping by mapping; only
        // the stable-frame count remains to drop.
        --ksm_stable_frames_;
        f.ksmStable = false;
    }
    shrinkExtra(f);
    free_list_.push_back(hfn);
    --resident_;
    stat_frames_freed_.inc();
}

Hfn
FrameTable::alloc(const Mapping &m, const PageData &initial)
{
    Hfn hfn = allocRaw(initial);
    if (hfn == invalidFrame)
        return invalidFrame;
    Frame &f = slot(hfn);
    f.primary = m;
    f.refcount = 1;
    return hfn;
}

Hfn
FrameTable::allocPinned(const PageData &initial)
{
    Hfn hfn = allocRaw(initial);
    if (hfn == invalidFrame)
        return invalidFrame;
    Frame &f = slot(hfn);
    f.pinned = true;
    f.refcount = 1; // the hypervisor itself holds the reference
    return hfn;
}

void
FrameTable::addMapping(Hfn hfn, const Mapping &m)
{
    Frame &f = frame(hfn);
    jtps_assert(!f.pinned);
    jtps_assert(f.refcount >= 1);
    reserveExtra(f);
    f.extra.push_back(m);
    ++f.refcount;
    if (f.ksmStable)
        ++ksm_sharing_mappings_;
    stat_mappings_added_.inc();
}

bool
FrameTable::removeMapping(Hfn hfn, const Mapping &m)
{
    Frame &f = frame(hfn);
    jtps_assert(!f.pinned);
    jtps_assert(f.refcount >= 1);
    // Dropping a mapping of a stable frame can reopen merge capacity
    // (refcount falls below max_page_sharing) or kill the frame
    // (its stable-tree node goes stale and will be pruned on the next
    // probe), so cached stable-probe misses must be revalidated.
    if (f.ksmStable)
        ++ksm_stable_epochs_[f.ksmStripe];

    if (f.primary == m) {
        if (f.extra.empty()) {
            f.refcount = 0;
            freeRaw(hfn);
            return true;
        }
        f.primary = f.extra.back();
        f.extra.pop_back();
        --f.refcount;
        if (f.ksmStable)
            --ksm_sharing_mappings_;
        shrinkExtra(f);
        return false;
    }

    auto it = std::find(f.extra.begin(), f.extra.end(), m);
    jtps_assert(it != f.extra.end());
    f.extra.erase(it);
    --f.refcount;
    if (f.ksmStable)
        --ksm_sharing_mappings_;
    shrinkExtra(f);
    return false;
}

void
FrameTable::setKsmStable(Hfn hfn, bool stable)
{
    Frame &f = frame(hfn);
    if (f.ksmStable == stable)
        return;
    jtps_assert(!f.pinned && f.refcount >= 1);
    if (stable) {
        // Joining the tree: the epoch stripe is the content's digest
        // stripe, recorded on the frame so the symmetric transitions
        // (removeMapping, un-mark, death) bump the same stripe without
        // re-hashing.
        f.ksmStripe = static_cast<std::uint8_t>(
            stripeOfDigest(f.data.digest()));
    }
    f.ksmStable = stable;
    ++ksm_stable_epochs_[f.ksmStripe];
    // A stable-flag transition also advances the write generation, so
    // a generation recorded while the frame was an ordinary merge
    // candidate can never compare equal once the frame has joined (or
    // left) the stable tree: the scanner's generation fast path may
    // conclude "not stable" from generation equality alone, without
    // loading the Frame.
    write_gens_[hfn] = ++gen_clock_;
    if (stable) {
        ++ksm_stable_frames_;
        ksm_sharing_mappings_ += f.refcount - 1;
    } else {
        --ksm_stable_frames_;
        ksm_sharing_mappings_ -= f.refcount - 1;
    }
}

void
FrameTable::freePinned(Hfn hfn)
{
    Frame &f = frame(hfn);
    jtps_assert(f.pinned && f.refcount == 1);
    f.refcount = 0;
    freeRaw(hfn);
}

void
FrameTable::touch(Hfn hfn)
{
    Frame &f = frame(hfn);
    f.referenced = true;
    f.lastTouch = ++access_clock_;
}

Hfn
FrameTable::pickVictim(bool allow_shared)
{
    if (frameCount() == 0)
        return invalidFrame;

    // Sampled LRU: draw a handful of random frames, take the oldest
    // eligible one. Approximates global LRU reclaim at O(1) cost.
    constexpr int sample_size = 16;
    Hfn best = invalidFrame;
    for (int i = 0; i < sample_size; ++i) {
        const Hfn h = victim_rng_.nextBelow(frameCount());
        if (!allocBit(h))
            continue;
        const Frame &f = slot(h);
        if (f.pinned)
            continue;
        if (f.refcount > 1 && !allow_shared)
            continue;
        if (best == invalidFrame ||
            f.lastTouch < slot(best).lastTouch) {
            best = h;
        }
    }
    if (best != invalidFrame)
        return best;

    // Fallback sweep: the sample can miss when few frames are eligible.
    // Counted so overcommit experiments can see when reclaim degrades
    // from O(1) sampling to sweeping. The sweep is striped: stripes are
    // visited round-robin from a persistent cursor and each advances
    // its own hand over its own bit lane of the allocation bitmap, so
    // the state a sweep mutates stays per-stripe (no single hot hand on
    // a 256-VM host) while the visit order stays deterministic.
    stat_victim_fallback_sweeps_.inc();
    for (unsigned i = 0; i < kStripes; ++i) {
        const unsigned s = (clock_stripe_cursor_ + i) % kStripes;
        const std::uint64_t count = stripeFrameCount(s);
        if (count == 0)
            continue;
        stat_shard_clock_sweeps_.inc();
        const std::uint64_t pos = clock_hands_[s];
        for (std::uint64_t step = 0; step < count; ++step) {
            const std::uint64_t p = (pos + step) % count;
            const Hfn h = static_cast<Hfn>(s) + p * kStripes;
            if (!allocBit(h))
                continue;
            const Frame &f = slot(h);
            if (f.pinned)
                continue;
            if (f.refcount > 1 && !allow_shared)
                continue;
            clock_hands_[s] = (p + 1) % count;
            clock_stripe_cursor_ = s;
            return h;
        }
    }
    return invalidFrame;
}

void
FrameTable::checkConsistency() const
{
    std::uint64_t resident_count = 0;
    std::uint64_t stable_count = 0;
    std::uint64_t sharing_count = 0;
    for (Hfn h = 0; h < frameCount(); ++h) {
        if (!allocBit(h)) {
            continue;
        }
        ++resident_count;
        const Frame &f = slot(h);
        if (f.pinned) {
            jtps_assert(f.refcount == 1 && f.extra.empty());
        } else {
            jtps_assert(f.refcount == 1 + f.extra.size());
        }
        if (f.ksmStable) {
            ++stable_count;
            sharing_count += f.refcount - 1;
            // The recorded epoch stripe must be the content's digest
            // stripe: stable content never mutates in place (writes
            // COW off the frame), so the digest recorded at promotion
            // stays the digest of what the frame holds.
            jtps_assert(f.ksmStripe == stripeOfDigest(f.data.digest()));
        }
    }
    jtps_assert(resident_count == resident_);
    // The O(1) sharing counters must agree with a full recount, or the
    // incremental bookkeeping drifted somewhere.
    jtps_assert(stable_count == ksm_stable_frames_);
    jtps_assert(sharing_count == ksm_sharing_mappings_);
}

} // namespace jtps::mem
