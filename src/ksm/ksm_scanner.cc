#include "ksm/ksm_scanner.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/units.hh"

namespace jtps::ksm
{

namespace
{

/** Slot index hash of the flat stable and unstable tables (fixed
 *  constants keep the probe order deterministic across runs). */
inline std::size_t
slotHash(std::uint64_t digest)
{
    std::uint64_t h = digest;
    h ^= h >> 33;
    h *= 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
}

/** Tombstone marker: non-zero (keeps probe chains intact) and never a
 *  real pass epoch (epochs count up from 1, one per full scan, and
 *  start over before reaching it). */
constexpr std::uint32_t tombstoneEpoch =
    (std::uint32_t{1} << KsmScanner::slotEpochBits) - 1;

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/** How many pages ahead of the cursor visitLookahead() prefetches. */
constexpr Gfn prefetchDist = 16;

constexpr std::size_t initialUnstableCapacity = 1024;
constexpr std::size_t initialStableCapacity = 1024;

/** Whether consuming one more never-used slot of a @p cap-slot table
 *  would leave fewer than ~30% of its slots never used, which keeps
 *  probe chains short. */
inline bool
tableNeedsRehash(std::size_t occupied, std::size_t cap)
{
    return (occupied + 1) * 10 >= cap * 7;
}

/** Power-of-two capacity, at least @p cap, for @p live + 1 entries
 *  at a load of at most one half. */
inline std::size_t
tableCapacityFor(std::size_t cap, std::size_t live)
{
    while (cap < 2 * (live + 1))
        cap *= 2;
    return cap;
}

} // namespace

KsmScanner::KsmScanner(hv::Hypervisor &hv, const KsmConfig &cfg,
                       StatSet &stats)
    : hv_(hv), cfg_(cfg), stats_(stats),
      stat_stale_stable_(stats.counter("ksm.stale_stable_nodes")),
      stat_stale_unstable_(stats.counter("ksm.stale_unstable_nodes")),
      stat_skipped_huge_(stats.counter("ksm.skipped_huge")),
      stat_not_calm_(stats.counter("ksm.not_calm")),
      stat_stable_merges_(stats.counter("ksm.stable_merges")),
      stat_unstable_promotions_(stats.counter("ksm.unstable_promotions")),
      stat_pages_visited_(stats.counter("ksm.pages_visited")),
      stat_gen_skipped_(stats.counter("ksm.pages_gen_skipped"))
{
    unstable_.assign(initialUnstableCapacity, UnstableSlot{});
    stable_.assign(initialStableCapacity, StableSlot{});
    // Registered at zero so every registry with a scanner lists the
    // merge count, even on a run that never merges.
    hv_.stats().counter("hv.ksm_merges");
    hv_.setPageListener(this);
}

KsmScanner::~KsmScanner()
{
    hv_.setPageListener(nullptr);
}

void
KsmScanner::setPagesToScan(std::uint32_t pages)
{
    cfg_.pagesToScan = pages;
    stats_.set("ksm.pages_to_scan", pages);
}

void
KsmScanner::pageDiscarded(VmId vm, Gfn gfn)
{
    // Mirror of the old `EptEntry{}` reset wiping the in-EPT checksum:
    // the next visit of a reincarnated page must run the full calm
    // protocol anew. A page without a chunk already reads as never
    // seen.
    if (vm >= page_state_.size())
        return;
    const StateRow &row = page_state_[vm];
    const std::size_t c = gfn / stateChunkPages;
    if (c < row.size() && row[c])
        (*row[c])[gfn % stateChunkPages] = PageScanState{};
}

void
KsmScanner::vmReleased(VmId vm)
{
    // The released VM keeps an empty EPT for good, so its row and
    // every chunk in it are never read again.
    if (vm < page_state_.size())
        StateRow().swap(page_state_[vm]);
}

KsmScanner::StateRow &
KsmScanner::pageStateRow(VmId vm, const hv::Vm &v)
{
    // An unstable slot stores the VM id in slotVmBits bits. Checked on
    // every call: an earlier VM's resize may already cover this row.
    if (vm >= VmId{1} << slotVmBits)
        fatal("VM id %u does not fit the %u-bit VM field of the KSM "
              "unstable table: a host scans at most %u VMs",
              vm, slotVmBits, 1u << slotVmBits);
    if (vm >= page_state_.size())
        page_state_.resize(
            std::max<std::size_t>(hv_.vmCount(), vm + std::size_t{1}));
    StateRow &row = page_state_[vm];
    const std::size_t chunks =
        (v.ept.size() + stateChunkPages - 1) / stateChunkPages;
    if (row.size() < chunks)
        row.resize(chunks);
    return row;
}

void
KsmScanner::unstableRehash(std::size_t new_capacity)
{
    jtps_assert((new_capacity & (new_capacity - 1)) == 0);
    std::vector<UnstableSlot> old = std::move(unstable_);
    unstable_.assign(new_capacity, UnstableSlot{});
    unstable_occupied_ = 0;
    unstable_live_ = 0;
    const std::size_t mask = new_capacity - 1;
    for (const UnstableSlot &s : old) {
        if (s.epoch != pass_epoch_)
            continue; // drop tombstones and earlier passes' entries
        std::size_t i = slotHash(s.digest) & mask;
        while (unstable_[i].epoch != 0)
            i = (i + 1) & mask;
        unstable_[i] = s;
        ++unstable_occupied_;
        ++unstable_live_;
    }
}

std::size_t
KsmScanner::stableFind(std::uint64_t digest, std::size_t &insert_at) const
{
    // The unstableFind() walk: the first tombstone or the chain's empty
    // terminator is where a missing digest goes.
    const std::size_t mask = stable_.size() - 1;
    for (std::size_t i = slotHash(digest) & mask;; i = (i + 1) & mask) {
        const StableSlot &s = stable_[i];
        if (s.ref == stableEmptyRef) {
            if (insert_at == npos)
                insert_at = i;
            return npos;
        }
        if (s.ref == stableTombstoneRef) {
            if (insert_at == npos)
                insert_at = i;
        } else if (s.digest == digest) {
            return i;
        }
    }
}

void
KsmScanner::stableRehash(std::size_t new_capacity)
{
    jtps_assert((new_capacity & (new_capacity - 1)) == 0);
    std::vector<StableSlot> old = std::move(stable_);
    stable_.assign(new_capacity, StableSlot{});
    const std::size_t mask = new_capacity - 1;
    for (const StableSlot &s : old) {
        if (s.ref >= stableTombstoneRef)
            continue; // never used, or a tombstone
        std::size_t i = slotHash(s.digest) & mask;
        while (stable_[i].ref != stableEmptyRef)
            i = (i + 1) & mask;
        stable_[i] = s;
    }
    stable_occupied_ = stable_live_;
}

void
KsmScanner::stableInsert(std::uint64_t digest, Hfn hfn)
{
    jtps_assert(hfn < stableSpillBit);
    std::size_t insert_at = npos;
    const std::size_t slot = stableFind(digest, insert_at);
    if (slot != npos) {
        // A duplicate behind a full chain head, or a digest collision:
        // append in creation order, spilling an inline frame first.
        StableSlot &s = stable_[slot];
        if (!(s.ref & stableSpillBit)) {
            std::size_t idx = stable_spill_.size();
            if (stable_spill_free_.empty()) {
                stable_spill_.emplace_back();
            } else {
                idx = stable_spill_free_.back();
                stable_spill_free_.pop_back();
            }
            stable_spill_[idx].push_back(s.ref);
            s.ref = stableSpillBit | idx;
        }
        stable_spill_[s.ref & ~stableSpillBit].push_back(hfn);
        return;
    }
    if (stable_[insert_at].ref == stableEmptyRef) {
        if (tableNeedsRehash(stable_occupied_, stable_.size())) {
            stableRehash(tableCapacityFor(stable_.size(), stable_live_));
            insert_at = npos;
            stableFind(digest, insert_at);
        }
        ++stable_occupied_;
    }
    stable_[insert_at] = StableSlot{digest, hfn};
    ++stable_live_;
}

Hfn
KsmScanner::stableLookup(Hfn candidate, std::uint64_t digest)
{
    std::size_t insert_at = npos;
    const std::size_t slot = stableFind(digest, insert_at);
    if (slot == npos)
        return invalidFrame;

    // Only a hit needs the candidate's content, so a miss (most calm
    // visits) never touches its Frame.
    const mem::FrameTable &ft = hv_.frames();
    const mem::PageData &data = ft.frame(candidate).data;
    // Lazy pruning: the frame may have been freed (all sharers
    // COW-diverged or the host evicted it) or its content replaced.
    // The full compare also guards merging across a digest collision —
    // a colliding valid frame merely loses its node.
    auto stale = [&](Hfn hfn) {
        return !ft.isAllocated(hfn) || !(ft.frame(hfn).data == data) ||
               !ft.frame(hfn).ksmStable;
    };
    // Chain discipline: a full stable frame stops accepting sharers;
    // the next duplicate in the chain (or a fresh one) takes over.
    auto full = [&](Hfn hfn) {
        return ft.frame(hfn).refcount >= cfg_.maxPageSharing;
    };

    StableSlot &s = stable_[slot];
    if (!(s.ref & stableSpillBit)) {
        // The common case: the digest's only stable frame, inline.
        const Hfn hfn = s.ref;
        if (stale(hfn)) {
            ++stat_stale_stable_;
            s.ref = stableTombstoneRef;
            --stable_live_;
            return invalidFrame;
        }
        return full(hfn) ? invalidFrame : hfn;
    }

    const std::size_t idx = s.ref & ~stableSpillBit;
    std::vector<Hfn> &chain = stable_spill_[idx];
    Hfn found = invalidFrame;
    for (std::size_t i = 0; i < chain.size();) {
        const Hfn hfn = chain[i];
        if (stale(hfn)) {
            chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(i));
            ++stat_stale_stable_;
            continue;
        }
        if (full(hfn)) {
            ++i;
            continue;
        }
        found = hfn;
        break;
    }
    if (chain.size() <= 1) {
        // Pruned down to one frame (back inline) or none (tombstone).
        if (chain.empty()) {
            s.ref = stableTombstoneRef;
            --stable_live_;
        } else {
            s.ref = chain.front();
        }
        chain.clear();
        stable_spill_free_.push_back(idx);
    }
    return found;
}

KsmScanner::StableIndexShape
KsmScanner::checkIndex() const
{
    StableIndexShape shape;
    shape.capacity = stable_.size();
    jtps_assert(shape.capacity > 0 &&
                (shape.capacity & (shape.capacity - 1)) == 0);
    // Each side chain is owned by exactly one live slot or sits on the
    // free list, never both and never neither.
    std::vector<bool> chain_owned(stable_spill_.size(), false);
    for (std::size_t i = 0; i < stable_.size(); ++i) {
        const StableSlot &s = stable_[i];
        if (s.ref == stableEmptyRef)
            continue;
        ++shape.occupied;
        if (s.ref == stableTombstoneRef)
            continue;
        ++shape.live;
        // A probe for the digest must land on this very slot: the
        // chain is intact and no earlier slot holds the digest live.
        std::size_t insert_at = npos;
        jtps_assert(stableFind(s.digest, insert_at) == i);
        if (s.ref & stableSpillBit) {
            const std::size_t idx = s.ref & ~stableSpillBit;
            jtps_assert(idx < stable_spill_.size() && !chain_owned[idx]);
            chain_owned[idx] = true;
            // A chain pruned to one frame goes back inline.
            jtps_assert(stable_spill_[idx].size() >= 2);
            ++shape.spilled;
        }
    }
    jtps_assert(shape.live == stable_live_);
    jtps_assert(shape.occupied == stable_occupied_);
    for (std::size_t idx : stable_spill_free_) {
        jtps_assert(idx < stable_spill_.size() && !chain_owned[idx]);
        jtps_assert(stable_spill_[idx].empty());
        chain_owned[idx] = true;
    }
    jtps_assert(std::find(chain_owned.begin(), chain_owned.end(), false) ==
                chain_owned.end());

    // The unstable table: each live entry is the first slot of its
    // chain holding its digest, as unstableFind()'s early stop needs.
    std::size_t unstable_live = 0;
    std::size_t unstable_occupied = 0;
    for (std::size_t i = 0; i < unstable_.size(); ++i) {
        const UnstableSlot &u = unstable_[i];
        if (u.epoch == 0)
            continue;
        ++unstable_occupied;
        if (u.epoch != pass_epoch_)
            continue;
        ++unstable_live;
        std::size_t insert_at = npos;
        jtps_assert(unstableFind(u.digest, insert_at) == i);
    }
    jtps_assert(unstable_live == unstable_live_);
    jtps_assert(unstable_occupied == unstable_occupied_);
    return shape;
}

bool
KsmScanner::scanOne(VmId vm, Gfn gfn, const hv::Vm &v,
                    mem::FrameTable &ft,
                    std::unique_ptr<StateChunk> &chunk)
{
    const hv::EptEntry &e = v.ept.entry(gfn);
    if (e.state != hv::PageState::Resident)
        return false; // not resident: nothing to merge

    if (e.huge) {
        // THP-backed memory is not madvise-MERGEABLE: skip.
        ++stat_skipped_huge_;
        return true;
    }

    const Hfn hfn = e.backing;
    const std::uint64_t gen = ft.writeGen(hfn);
    if (!chunk)
        chunk = std::make_unique<StateChunk>();
    PageScanState &ps = (*chunk)[gfn % stateChunkPages];
    // The page content, loaded only on the paths that need it: the
    // generation fast path below settles most visits from the dense
    // generation array and this page's state chunk alone.
    const mem::PageData *data = nullptr;
    std::uint64_t digest;

    if (cfg_.incrementalScan && ps.lastGen == gen) {
        // The frame's write generation has not moved since the last
        // completed visit. Generations are globally unique and bumped
        // on every content change, reallocation, and stable-flag
        // transition, so equality proves this is the same frame, with
        // the same stable flag and byte-identical content: the digest
        // compare would come out calm. Stable pages are done (a
        // from-scratch visit early-returns on them); the rest reuse
        // the digest that visit recorded.
        ++stat_gen_skipped_;
        if (ps.lastStable)
            return true; // provably still a shared KSM page
        digest = ps.lastDigest;
    } else {
        jtps_assert(gen < (std::uint64_t{1} << 62)); // fits ps.lastGen
        const mem::Frame &frame = ft.frame(hfn);
        if (frame.ksmStable) {
            // Remember the outcome (incremental mode only — the calm
            // key stays untouched either way, exactly like a
            // from-scratch visit): while the generation holds,
            // revisits return here without loading the Frame.
            if (cfg_.incrementalScan) {
                ps.lastGen = gen;
                ps.lastStable = true;
            }
            return true; // already a shared KSM page
        }
        // The calm protocol: one digest serves as the calm key and,
        // for a calm page, as the tree key.
        data = &frame.data;
        digest = data->digest();
        const bool calm = ps.seen && ps.lastDigest == digest;
        ps.lastGen = gen;
        ps.seen = true;
        ps.lastStable = false;
        ps.lastDigest = digest;
        if (!calm) {
            ++stat_not_calm_;
            return true;
        }
    }

    treeStage(vm, gfn, ft, hfn, digest, data);
    return true;
}

void
KsmScanner::treeStage(VmId vm, Gfn gfn, mem::FrameTable &ft, Hfn hfn,
                      std::uint64_t digest, const mem::PageData *data)
{
    // Stable index first.
    const Hfn stable = stableLookup(hfn, digest);
    if (stable != invalidFrame) {
        if (hv_.ksmMergeInto(stable, vm, gfn)) {
            ++merges_this_pass_;
            ++merges_total_;
            ++stat_stable_merges_;
            if (TraceBuffer *t = hv_.trace())
                t->record(TraceEventType::KsmStableMerge, vm, gfn, stable);
        }
        return;
    }

    // Unstable tree: find another calm page with the same content seen
    // earlier in this pass.
    std::size_t insert_at = npos;
    const std::size_t slot = unstableFind(digest, insert_at);
    if (slot != npos) {
        UnstableSlot &u = unstable_[slot];
        if (u.vm == vm && u.gfn == gfn) {
            return; // same page revisited
        }
        if (!data)
            data = &ft.frame(hfn).data;
        const mem::PageData *other = hv_.peek(u.vm, u.gfn);
        if (other == nullptr || !(*other == *data)) {
            // The tree node went stale (page rewritten or swapped out)
            // — or, vanishingly rarely, its digest collides with ours;
            // either way, replace it with the current candidate.
            u.vm = vm;
            u.gfn = gfn;
            ++stat_stale_unstable_;
            return;
        }
        // The table entry — visited earlier in the pass — becomes the
        // stable frame; the candidate merges into it.
        Hfn fresh = hv_.ksmMakeStable(u.vm, u.gfn);
        jtps_assert(fresh != invalidFrame);
        stableInsert(digest, fresh);
        u.epoch = tombstoneEpoch; // erase, keeping probe chains intact
        --unstable_live_;
        if (hv_.ksmMergeInto(fresh, vm, gfn)) {
            ++merges_this_pass_;
            ++merges_total_;
            ++stat_unstable_promotions_;
            if (TraceBuffer *t = hv_.trace())
                t->record(TraceEventType::KsmUnstablePromotion, vm, gfn,
                          fresh);
        }
        return;
    }

    unstableInsert(insert_at, digest, vm, gfn);
}

inline std::size_t
KsmScanner::unstableFind(std::uint64_t digest,
                         std::size_t &insert_at) const
{
    // One walk serves both the lookup and, on a miss, the insert
    // position (the first reusable stale/tombstone slot in the chain,
    // or its empty terminator).
    //
    // The walk also stops at a reusable slot that still holds this
    // digest, usually the page's own entry from the previous pass. No
    // live entry for the digest can lie beyond it. Had the slot been
    // reusable when that entry went in, the insert would have taken it
    // or an earlier slot; and it cannot have taken the digest later,
    // because that probe would have found the live entry instead of
    // inserting. checkIndex() asserts this order.
    const std::size_t mask = unstable_.size() - 1;
    for (std::size_t i = slotHash(digest) & mask;;
         i = (i + 1) & mask) {
        const UnstableSlot &s = unstable_[i];
        if (s.epoch == 0) {
            if (insert_at == npos)
                insert_at = i;
            return npos; // end of chain: not in this pass's tree
        }
        if (s.epoch == pass_epoch_) {
            if (s.digest == digest)
                return i;
            continue;
        }
        if (insert_at == npos)
            insert_at = i; // stale/tombstone slot: reusable
        if (s.digest == digest)
            return npos;
    }
}

inline void
KsmScanner::unstableInsert(std::size_t insert_at, std::uint64_t digest,
                           VmId vm, Gfn gfn)
{
    // Keep at least ~30% never-used slots so probe chains terminate
    // quickly; the check runs only when this insert would consume an
    // empty slot, so a steady-state pass over unchanged memory
    // re-inserts into the previous pass's (now stale) slots without
    // ever allocating or rehashing.
    if (unstable_[insert_at].epoch == 0) {
        if (tableNeedsRehash(unstable_occupied_, unstable_.size())) {
            unstableRehash(
                tableCapacityFor(unstable_.size(), unstable_live_));
            // Re-derive the insert position in the rehashed table
            // (all remaining slots are live entries of this pass).
            const std::size_t m2 = unstable_.size() - 1;
            insert_at = slotHash(digest) & m2;
            while (unstable_[insert_at].epoch != 0)
                insert_at = (insert_at + 1) & m2;
        }
        ++unstable_occupied_;
    }
    UnstableSlot &u = unstable_[insert_at];
    u.digest = digest;
    u.gfn = gfn;
    u.vm = vm;
    u.epoch = pass_epoch_;
    ++unstable_live_;
}

bool
KsmScanner::advanceCursor()
{
    const std::size_t nvms = hv_.vmCount();
    for (;;) {
        if (cur_vm_ >= nvms) {
            // End of a full pass over mergeable memory.
            passBoundary();
            return false;
        }
        const hv::Vm &v = hv_.vm(cur_vm_);
        if (cur_gfn_ >= v.ept.size()) {
            ++cur_vm_;
            cur_gfn_ = 0;
            continue;
        }
        return true;
    }
}

void
KsmScanner::passBoundary()
{
    cur_vm_ = 0;
    cur_gfn_ = 0;
    ++full_scans_;
    stats_.set("ksm.full_scans", full_scans_);
    // Clearing the unstable tree is one epoch bump: last pass's
    // entries go stale in place and their slots are reused by the
    // next pass's inserts. Once the epoch field is exhausted every
    // slot goes back to never used instead. No entry is live at a
    // pass boundary, so no probe of the next pass can tell.
    if (++pass_epoch_ == tombstoneEpoch) {
        std::fill(unstable_.begin(), unstable_.end(), UnstableSlot{});
        unstable_occupied_ = 0;
        pass_epoch_ = 1;
    }
    unstable_live_ = 0;
    if (TraceBuffer *t = hv_.trace())
        t->record(TraceEventType::KsmFullScan, invalidVm, full_scans_,
                  merges_total_);
}

void
KsmScanner::visitLookahead(const hv::Vm &v, Gfn gfn, Gfn gfn_end,
                           const mem::FrameTable &ft) const
{
    // The random-access line of a steady-state visit, the frame's
    // write generation (indexed by hfn), is prefetched a few pages
    // ahead from the sequentially walked EPT, hiding its miss latency
    // behind the visits in between. A pure hint: the scan itself never
    // depends on it.
    if (gfn + prefetchDist >= gfn_end)
        return;
    const hv::EptEntry &pe = v.ept.entry(gfn + prefetchDist);
    if (pe.state == hv::PageState::Resident)
        ft.prefetchWriteGen(pe.backing);
}

std::uint64_t
KsmScanner::scanBatch()
{
    if (hv_.vmCount() == 0)
        return 0;
    mem::FrameTable &ft = hv_.frames();
    std::uint64_t visited = 0;
    while (visited < cfg_.pagesToScan) {
        if (!advanceCursor()) {
            // Pass boundary reached; ksmd would continue into the next
            // pass within the same wake, but stopping here keeps wake
            // cost bounded and matches the batch accounting.
            break;
        }
        // The VM, its page-state row and the gfn bound are hoisted out
        // of the per-page loop; advanceCursor() leaves the cursor on a
        // mergeable VM with cur_gfn_ in range. Like ksmd, only
        // *present* pages consume the scan budget: the rmap walk skips
        // holes in the address space nearly for free. The pass
        // boundary still bounds each batch.
        const hv::Vm &v = hv_.vm(cur_vm_);
        StateRow &row = pageStateRow(cur_vm_, v);
        const Gfn gfn_end = v.ept.size();
        for (; cur_gfn_ < gfn_end && visited < cfg_.pagesToScan;
             ++cur_gfn_) {
            visitLookahead(v, cur_gfn_, gfn_end, ft);
            if (scanOne(cur_vm_, cur_gfn_, v, ft,
                        row[cur_gfn_ / stateChunkPages]))
                ++visited;
        }
    }
    stat_pages_visited_ += visited;
    return visited;
}

void
KsmScanner::attach(sim::EventQueue &queue)
{
    queue.schedulePeriodic(cfg_.sleepMillisecs, [this]() {
        scanBatch();
        return true;
    });
}

std::uint64_t
KsmScanner::runToQuiescence(std::uint64_t max_full_scans)
{
    const std::uint64_t start_merges = merges_total_;
    std::uint64_t quiet_passes = 0;
    std::uint64_t passes = 0;

    while (passes < max_full_scans && quiet_passes < 2) {
        const std::uint64_t pass_start = full_scans_;
        merges_this_pass_ = 0;
        while (full_scans_ == pass_start)
            scanBatch();
        ++passes;
        if (merges_this_pass_ == 0)
            ++quiet_passes;
        else
            quiet_passes = 0;
    }
    return merges_total_ - start_merges;
}

std::uint64_t
KsmScanner::pagesShared() const
{
    return hv_.frames().ksmStableFrames();
}

std::uint64_t
KsmScanner::pagesSharing() const
{
    return hv_.frames().ksmSharingMappings();
}

Bytes
KsmScanner::savedBytes() const
{
    return pagesToBytes(pagesSharing());
}

Bytes
KsmScanner::pageStateBytes() const
{
    Bytes total = 0;
    for (const StateRow &row : page_state_) {
        for (const auto &chunk : row)
            total += chunk ? sizeof(StateChunk) : 0;
    }
    return total;
}

double
KsmScanner::cpuUsage() const
{
    // Modelled scanner cost per visited page, microseconds.
    constexpr double scanCostUs = 2.5;
    const double busy_us = cfg_.pagesToScan * scanCostUs;
    const double period_us =
        static_cast<double>(cfg_.sleepMillisecs) * 1000.0;
    return busy_us / (busy_us + period_us);
}

} // namespace jtps::ksm
