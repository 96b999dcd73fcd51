#include "ksm/ksm_scanner.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/units.hh"

namespace jtps::ksm
{

namespace
{

/** Slot index hash for the flat unstable table (fixed constants keep
 *  the probe order deterministic across runs). */
inline std::size_t
unstableSlotHash(std::uint64_t digest)
{
    std::uint64_t h = digest;
    h ^= h >> 33;
    h *= 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
}

/** Tombstone marker: non-zero (keeps probe chains intact) and never a
 *  real pass epoch (epochs count up from 1, one per full scan). */
constexpr std::uint64_t tombstoneEpoch = ~std::uint64_t{0};

constexpr std::size_t npos = static_cast<std::size_t>(-1);

constexpr std::size_t initialUnstableCapacity = 1024;

/** Classify items per content-kernel window: two rounds of the
 *  kernels' 8 lanes, the width docs/PERF.md §10 measures. */
constexpr std::size_t kernelWindow = 16;

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
      stat_gen_skipped_(stats.counter("ksm.pages_gen_skipped")),
      stat_digest_cache_hits_(stats.counter("ksm.digest_cache_hits")),
      stat_scan_shards_(stats.counter("ksm.scan_shards")),
      stat_precheck_candidates_(stats.counter("ksm.precheck_candidates")),
      stat_commit_replays_(stats.counter("ksm.commit_replays")),
      stat_pml_skipped_(stats.counter("ksm.pages_pml_skipped")),
      stat_shard_imbalance_(stats.counter("ksm.shard_imbalance_max")),
      stat_hv_ksm_merges_(hv.stats().counter("hv.ksm_merges"))
{
    // Log-driven passes are only complete if every write has been
    // funneled into a ring since the VMs existed.
    jtps_assert(!cfg_.usePml || hv_.pmlEnabled());
    // Every stable-epoch stripe must belong to exactly one shard
    // (stripe = digest mod kStripes, shard = digest mod S): S | 64.
    jtps_assert(cfg_.commitShards >= 1 &&
                cfg_.commitShards <= mem::FrameTable::kStripes &&
                mem::FrameTable::kStripes % cfg_.commitShards == 0);
    shards_.resize(effectiveCommitShards());
    for (ShardState &sh : shards_)
        sh.unstable.assign(initialUnstableCapacity, UnstableSlot{});
    stats_.set("ksm.commit_shards", shards_.size());
    hv_.addPageListener(this);
}

unsigned
KsmScanner::effectiveCommitShards() const
{
    // PML's ring/queue bookkeeping (requeues, injected lanes) is
    // serial: log-driven runs keep the single classic index.
    if (cfg_.usePml || cfg_.commitShards <= 1)
        return 1;
    return cfg_.commitShards;
}

KsmScanner::~KsmScanner()
{
    hv_.removePageListener(this);
}

void
KsmScanner::setPagesToScan(std::uint32_t pages)
{
    cfg_.pagesToScan = pages;
    stats_.set("ksm.pages_to_scan", pages);
}

void
KsmScanner::setSleepMillisecs(Tick ms)
{
    jtps_assert(ms > 0);
    cfg_.sleepMillisecs = ms;
}

void
KsmScanner::pageDiscarded(VmId vm, Gfn gfn)
{
    // Mirror of the old `EptEntry{}` reset wiping the in-EPT checksum:
    // the next visit of a reincarnated page must run the full calm
    // protocol from scratch. Untracked pages have no state to drop.
    if (vm >= page_state_.size())
        return;
    auto &v = page_state_[vm];
    if (gfn >= v.size())
        return;
    v[gfn] = PageScanState{};
}

KsmScanner::PageScanState *
KsmScanner::pageStateRow(VmId vm, const hv::Vm &v)
{
    if (vm >= page_state_.size())
        page_state_.resize(
            std::max<std::size_t>(hv_.vmCount(), vm + std::size_t{1}));
    auto &row = page_state_[vm];
    if (row.size() < v.ept.size())
        row.resize(v.ept.size());
    return row.data();
}

KsmScanner::FrameMemo &
KsmScanner::frameMemo(Hfn hfn)
{
    if (hfn >= frame_memo_.size()) {
        frame_memo_.resize(std::max<std::size_t>(
            hfn + std::size_t{1}, frame_memo_.size() * 2));
    }
    return frame_memo_[hfn];
}

std::uint64_t
KsmScanner::cachedDigest(Hfn hfn, std::uint64_t gen,
                         const mem::PageData &data,
                         const std::uint64_t *pre,
                         std::uint64_t &digest_hits)
{
    FrameMemo &m = frameMemo(hfn);
    if (m.gen != gen) {
        m = FrameMemo{};
        m.gen = gen;
    }
    if (m.hasDigest) {
        ++digest_hits;
        return m.digest;
    }
    // Memo miss: a precomputed value (a classify snapshot under its
    // generation proof) stands in for the recompute; the memo
    // end-state is identical.
    m.digest = pre ? *pre : data.digest();
    m.hasDigest = true;
    return m.digest;
}

std::uint32_t
KsmScanner::cachedChecksum(Hfn hfn, std::uint64_t gen,
                           const mem::PageData &data,
                           const std::uint32_t *pre)
{
    FrameMemo &m = frameMemo(hfn);
    if (m.gen != gen) {
        m = FrameMemo{};
        m.gen = gen;
    }
    if (!m.hasChecksum) {
        m.checksum = pre ? *pre : data.checksum();
        m.hasChecksum = true;
    }
    return m.checksum;
}

std::uint64_t
KsmScanner::genCalmDigest(mem::FrameTable &ft, Hfn hfn,
                          std::uint64_t gen, PageScanState &ps,
                          const mem::PageData *&data,
                          const std::uint64_t *pre,
                          std::uint64_t &digest_hits,
                          bool &skip_stable_probe)
{
    // Generation fast path, non-stable: serve the digest from the
    // per-page cache, falling back to the frame memo (first revisit),
    // and derive the epoch-proved stable-probe skip. Shared verbatim
    // by the serial visit and the shard commits — only the counter
    // sinks differ.
    std::uint64_t digest;
    if (ps.digestValid) {
        ++digest_hits;
        digest = ps.lastDigest;
    } else {
        data = &ft.frame(hfn).data;
        digest = cachedDigest(hfn, gen, *data, pre, digest_hits);
        ps.lastDigest = digest;
        ps.digestValid = true;
    }
    skip_stable_probe = ps.lastStableEpoch != 0 &&
                        ps.lastStableEpoch == ft.ksmStableEpoch(digest);
    return digest;
}

bool
KsmScanner::slowPathContent(mem::FrameTable &ft, Hfn hfn,
                            std::uint64_t gen, PageScanState &ps,
                            const mem::PageData *&data,
                            const std::uint32_t *pre_sum,
                            const std::uint64_t *pre_dig,
                            std::uint64_t &digest_hits,
                            std::uint64_t &digest_out)
{
    // Slow path, non-stable: the calm protocol. Identical compare to
    // the one the in-EPT checksum used to implement; the state lives
    // in the scanner's per-page row.
    if (!data)
        data = &ft.frame(hfn).data;
    const std::uint32_t sum =
        cfg_.incrementalScan ? cachedChecksum(hfn, gen, *data, pre_sum)
                             : (pre_sum ? *pre_sum : data->checksum());
    const bool calm = ps.checksumValid && ps.lastChecksum == sum;
    ps.lastChecksum = sum;
    ps.checksumValid = true;
    ps.lastGen = gen;
    ps.lastStable = false;
    ps.lastStableEpoch = 0;
    ps.digestValid = false;
    if (!calm)
        return false; // the caller counts not_calm and stops
    digest_out =
        cfg_.incrementalScan
            ? cachedDigest(hfn, gen, *data, pre_dig, digest_hits)
            : (pre_dig ? *pre_dig : data->digest());
    if (cfg_.incrementalScan) {
        ps.lastDigest = digest_out;
        ps.digestValid = true;
    }
    return true;
}

void
KsmScanner::unstableRehash(ShardState &sh, std::size_t new_capacity)
{
    jtps_assert((new_capacity & (new_capacity - 1)) == 0);
    std::vector<UnstableSlot> old = std::move(sh.unstable);
    sh.unstable.assign(new_capacity, UnstableSlot{});
    sh.occupied = 0;
    sh.live = 0;
    const std::size_t mask = new_capacity - 1;
    for (const UnstableSlot &s : old) {
        if (s.epoch != pass_epoch_)
            continue; // drop tombstones and earlier passes' entries
        std::size_t i = unstableSlotHash(s.digest) & mask;
        while (sh.unstable[i].epoch != 0)
            i = (i + 1) & mask;
        sh.unstable[i] = s;
        ++sh.occupied;
        ++sh.live;
    }
}

Hfn
KsmScanner::stableLookup(ShardState &sh, const mem::PageData &data,
                         std::uint64_t digest,
                         std::uint64_t &stale_counter)
{
    auto bucket = sh.stableTree.find(digest);
    if (bucket == sh.stableTree.end())
        return invalidFrame;

    std::vector<Hfn> &chain = bucket->second;
    Hfn found = invalidFrame;
    for (std::size_t i = 0; i < chain.size();) {
        const Hfn hfn = chain[i];
        // Lazy pruning: the frame may have been freed (all sharers
        // COW-diverged or the host evicted it) or its content replaced.
        // The full compare also guards merging across a digest
        // collision — a colliding valid frame merely loses its node.
        // Content is compared *before* the stable flag: page content
        // is frozen for a whole commit, so when the node is stale via
        // a recycled frame now owned by another shard, the mismatch
        // alone settles the prune without reading fields that shard
        // may be mutating.
        if (!hv_.frames().isAllocated(hfn) ||
            !(hv_.frames().frame(hfn).data == data) ||
            !hv_.frames().frame(hfn).ksmStable) {
            chain.erase(chain.begin() + i);
            ++stale_counter;
            continue;
        }
        // Chain discipline: a full stable frame stops accepting
        // sharers; the next duplicate in the chain (or a fresh one)
        // takes over.
        if (hv_.frames().frame(hfn).refcount >= cfg_.maxPageSharing) {
            ++i;
            continue;
        }
        found = hfn;
        break;
    }
    if (chain.empty())
        sh.stableTree.erase(bucket);
    return found;
}

bool
KsmScanner::scanOne(VmId vm, Gfn gfn, const hv::Vm &v,
                    mem::FrameTable &ft, PageScanState *psv)
{
    const hv::EptEntry &e = v.ept.entry(gfn);
    if (e.state != hv::PageState::Resident)
        return false; // not resident: nothing to merge

    if (!v.hugePages.empty() && v.hugePages[gfn]) {
        // THP-backed memory is not madvise-MERGEABLE: skip.
        ++stat_skipped_huge_;
        return true;
    }

    const Hfn hfn = e.backing;
    const std::uint64_t gen = ft.writeGen(hfn);
    PageScanState &ps = psv[gfn];
    // The page content, loaded only on the paths that need it: the
    // generation fast path below settles most visits from the dense
    // generation array and this VM's page-state row alone.
    const mem::PageData *data = nullptr;
    std::uint64_t digest;
    bool skip_stable_probe = false;

    if (cfg_.incrementalScan && ps.lastGen == gen) {
        // The frame's write generation has not moved since the last
        // completed visit. Generations are globally unique and bumped
        // on every content change, reallocation, and stable-flag
        // transition, so equality proves this is the same frame, with
        // the same stable flag and byte-identical content: the
        // checksum compare would come out calm. Stable pages are done
        // (a from-scratch visit early-returns on them); for the rest,
        // serve the digest from the per-page cache (or the frame memo
        // on the first revisit). A stable-tree probe that missed at
        // ps.lastStableEpoch must still miss while the epoch is
        // unchanged (stable frames only gain sharers without an epoch
        // bump, and every staleness or capacity transition bumps it),
        // so it is skipped as well.
        ++stat_gen_skipped_;
        if (ps.lastStable)
            return true; // provably still a shared KSM page
        digest = genCalmDigest(ft, hfn, gen, ps, data, nullptr,
                               stat_digest_cache_hits_,
                               skip_stable_probe);
    } else {
        const mem::Frame &frame = ft.frame(hfn);
        if (frame.ksmStable) {
            // Remember the outcome (incremental mode only — the
            // calm-protocol fields stay untouched either way, exactly
            // like a from-scratch visit): while the generation holds,
            // revisits return here without loading the Frame.
            if (cfg_.incrementalScan) {
                ps.lastGen = gen;
                ps.lastStable = true;
                ps.digestValid = false;
                ps.lastStableEpoch = 0;
            }
            return true; // already a shared KSM page
        }
        data = &frame.data;
        if (!slowPathContent(ft, hfn, gen, ps, data, nullptr, nullptr,
                             stat_digest_cache_hits_, digest)) {
            ++stat_not_calm_;
            return true;
        }
    }

    treeStage(vm, gfn, ft, ps, hfn, digest, data, skip_stable_probe);
    return true;
}

void
KsmScanner::treeStage(VmId vm, Gfn gfn, mem::FrameTable &ft,
                      PageScanState &ps, Hfn hfn, std::uint64_t digest,
                      const mem::PageData *data, bool skip_stable_probe)
{
    ShardState &sh = shards_[shardFor(digest)];

    // Stable tree first.
    if (!skip_stable_probe) {
        if (!data)
            data = &ft.frame(hfn).data;
        const Hfn stable =
            stableLookup(sh, *data, digest, stat_stale_stable_);
        if (stable != invalidFrame) {
            if (hv_.ksmMergeInto(stable, vm, gfn)) {
                ++merges_this_pass_;
                ++merges_total_;
                ++stat_stable_merges_;
                if (TraceBuffer *t = hv_.trace())
                    t->record(TraceEventType::KsmStableMerge, vm, gfn,
                              stable);
            }
            return;
        }
        // Record the miss: while the stable epoch stays put, revisits
        // of this unchanged page may skip the probe (and the pruning
        // it would do — a missing probe already pruned its bucket
        // clean).
        ps.lastStableEpoch = ft.ksmStableEpoch(digest);
    }

    // Unstable tree: find another calm page with the same content seen
    // earlier in this pass.
    std::size_t insert_at = npos;
    const std::size_t slot = unstableFind(sh, digest, insert_at);
    if (slot != npos) {
        UnstableSlot &u = sh.unstable[slot];
        if (u.vm == vm && u.gfn == gfn) {
            return; // same page revisited
        }
        if (!data)
            data = &ft.frame(hfn).data;
        const mem::PageData *other = hv_.peek(u.vm, u.gfn);
        bool entry_stale = other == nullptr || !(*other == *data);
        if (!entry_stale && cfg_.usePml) {
            // A persistent entry can outlive its page's promotion into
            // the stable tree (a walk pass cannot: stable pages never
            // insert). If the chain is full its content can even still
            // match ours; promoting a stable page again would be
            // wrong, so the entry is stale — exactly as the walk,
            // whose table never contained the page this pass.
            const hv::Vm &uv = hv_.vm(u.vm);
            const hv::EptEntry &ue = uv.ept.entry(u.gfn);
            if (ft.frame(ue.backing).ksmStable)
                entry_stale = true;
            // Likewise a page that became THP-backed since insertion:
            // the walk skips huge pages before the tree stage, so this
            // pass's table would never have held it.
            else if (!uv.hugePages.empty() && uv.hugePages[u.gfn])
                entry_stale = true;
        }
        if (entry_stale) {
            // The tree node went stale (page rewritten or swapped out)
            // — or, vanishingly rarely, its digest collides with ours;
            // either way, replace it with the current candidate.
            u.vm = vm;
            u.gfn = gfn;
            ++stat_stale_unstable_;
            return;
        }
        // A valid persistent entry *later* in cursor order: the walk's
        // fresh table could not have contained it at this visit — the
        // walk would have inserted the candidate here, and the entry's
        // page would have met it at its own, later visit. Reproduce
        // that exactly: the candidate takes over the slot, and the
        // entry's old page is scheduled for a visit at its canonical
        // position this pass (where its probe finds the candidate and
        // promotes it — same merge, same frame-allocation order, same
        // trace position as the walk). Only pages with a live
        // cross-pass match pay this revisit, so passes stay
        // O(dirty + matches).
        if (cfg_.usePml &&
            (vm < u.vm || (vm == u.vm && gfn < u.gfn))) {
            pmlScheduleThisPass(u.vm, u.gfn);
            u.vm = vm;
            u.gfn = gfn;
            return;
        }
        // The table entry — visited earlier in the pass — becomes the
        // stable frame; the candidate merges into it.
        Hfn fresh = hv_.ksmMakeStable(u.vm, u.gfn);
        jtps_assert(fresh != invalidFrame);
        sh.stableTree[digest].push_back(fresh);
        u.epoch = tombstoneEpoch; // erase, keeping probe chains intact
        --sh.live;
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

    unstableInsert(sh, insert_at, digest, vm, gfn);
}

inline std::size_t
KsmScanner::unstableFind(const ShardState &sh, std::uint64_t digest,
                         std::size_t &insert_at) const
{
    // One walk serves both the lookup and, on a miss, the insert
    // position (the first reusable stale/tombstone slot in the chain,
    // or its empty terminator).
    const std::size_t mask = sh.unstable.size() - 1;
    for (std::size_t i = unstableSlotHash(digest) & mask;;
         i = (i + 1) & mask) {
        const UnstableSlot &s = sh.unstable[i];
        if (s.epoch == 0) {
            if (insert_at == npos)
                insert_at = i;
            return npos; // end of chain: not in this pass's tree
        }
        if (s.epoch == pass_epoch_) {
            if (s.digest == digest)
                return i;
        } else if (insert_at == npos) {
            insert_at = i; // stale/tombstone slot: reusable
        }
    }
}

inline void
KsmScanner::unstableInsert(ShardState &sh, std::size_t insert_at,
                           std::uint64_t digest, VmId vm, Gfn gfn)
{
    // Keep at least ~30% never-used slots so probe chains terminate
    // quickly; the check runs only when this insert would consume an
    // empty slot, so a steady-state pass over unchanged memory
    // re-inserts into the previous pass's (now stale) slots without
    // ever allocating or rehashing.
    if (sh.unstable[insert_at].epoch == 0) {
        if ((sh.occupied + 1) * 10 >= sh.unstable.size() * 7) {
            std::size_t cap = sh.unstable.size();
            while (cap < 4 * (sh.live + 1))
                cap *= 2;
            unstableRehash(sh, cap);
            // Re-derive the insert position in the rehashed table
            // (all remaining slots are live entries of this pass).
            const std::size_t m2 = sh.unstable.size() - 1;
            insert_at = unstableSlotHash(digest) & m2;
            while (sh.unstable[insert_at].epoch != 0)
                insert_at = (insert_at + 1) & m2;
        }
        ++sh.occupied;
    }
    sh.unstable[insert_at] = UnstableSlot{digest, pass_epoch_, vm, gfn};
    ++sh.live;
}

bool
KsmScanner::cursorNext()
{
    const std::size_t nvms = hv_.vmCount();
    for (;;) {
        if (cur_vm_ >= nvms)
            return false; // end of a full pass over mergeable memory
        const hv::Vm &v = hv_.vm(cur_vm_);
        if (!v.mergeable || cur_gfn_ >= v.ept.size()) {
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
    if (!cfg_.usePml) {
        // Clearing the unstable tree is one epoch bump: last pass's
        // entries go stale in place and their slots are reused by the
        // next pass's inserts.
        ++pass_epoch_;
        for (ShardState &sh : shards_)
            sh.live = 0;
    } else {
        // Log-driven passes keep the unstable table *persistent*: an
        // unvisited calm page stays represented by the entry its last
        // visit inserted, so a newly dirty page can still meet it —
        // exactly the pairing the walk re-establishes by re-inserting
        // every calm page each pass. Entries are content-verified on
        // every hit, so staleness costs a replaced slot, never a
        // wrong merge.
        for (std::size_t i = 0; i < pml_.size(); ++i) {
            PmlVmQueue &q = pml_[i];
            if (!q.walkThisPass && hv_.vm(static_cast<VmId>(i)).mergeable) {
                // What the walk would have visited minus what the log
                // delivered: the pages this pass proved skippable.
                const std::uint64_t res =
                    hv_.vm(static_cast<VmId>(i)).residentPages;
                if (res > q.visitedThisPass)
                    stat_pml_skipped_ += res - q.visitedThisPass;
            }
            q.walkThisPass = q.walkNextPass;
            q.walkNextPass = false;
            // Rotate the queues: next pass visits the carried-over
            // work (ring entries that landed behind the cursor plus
            // owed not-calm revisits), sorted into cursor order and
            // deduplicated so no page is visited twice in one pass.
            q.current.swap(q.next);
            q.next.clear();
            std::sort(q.current.begin(), q.current.end());
            q.current.erase(
                std::unique(q.current.begin(), q.current.end()),
                q.current.end());
            if (q.walkThisPass)
                q.current.clear(); // the walk covers everything
            // Cross-pass revisits never outlive their pass: either the
            // cursor consumed them, or a mid-pass overflow switched
            // the VM to a walk that covered them.
            q.injected.clear();
            q.curIdx = 0;
            q.injIdx = 0;
            q.visitedThisPass = 0;
        }
    }
    if (TraceBuffer *t = hv_.trace())
        t->record(TraceEventType::KsmFullScan, invalidVm, full_scans_,
                  merges_total_);
}

void
KsmScanner::visitLookahead(const hv::Vm &v, const PageScanState *psv,
                           Gfn gfn, Gfn gfn_end,
                           const mem::FrameTable &ft) const
{
    // The two random-access lines of a steady-state visit — the
    // frame's write generation (indexed by hfn) and the unstable-table
    // slot (indexed by digest hash) — are prefetched a few pages ahead
    // from the sequentially walked EPT and page-state rows, hiding
    // their miss latency behind the visits in between. Pure hints: the
    // scan itself never depends on them.
    constexpr Gfn prefetchDist = 16;
    if (gfn + prefetchDist >= gfn_end)
        return;
    const hv::EptEntry &pe = v.ept.entry(gfn + prefetchDist);
    if (pe.state == hv::PageState::Resident)
        ft.prefetchWriteGen(pe.backing);
    const PageScanState &pps = psv[gfn + prefetchDist];
    if (pps.digestValid) {
        // Two lines: collision chains average a couple of slots, and a
        // 32-byte slot at an odd index walks into the next line
        // immediately. rw=1 because the common case re-inserts into
        // the probed chain.
        prefetchUnstableSlot(pps.lastDigest);
    }
}

bool
KsmScanner::advanceCursor()
{
    if (hv_.vmCount() == 0)
        return false;
    if (!cursorNext()) {
        passBoundary();
        return false;
    }
    return true;
}

std::uint64_t
KsmScanner::scanBatch()
{
    if (hv_.vmCount() == 0)
        return 0;
    if (cfg_.usePml)
        return scanBatchSerialPml();
    if (shards_.size() > 1)
        return scanBatchSharded();
    return scanBatchSerial();
}

std::uint64_t
KsmScanner::scanBatchSerial()
{
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
        PageScanState *psv = pageStateRow(cur_vm_, v);
        const Gfn gfn_end = v.ept.size();
        while (cur_gfn_ < gfn_end && visited < cfg_.pagesToScan) {
            visitLookahead(v, psv, cur_gfn_, gfn_end, ft);
            if (scanOne(cur_vm_, cur_gfn_, v, ft, psv))
                ++visited;
            ++cur_gfn_;
        }
    }
    stat_pages_visited_ += visited;
    return visited;
}

void
KsmScanner::prefetchUnstableSlot(std::uint64_t digest) const
{
    const auto &pun = shards_[shardFor(digest)].unstable;
    const std::size_t h = unstableSlotHash(digest) & (pun.size() - 1);
    __builtin_prefetch(pun.data() + h, 1);
    __builtin_prefetch(pun.data() + ((h + 2) & (pun.size() - 1)), 1);
}

void
KsmScanner::stageWindow(const mem::FrameTable &ft, KernelStage &ks) const
{
    const std::size_t n = ks.count();
    ks.pre.assign(n, BatchPre{});
    ks.data.assign(n, nullptr);
    ks.hfns.resize(n);
    ks.gens.resize(n);
    ks.sumPages.clear();
    ks.sumLane.clear();
    ks.digPages.clear();
    ks.digLane.clear();
    ks.calmIdx.clear();
    ks.needyIdx.clear();

    // Pass 0: mirror each visit's settle checks — huge skip, then the
    // generation test against per-page state only that visit may
    // mutate — touching nothing but the compact generation lane. A
    // settled revisit never loads its frame, so the frame lines are
    // prefetched only for the survivors; pulling them for every item
    // would trash the cache on converged passes where nearly all of
    // the window settles.
    for (std::size_t k = 0; k < n; ++k) {
        const hv::Vm &v = *ks.vms[k];
        const Gfn gfn = ks.gfns[k];
        if (!v.hugePages.empty() && v.hugePages[gfn]) {
            ks.hfns[k] = invalidFrame; // the visit never loads content
            continue;
        }
        const Hfn hfn = v.ept.entry(gfn).backing;
        ks.hfns[k] = hfn;
        const std::uint64_t gen = ft.writeGen(hfn);
        ks.gens[k] = gen;
        const PageScanState &ps = ks.rows[k][gfn];
        if (cfg_.incrementalScan && ps.lastGen == gen &&
            (ps.lastStable || ps.digestValid)) {
            // Settled without content: a stable page's visit ends at
            // the generation check, and a digestValid one only needs
            // its unstable-table slot for the tree work.
            if (!ps.lastStable)
                prefetchUnstableSlot(ps.lastDigest);
            continue;
        }
        ks.needyIdx.push_back(static_cast<std::uint32_t>(k));
        ft.prefetchFrame(hfn);
    }

    // Pass 1: mirror the surviving visits' decision trees (read-only,
    // against state frozen until each visit runs) down to their first
    // content computation, and stage the checksum lanes. The frame
    // reads here are what pass 0's prefetches cover.
    for (const std::uint32_t k : ks.needyIdx) {
        const Hfn hfn = ks.hfns[k];
        const std::uint64_t gen = ks.gens[k];
        const PageScanState &ps = ks.rows[k][ks.gfns[k]];
        if (cfg_.incrementalScan && ps.lastGen == gen) {
            // Gen-calm first revisit: the visit wants the digest.
            const mem::PageData *d = &ft.frame(hfn).data;
            ks.data[k] = d;
            if (d->isZero()) {
                // Zero-page fast path: the constants fold at compile
                // time, no kernel lane spent.
                ks.pre[k].dig = mem::zeroPageDigest;
                ks.pre[k].hasDig = true;
            } else {
                ks.digPages.push_back(d);
                ks.digLane.push_back(k);
            }
        } else {
            const mem::Frame &frame = ft.frame(hfn);
            if (frame.ksmStable)
                continue; // stable fast path: no content work
            const mem::PageData *d = &frame.data;
            ks.data[k] = d;
            ks.calmIdx.push_back(k);
            if (d->isZero()) {
                ks.pre[k].sum = mem::zeroPageChecksum;
                ks.pre[k].hasSum = true;
            } else {
                ks.sumPages.push_back(d);
                ks.sumLane.push_back(k);
            }
        }
    }

    // Pass 2: the checksum kernel.
    if (!ks.sumPages.empty()) {
        ks.sums.resize(ks.sumPages.size());
        mem::checksumBatch(ks.sumPages.data(), ks.sums.data(),
                           ks.sumPages.size());
        for (std::size_t i = 0; i < ks.sumPages.size(); ++i) {
            ks.pre[ks.sumLane[i]].sum = ks.sums[i];
            ks.pre[ks.sumLane[i]].hasSum = true;
        }
    }

    // Pass 3: calm prediction — the same compare the visit will make,
    // against per-page state only that visit may mutate — staging the
    // digest lanes for pages that will pass it.
    for (const std::uint32_t k : ks.calmIdx) {
        const PageScanState &ps = ks.rows[k][ks.gfns[k]];
        if (!(ps.checksumValid && ps.lastChecksum == ks.pre[k].sum))
            continue; // not calm: the visit stops at the checksum
        const mem::PageData *d = ks.data[k];
        if (d->isZero()) {
            ks.pre[k].dig = mem::zeroPageDigest;
            ks.pre[k].hasDig = true;
        } else {
            ks.digPages.push_back(d);
            ks.digLane.push_back(k);
        }
    }

    // Pass 4: the digest kernel (gen-calm and freshly-calm needs).
    if (!ks.digPages.empty()) {
        ks.digs.resize(ks.digPages.size());
        mem::digestBatch(ks.digPages.data(), ks.digs.data(),
                         ks.digPages.size());
        for (std::size_t i = 0; i < ks.digPages.size(); ++i) {
            ks.pre[ks.digLane[i]].dig = ks.digs[i];
            ks.pre[ks.digLane[i]].hasDig = true;
        }
    }

    // Pass 5: with the window's actual digests in hand, hint the
    // unstable-table slots the commits are about to probe. A cold
    // page's first calm visit has no digest recorded from last pass,
    // so this is the only hint it gets, from the value the probe will
    // really use. Pure hints: a commit growing the table only makes
    // them stale, never wrong.
    for (std::size_t k = 0; k < n; ++k)
        if (ks.pre[k].hasDig)
            prefetchUnstableSlot(ks.pre[k].dig);
}

bool
KsmScanner::stableProbeCleanMiss(const mem::FrameTable &ft,
                                 const mem::PageData &data,
                                 std::uint64_t digest) const
{
    const ShardState &sh = shards_[shardFor(digest)];
    const auto bucket = sh.stableTree.find(digest);
    if (bucket == sh.stableTree.end())
        return true;
    for (const Hfn hfn : bucket->second) {
        if (!ft.isAllocated(hfn) || !ft.frame(hfn).ksmStable ||
            !(ft.frame(hfn).data == data))
            return false; // stale: a real lookup would prune here
        if (ft.frame(hfn).refcount >= cfg_.maxPageSharing)
            continue; // full: a real lookup skips it and walks on
        return false; // acceptable node: a real lookup would merge
    }
    return true;
}

void
KsmScanner::classifyOne(Gfn gfn, const hv::Vm &v,
                        const mem::FrameTable &ft,
                        const PageScanState *psv, PageSnap &snap,
                        const BatchPre &pre) const
{
    // Residency was established by the collect walk and is frozen for
    // the batch (the scanner never allocates, evicts or discards), so
    // this mirrors the serial decision tree from the huge-page check
    // down — reading, never writing. The per-page state is safe to
    // read here because only a page's own visit mutates it, and this
    // page's commit has not run yet.
    if (!v.hugePages.empty() && v.hugePages[gfn]) {
        snap.kind = PageSnap::Kind::Huge;
        return;
    }

    const Hfn hfn = v.ept.entry(gfn).backing;
    const std::uint64_t gen = ft.writeGen(hfn);
    const PageScanState &ps = psv[gfn];
    snap.gen = gen;

    std::uint64_t digest;
    if (cfg_.incrementalScan && ps.lastGen == gen) {
        if (ps.lastStable) {
            snap.kind = PageSnap::Kind::GenStable;
            return;
        }
        snap.kind = PageSnap::Kind::GenCalm;
        if (ps.digestValid) {
            digest = ps.lastDigest;
        } else {
            digest = pre.hasDig ? pre.dig : ft.frame(hfn).data.digest();
            snap.digest = digest;
            snap.hasDigest = true;
        }
        // Commit re-evaluates the serial epoch-skip rule against the
        // then-current epoch; probing here would be wasted work when
        // the skip is going to hold.
        if (ps.lastStableEpoch != 0 &&
            ps.lastStableEpoch == ft.ksmStableEpoch(digest))
            return;
    } else {
        if (ft.frame(hfn).ksmStable) {
            snap.kind = PageSnap::Kind::SlowStable;
            return;
        }
        const mem::PageData &data = ft.frame(hfn).data;
        const std::uint32_t sum = pre.hasSum ? pre.sum : data.checksum();
        snap.checksum = sum;
        snap.hasChecksum = true;
        if (!(ps.checksumValid && ps.lastChecksum == sum)) {
            snap.kind = PageSnap::Kind::NotCalm;
            return;
        }
        snap.kind = PageSnap::Kind::SlowCalm;
        digest = pre.hasDig ? pre.dig : data.digest();
        snap.digest = digest;
        snap.hasDigest = true;
    }

    // Read-only stable probe. Only a clean miss is recorded: any
    // other outcome (a hit, or a chain with stale nodes to prune) has
    // side effects the commit must replay against the live tree.
    snap.probeCleanMiss =
        stableProbeCleanMiss(ft, ft.frame(hfn).data, digest);
    snap.probeEpoch = ft.ksmStableEpoch(digest);
}

void
KsmScanner::classifyRange(const mem::FrameTable &ft, std::size_t begin,
                          std::size_t end)
{
    // Software-pipelined: stage a window of items through the
    // lane-parallel kernels, then classify each on the precomputed
    // values. The stage is local: workers run concurrently and snaps_
    // rows don't overlap.
    VmId last_vm = invalidVm;
    const hv::Vm *v = nullptr;
    const PageScanState *psv = nullptr;
    const hv::Hypervisor &chv = hv_;
    KernelStage ks;
    for (std::size_t i = begin; i < end;) {
        const std::size_t wend = std::min(end, i + kernelWindow);
        ks.clearWindow();
        for (std::size_t j = i; j < wend; ++j) {
            const WorkItem w = work_[j];
            if (w.vm != last_vm) {
                v = &chv.vm(w.vm);
                psv = page_state_[w.vm].data();
                last_vm = w.vm;
            }
            ks.push(v, psv, w.gfn);
        }
        stageWindow(ft, ks);
        for (std::size_t j = i; j < wend; ++j) {
            const std::size_t k = j - i;
            classifyOne(work_[j].gfn, *ks.vms[k], ft, ks.rows[k],
                        snaps_[j], ks.pre[k]);
        }
        i = wend;
    }
}

void
KsmScanner::commitResidual(VmId vm, Gfn gfn, const hv::Vm &v,
                           mem::FrameTable &ft, PageScanState *psv,
                           const PageSnap &snap, bool gen_moved)
{
    if (snap.kind == PageSnap::Kind::Huge) {
        // hugePages flags are frozen for the batch: always valid.
        ++stat_skipped_huge_;
        return;
    }
    if (gen_moved) {
        // An earlier promotion moved the frame since classify: nothing
        // recorded in the snap is provable any more, so run the full
        // serial visit.
        ++stat_commit_replays_;
        scanOne(vm, gfn, v, ft, psv);
        return;
    }

    // The write generation seen by classify still holds, so the snap
    // is exactly what the serial visit would have computed, and the
    // replay below performs its mutations verbatim (compare scanOne()).
    PageScanState &ps = psv[gfn];
    if (snap.kind == PageSnap::Kind::GenStable) {
        ++stat_gen_skipped_;
        return;
    }
    if (snap.kind == PageSnap::Kind::SlowStable) {
        if (cfg_.incrementalScan) {
            ps.lastGen = snap.gen;
            ps.lastStable = true;
            ps.digestValid = false;
            ps.lastStableEpoch = 0;
        }
        return;
    }
    // Not calm (candidates commit in their shard): slowPathContent
    // re-derives calm from the frozen ps against the checksum classify
    // computed from the same state, so the verdict always matches.
    jtps_assert(snap.kind == PageSnap::Kind::NotCalm);
    const Hfn hfn = v.ept.entry(gfn).backing;
    const mem::PageData *data = &ft.frame(hfn).data;
    std::uint64_t digest = 0;
    const bool calm =
        slowPathContent(ft, hfn, snap.gen, ps, data, &snap.checksum,
                        nullptr, stat_digest_cache_hits_, digest);
    jtps_assert(!calm);
    ++stat_not_calm_;
}

std::uint64_t
KsmScanner::scanBatchSharded()
{
    // ---- Collect: replicate the serial cursor walk read-only,
    // building the batch's work list in serial visit order. Like the
    // serial loop, only resident pages consume scan budget, and a
    // pass boundary ends the batch (processed after the commits so
    // the KsmFullScan trace event sees this batch's merges).
    work_.clear();
    std::uint64_t visited = 0;
    bool boundary = false;
    while (visited < cfg_.pagesToScan) {
        if (!cursorNext()) {
            boundary = true;
            break;
        }
        const hv::Vm &v = hv_.vm(cur_vm_);
        // Size this VM's page-state row now, single-threaded, so the
        // classify workers only ever index into settled storage.
        pageStateRow(cur_vm_, v);
        const Gfn gfn_end = v.ept.size();
        while (cur_gfn_ < gfn_end && visited < cfg_.pagesToScan) {
            if (v.ept.entry(cur_gfn_).state == hv::PageState::Resident) {
                work_.push_back(WorkItem{cur_vm_, cur_gfn_});
                ++visited;
            }
            ++cur_gfn_;
        }
    }

    // ---- Classify: fan fixed-size shards out to the pool. Workers
    // only read (frozen frame table, EPTs, per-page state) and only
    // write their own snaps_ range; determinism needs no ordering
    // here because commit ignores completion order entirely.
    mem::FrameTable &ft = hv_.frames();
    if (!work_.empty()) {
        snaps_.assign(work_.size(), PageSnap{});
        if (!pool_)
            pool_ = std::make_unique<ThreadPool>(
                static_cast<unsigned>(shards_.size()));
        const std::size_t shard =
            std::max<std::size_t>(1, cfg_.scanShardPages);
        const mem::FrameTable &cft = ft;
        std::uint64_t shards = 0;
        for (std::size_t begin = 0; begin < work_.size();
             begin += shard) {
            const std::size_t end =
                std::min(work_.size(), begin + shard);
            ++shards;
            pool_->submit(
                [this, &cft, begin, end] { classifyRange(cft, begin, end); });
        }
        pool_->wait();
        stat_scan_shards_ += shards;
    }

    commitSharded(ft);
    if (boundary)
        passBoundary();
    stat_pages_visited_ += visited;
    return visited;
}

void
KsmScanner::commitSharded(mem::FrameTable &ft)
{
    const unsigned S = static_cast<unsigned>(shards_.size());
    if (shard_work_.size() != S)
        shard_work_.resize(S);
    for (ShardWork &sw : shard_work_) {
        sw.items.clear();
        sw.ops.clear();
        sw.counters = ShardCounters{};
    }
    residual_.clear();

    // ---- Partition (serial): merge candidates go to their digest's
    // shard — equal content means equal digest, so everything a
    // candidate can interact with (tree chains, unstable entries,
    // merge targets, promotion sources) lives in the same shard.
    // Everything else joins the residual stream for the reduce.
    Hfn max_hfn = 0;
    bool have_candidates = false;
    for (std::size_t i = 0; i < work_.size(); ++i) {
        const PageSnap &snap = snaps_[i];
        if (snap.kind == PageSnap::Kind::GenCalm ||
            snap.kind == PageSnap::Kind::SlowCalm) {
            ++stat_precheck_candidates_;
            const WorkItem w = work_[i];
            // SlowCalm snaps always carry the digest; a GenCalm snap
            // without one proves the per-page cache holds it.
            const std::uint64_t digest =
                snap.hasDigest ? snap.digest
                               : page_state_[w.vm][w.gfn].lastDigest;
            shard_work_[shardFor(digest)].items.push_back(
                static_cast<std::uint32_t>(i));
            max_hfn = std::max(max_hfn,
                               hv_.vm(w.vm).ept.entry(w.gfn).backing);
            have_candidates = true;
        } else {
            residual_.push_back(static_cast<std::uint32_t>(i));
        }
    }

    std::size_t mx = 0;
    std::size_t mn = work_.size();
    for (const ShardWork &sw : shard_work_) {
        mx = std::max(mx, sw.items.size());
        mn = std::min(mn, sw.items.size());
    }
    const std::uint64_t imb = static_cast<std::uint64_t>(mx - mn);
    if (imb > shard_imbalance_max_) {
        shard_imbalance_max_ = imb;
        stat_shard_imbalance_ = imb;
    }

    // Pre-size the frame memo serially: shard jobs memoise their own
    // candidates' frames and must never grow the vector concurrently.
    if (have_candidates)
        frameMemo(max_hfn);

    // ---- Shard jobs: each replays its candidates in ascending work
    // index against its own index slices, epoch stripes and
    // generation lane, logging cross-shard effects.
    for (unsigned s = 0; s < S; ++s) {
        if (shard_work_[s].items.empty())
            continue;
        pool_->submit([this, &ft, s] { shardCommitItems(ft, s); });
    }
    if (have_candidates)
        pool_->wait();

    // ---- Reduce (serial): interleave the shard op logs with the
    // residual stream by work index and apply in exactly the order
    // the serial walk would have produced these effects.
    merged_ops_.clear();
    for (const ShardWork &sw : shard_work_)
        merged_ops_.insert(merged_ops_.end(), sw.ops.begin(),
                           sw.ops.end());
    std::sort(merged_ops_.begin(), merged_ops_.end(),
              [](const ShardOp &a, const ShardOp &b) {
                  return a.idx < b.idx;
              });
    bumped_.clear();
    VmId last_vm = invalidVm;
    const hv::Vm *v = nullptr;
    PageScanState *psv = nullptr;
    std::size_t oi = 0;
    std::size_t ri = 0;
    while (oi < merged_ops_.size() || ri < residual_.size()) {
        const bool take_op =
            ri >= residual_.size() ||
            (oi < merged_ops_.size() &&
             merged_ops_[oi].idx < residual_[ri]);
        if (take_op) {
            applyShardOp(merged_ops_[oi++], ft);
            continue;
        }
        const std::uint32_t i = residual_[ri++];
        const WorkItem w = work_[i];
        if (w.vm != last_vm) {
            v = &hv_.vm(w.vm);
            psv = page_state_[w.vm].data();
            last_vm = w.vm;
        }
        const PageSnap &snap = snaps_[i];
        // The serial walk sees the live write generation at this
        // item's turn. Here every shard promotion has already landed,
        // so decide from the applied-op record instead: only a
        // promotion with a smaller work index (already applied, hence
        // in bumped_) would have been visible serially.
        const bool gen_moved =
            snap.kind != PageSnap::Kind::Huge &&
            bumped_.count(v->ept.entry(w.gfn).backing) != 0;
        commitResidual(w.vm, w.gfn, *v, ft, psv, snap, gen_moved);
    }

    // ---- Fold the shard counters into the live stats, in shard
    // order (the totals are sums, so they match the serial walk).
    for (const ShardWork &sw : shard_work_) {
        stat_stale_stable_ += sw.counters.staleStable;
        stat_stale_unstable_ += sw.counters.staleUnstable;
        stat_gen_skipped_ += sw.counters.genSkipped;
        stat_digest_cache_hits_ += sw.counters.digestCacheHits;
        stat_commit_replays_ += sw.counters.commitReplays;
    }
}

void
KsmScanner::shardCommitItems(mem::FrameTable &ft, unsigned s)
{
    ShardState &sh = shards_[s];
    ShardWork &sw = shard_work_[s];
    const unsigned lane = s + 1; // write-generation lane (0 = serial)
    VmId last_vm = invalidVm;
    const hv::Vm *v = nullptr;
    PageScanState *psv = nullptr;
    for (const std::uint32_t idx : sw.items) {
        const WorkItem w = work_[idx];
        if (w.vm != last_vm) {
            v = &hv_.vm(w.vm);
            psv = page_state_[w.vm].data();
            last_vm = w.vm;
        }
        const PageSnap &snap = snaps_[idx];
        const Hfn hfn = v->ept.entry(w.gfn).backing;
        PageScanState &ps = psv[w.gfn];
        if (ft.writeGen(hfn) != snap.gen) {
            // The only mid-batch generation source a shard can see is
            // one of its own earlier promotions (equal content means
            // equal digest means same shard), which left the frame
            // stable — so the serial replay's scanOne() reduces to
            // its stable fast path, reproduced inline.
            ++sw.counters.commitReplays;
            jtps_assert(ft.frame(hfn).ksmStable);
            if (cfg_.incrementalScan) {
                ps.lastGen = ft.writeGen(hfn);
                ps.lastStable = true;
                ps.digestValid = false;
                ps.lastStableEpoch = 0;
            }
            continue;
        }

        const std::uint64_t gen = snap.gen;
        const mem::PageData *data = nullptr;
        std::uint64_t digest = 0;
        bool skip_stable_probe = false;
        if (snap.kind == PageSnap::Kind::GenCalm) {
            ++sw.counters.genSkipped;
            digest = genCalmDigest(ft, hfn, gen, ps, data,
                                   snap.hasDigest ? &snap.digest : nullptr,
                                   sw.counters.digestCacheHits,
                                   skip_stable_probe);
        } else { // SlowCalm — classify proved calm on the frozen ps.
            data = &ft.frame(hfn).data;
            const bool calm = slowPathContent(
                ft, hfn, gen, ps, data,
                snap.hasChecksum ? &snap.checksum : nullptr,
                snap.hasDigest ? &snap.digest : nullptr,
                sw.counters.digestCacheHits, digest);
            jtps_assert(calm);
        }

        shardTreeStage(sh, sw, lane, idx, w.vm, w.gfn, ft, ps, hfn,
                       digest, data, skip_stable_probe, &snaps_[idx]);
    }
}

void
KsmScanner::shardTreeStage(ShardState &sh, ShardWork &sw, unsigned lane,
                           std::uint32_t idx, VmId vm, Gfn gfn,
                           mem::FrameTable &ft, PageScanState &ps,
                           Hfn hfn, std::uint64_t digest,
                           const mem::PageData *data,
                           bool skip_stable_probe, const PageSnap *snap)
{
    // Mirror of treeStage() against the shard's own slices, with every
    // cross-shard effect executed through the frame table's deferred
    // protocol and logged for the reduce. usePml never reaches here
    // (sharding collapses to 1), so its branches are omitted.
    if (!skip_stable_probe) {
        if (snap && snap->probeCleanMiss &&
            snap->probeEpoch == ft.ksmStableEpoch(digest)) {
            ps.lastStableEpoch = ft.ksmStableEpoch(digest);
        } else {
            if (!data)
                data = &ft.frame(hfn).data;
            const Hfn stable =
                stableLookup(sh, *data, digest, sw.counters.staleStable);
            if (stable != invalidFrame) {
                ShardOp op{};
                op.idx = idx;
                op.vm = vm;
                op.gfn = gfn;
                op.stable = stable;
                if (hv_.ksmMergeIntoShard(stable, vm, gfn,
                                          &op.freedSource,
                                          &op.source)) {
                    op.merged = true;
                    sw.ops.push_back(op);
                }
                return;
            }
            ps.lastStableEpoch = ft.ksmStableEpoch(digest);
        }
    }

    // Unstable slice: the same one-walk lookup/insert as treeStage().
    std::size_t insert_at = npos;
    const std::size_t slot = unstableFind(sh, digest, insert_at);
    if (slot != npos) {
        UnstableSlot &u = sh.unstable[slot];
        if (u.vm == vm && u.gfn == gfn)
            return; // same page revisited
        if (!data)
            data = &ft.frame(hfn).data;
        const mem::PageData *other = hv_.peek(u.vm, u.gfn);
        const bool entry_stale = other == nullptr || !(*other == *data);
        if (entry_stale) {
            u.vm = vm;
            u.gfn = gfn;
            ++sw.counters.staleUnstable;
            return;
        }
        ShardOp op{};
        op.idx = idx;
        op.vm = vm;
        op.gfn = gfn;
        op.promotion = true;
        const Hfn fresh = hv_.ksmMakeStableShard(u.vm, u.gfn, digest,
                                                 lane, &op.transitioned,
                                                 &op.refcountAtSet);
        jtps_assert(fresh != invalidFrame);
        op.stable = fresh;
        sh.stableTree[digest].push_back(fresh);
        u.epoch = tombstoneEpoch;
        --sh.live;
        if (hv_.ksmMergeIntoShard(fresh, vm, gfn, &op.freedSource,
                                  &op.source))
            op.merged = true;
        if (op.transitioned || op.merged)
            sw.ops.push_back(op);
        return;
    }

    unstableInsert(sh, insert_at, digest, vm, gfn); // slice-local growth
}

void
KsmScanner::applyShardOp(const ShardOp &op, mem::FrameTable &ft)
{
    // Effects land in the serial walk's exact order for this item:
    // the promotion's bookkeeping first (setKsmStable's counters),
    // then the merge's unmap/map/touch/stat/trace sequence.
    if (op.promotion && op.transitioned) {
        ft.commitStablePromote(op.stable, op.refcountAtSet);
        bumped_.insert(op.stable);
    }
    if (!op.merged)
        return;
    if (op.freedSource)
        ft.finishDeferredFree(op.source);
    ft.commitSharingAdd(op.stable);
    ft.touch(op.stable);
    ++stat_hv_ksm_merges_;
    ++merges_this_pass_;
    ++merges_total_;
    ++(op.promotion ? stat_unstable_promotions_ : stat_stable_merges_);
    if (TraceBuffer *t = hv_.trace())
        t->record(op.promotion ? TraceEventType::KsmUnstablePromotion
                               : TraceEventType::KsmStableMerge,
                  op.vm, op.gfn, op.stable);
}

KsmScanner::PmlVmQueue &
KsmScanner::pmlQueue(VmId vm)
{
    if (vm >= pml_.size())
        pml_.resize(
            std::max<std::size_t>(hv_.vmCount(), vm + std::size_t{1}));
    return pml_[vm];
}

void
KsmScanner::pmlRequeue(VmId vm, Gfn gfn)
{
    pmlQueue(vm).next.push_back(gfn);
}

void
KsmScanner::pmlScheduleThisPass(VmId vm, Gfn gfn)
{
    // Called from the unstable tree stage for a page strictly ahead of
    // the visit being processed — hence ahead of the cursor: its
    // pairing with the candidate must be established at the page's own
    // canonical position, like the walk.
    PmlVmQueue &q = pmlQueue(vm);
    if (q.walkThisPass)
        return; // the fallback walk reaches it at its own position
    // Insert into the VM's injected lane in cursor order; the pass's
    // remaining batches consume it outside the pagesToScan budget.
    const auto lo =
        q.injected.begin() + static_cast<std::ptrdiff_t>(q.injIdx);
    const auto it = std::lower_bound(lo, q.injected.end(), gfn);
    if (it != q.injected.end() && *it == gfn)
        return;
    q.injected.insert(it, gfn);
}

void
KsmScanner::pmlDrain()
{
    // Guest mutators only run between scanner batches, so every ring
    // entry (and every entry a full ring dropped) was appended while
    // the cursor sat exactly where it is now. That makes the
    // ahead/behind split below an exact reproduction of the walk's
    // visit schedule: a write the walk's cursor has yet to reach is
    // seen this pass, one it already passed is seen next pass.
    const std::size_t nvms = hv_.vmCount();
    // Size the queue table up front: mid-scan scheduling must never
    // reallocate it under a live queue reference.
    if (pml_.size() < nvms)
        pml_.resize(nvms);
    for (VmId vm = 0; vm < nvms; ++vm) {
        const std::vector<hv::PmlEntry> &ring = hv_.pmlEntries(vm);
        const bool overflow = hv_.pmlOverflowed(vm);
        if (ring.empty() && !overflow)
            continue;
        if (!hv_.vm(vm).mergeable) {
            // Unscanned memory: keep the ring bounded, queue nothing.
            hv_.pmlResetRing(vm);
            continue;
        }
        PmlVmQueue &q = pmlQueue(vm);
        if (overflow) {
            // Dropped entries make the log incomplete. Lost writes
            // ahead of the cursor are what this pass's remaining walk
            // over the VM would see; lost writes behind it belong to
            // the next pass. Degrade exactly that far.
            q.walkNextPass = true;
            if (vm >= cur_vm_)
                q.walkThisPass = true;
        }
        if (q.walkThisPass) {
            // The walk covers everything at or ahead of the cursor;
            // only behind-entries still carry next-pass information.
            for (const hv::PmlEntry &e : ring) {
                if (vm < cur_vm_ ||
                    (vm == cur_vm_ && e.gfn < cur_gfn_))
                    q.next.push_back(e.gfn);
            }
            hv_.pmlResetRing(vm);
            continue;
        }
        pml_pending_.clear();
        for (const hv::PmlEntry &e : ring) {
            const bool behind =
                vm < cur_vm_ || (vm == cur_vm_ && e.gfn < cur_gfn_);
            if (behind)
                q.next.push_back(e.gfn);
            else
                pml_pending_.push_back(e.gfn);
        }
        hv_.pmlResetRing(vm);
        if (!pml_pending_.empty()) {
            // Merge the fresh ahead-entries into the unconsumed tail
            // of the current queue, keeping it sorted and duplicate
            // free (every remaining entry is >= cur_gfn_, as are all
            // ahead-entries, so one sort of the whole tail is safe).
            q.current.erase(q.current.begin(),
                            q.current.begin() +
                                static_cast<std::ptrdiff_t>(q.curIdx));
            q.curIdx = 0;
            q.current.insert(q.current.end(), pml_pending_.begin(),
                             pml_pending_.end());
            std::sort(q.current.begin(), q.current.end());
            q.current.erase(
                std::unique(q.current.begin(), q.current.end()),
                q.current.end());
        }
    }
}

std::uint64_t
KsmScanner::scanBatchSerialPml()
{
    pmlDrain();
    mem::FrameTable &ft = hv_.frames();
    std::uint64_t visited = 0;
    while (visited < cfg_.pagesToScan) {
        if (cur_vm_ >= hv_.vmCount()) {
            passBoundary();
            break;
        }
        const hv::Vm &v = hv_.vm(cur_vm_);
        if (!v.mergeable) {
            ++cur_vm_;
            cur_gfn_ = 0;
            continue;
        }
        PmlVmQueue &q = pmlQueue(cur_vm_);
        PageScanState *psv = pageStateRow(cur_vm_, v);
        if (q.walkThisPass) {
            // Overflow fallback: the plain generation walk of this VM,
            // plus the owed-revisit bookkeeping a queue-driven next
            // pass will need.
            const Gfn gfn_end = v.ept.size();
            while (cur_gfn_ < gfn_end && visited < cfg_.pagesToScan) {
                const std::uint64_t nc_before = stat_not_calm_;
                if (scanOne(cur_vm_, cur_gfn_, v, ft, psv)) {
                    ++visited;
                    ++q.visitedThisPass;
                }
                if (stat_not_calm_ != nc_before)
                    pmlRequeue(cur_vm_, cur_gfn_);
                ++cur_gfn_;
            }
            if (cur_gfn_ >= gfn_end) {
                ++cur_vm_;
                cur_gfn_ = 0;
            }
            continue;
        }
        while (visited < cfg_.pagesToScan) {
            // Merge-consume the dirty queue and the injected lane in
            // cursor order. Injected visits are budget-exempt but count
            // as visits everywhere else.
            const bool has_cur = q.curIdx < q.current.size();
            const bool has_inj = q.injIdx < q.injected.size();
            if (!has_cur && !has_inj)
                break;
            Gfn g;
            bool from_injected;
            if (!has_inj ||
                (has_cur && q.current[q.curIdx] <= q.injected[q.injIdx])) {
                g = q.current[q.curIdx++];
                from_injected = false;
            } else {
                g = q.injected[q.injIdx++];
                from_injected = true;
            }
            if (g < cur_gfn_ || g >= v.ept.size())
                continue; // already visited this pass, or discarded
            const std::uint64_t nc_before = stat_not_calm_;
            if (scanOne(cur_vm_, g, v, ft, psv)) {
                ++q.visitedThisPass;
                if (from_injected)
                    ++stat_pages_visited_;
                else
                    ++visited;
            }
            if (stat_not_calm_ != nc_before)
                pmlRequeue(cur_vm_, g);
            cur_gfn_ = g + 1;
        }
        if (q.curIdx >= q.current.size() &&
            q.injIdx >= q.injected.size()) {
            ++cur_vm_;
            cur_gfn_ = 0;
        }
    }
    stat_pages_visited_ += visited;
    return visited;
}

void
KsmScanner::attach(sim::EventQueue &queue)
{
    attached_ = true;
    queue.schedulePeriodic(cfg_.sleepMillisecs, [this]() {
        if (!attached_)
            return false;
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

double
KsmScanner::cpuUsage() const
{
    const double busy_us = cfg_.pagesToScan * cfg_.scanCostUs;
    const double period_us =
        static_cast<double>(cfg_.sleepMillisecs) * 1000.0;
    return busy_us / (busy_us + period_us);
}

} // namespace jtps::ksm
