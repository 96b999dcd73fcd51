/**
 * @file
 * Kernel Samepage Merging (KSM) — the TPS implementation used by KVM in
 * the paper (Arcangeli, Eidus & Wright, "Increasing memory density by
 * using KSM", OLS 2009).
 *
 * The model follows the real algorithm:
 *
 *  - The scanner wakes every `sleepMillisecs`, scans `pagesToScan`
 *    candidate pages (round-robin across all mergeable guest memory),
 *    then sleeps. Both knobs are the tunables the paper adjusts (10,000
 *    pages during warm-up at ~25% CPU, then 1,000 pages at ~2%).
 *  - A page whose 32-bit checksum changed since the last visit is "not
 *    calm" and is skipped — this is what keeps GC-churned Java heap
 *    pages from being merged, and why only *stable* zero pages share.
 *  - Calm pages are looked up in the *stable tree* (already-shared KSM
 *    pages indexed by content). A hit merges the candidate into the
 *    stable frame copy-on-write.
 *  - Otherwise the *unstable tree* (rebuilt every full scan) is
 *    searched; a content match promotes the pair to a new stable node.
 *
 * Stale stable-tree nodes (frame freed or COW-diverged) are pruned
 * lazily on lookup, as in the real implementation.
 *
 * Unlike ksmd's red-black trees, both structures here are hash indexes
 * keyed by the 64-bit content digest (ESX finds sharing candidates the
 * same way — Waldspurger, "Memory Resource Management in VMware ESX
 * Server", OSDI 2002): one probe per visited page instead of O(log n)
 * 64-byte lexicographic compares. The full 8-word compare still runs
 * on every bucket hit, so a digest collision can only cost a missed
 * merge, never a wrong one.
 *
 * Incremental scanning (docs/PERF.md): every host frame carries a
 * write generation (mem::FrameTable::writeGen()) that changes on every
 * possible content change and on every stable-flag transition. The
 * scanner records, per guest page, the generation it saw at the last
 * completed visit; when the generation is unchanged the page is
 * *provably* resident, non-stable and calm — the Frame is not even
 * loaded, the checksum compare is skipped, the content digest is
 * served from the per-page cache (falling back to a per-frame memo),
 * and the stable-tree probe is skipped while the table-wide stable
 * epoch proves a past miss still holds. Skipping is gated only on
 * generation/epoch equality, never on content heuristics, so merge
 * behaviour and every counter are identical to a from-scratch scan
 * (KsmConfig::incrementalScan = false gives that reference mode; the
 * property tests drive both side by side).
 *
 * Scan loops (docs/ARCHITECTURE.md §3): every batch runs through
 * exactly one of three loops — the serial walk (scanBatchSerial), the
 * serial log-driven pass (scanBatchSerialPml, KsmConfig::usePml), or,
 * with KsmConfig::commitShards = S >= 2, the sharded pipeline
 * (scanBatchSharded, docs/PERF.md §9):
 *
 *  1. *Collect* walks the cursor and fixes the batch's work list in
 *     serial visit order.
 *  2. *Classify* fans that list out to the pool in fixed-size shards;
 *     workers do only read-only work against the frozen pre-batch
 *     state (generation checks, checksum/digest computation through
 *     the lane-parallel content kernels, stable-tree probes) and
 *     record a per-page verdict plus the expensive values.
 *  3. *Shard commits*: the stable and unstable indexes are partitioned
 *     into S digest-sharded slices (shard = digest mod S), so every
 *     merge candidate pair lands in one shard by construction — a
 *     candidate and whatever it can merge with hold identical content,
 *     hence identical digests. S independent jobs replay their
 *     candidates in canonical page order against their own slice of
 *     the trees, their own stable-epoch stripes (mem::FrameTable
 *     stripes them by digest, and S divides the stripe count) and
 *     their own write-generation lane, with all cross-shard effects —
 *     sharing counters, frame frees, touches, hv stats, trace records
 *     — captured in a per-shard op log.
 *  4. *Reduce* merges the S op logs with the non-candidate residual
 *     stream by global work index and applies them in exactly the
 *     serial order.
 *
 * A snapshot value is substituted only under a write-generation proof
 * that it is what the serial visit would have computed, and any page
 * whose frame moved mid-commit falls back to a full serial visit
 * (`ksm.commit_replays`). Merges, traces and documents are therefore
 * byte-identical to the serial walk at any shard count; only the
 * pipeline's own counters (`ksm.commit_shards`,
 * `ksm.shard_imbalance_max`, `ksm.scan_shards`,
 * `ksm.precheck_candidates`, `ksm.commit_replays`) depend on S.
 */

#ifndef JTPS_KSM_KSM_SCANNER_HH
#define JTPS_KSM_KSM_SCANNER_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/stats.hh"
#include "base/thread_pool.hh"
#include "base/types.hh"
#include "hv/hypervisor.hh"
#include "mem/page_data.hh"
#include "sim/event_queue.hh"

namespace jtps::ksm
{

/** Scanner tuning knobs (sysfs: /sys/kernel/mm/ksm/...). */
struct KsmConfig
{
    /** Pages to scan per wake (`pages_to_scan`). */
    std::uint32_t pagesToScan = 1000;
    /** Sleep between wakes in milliseconds (`sleep_millisecs`). */
    Tick sleepMillisecs = 100;
    /** Modelled scanner cost per visited page, microseconds. */
    double scanCostUs = 2.5;
    /**
     * Maximum mappings per stable frame (`max_page_sharing`): once a
     * stable page is shared this many times, further identical pages
     * start a *duplicate* stable frame (a chain), bounding the
     * reverse-mapping work per page. Mostly visible on the zero page.
     */
    std::uint32_t maxPageSharing = 256;
    /**
     * Use write-generation dirty tracking to skip content work on
     * unchanged pages. false = reference mode: recompute everything
     * every visit, exactly equivalent in merges and counters (only
     * `ksm.pages_gen_skipped` / `ksm.digest_cache_hits` stay zero);
     * used by the equivalence tests and the before/after micro bench.
     */
    bool incrementalScan = true;
    /**
     * Pages per classify shard of the sharded pipeline. Fixed (not
     * derived from commitShards) so the shard boundaries — and with
     * them `ksm.scan_shards` — are identical at every shard count.
     * Tests shrink it to force multi-shard batches on tiny memories.
     */
    std::uint32_t scanShardPages = 4096;
    /**
     * Drive passes from the hypervisor's PML rings instead of walking
     * every resident page: each batch drains the rings into per-VM
     * dirty queues and visits only logged pages (a VM whose ring
     * overflowed is walked in full instead, restoring completeness).
     * Requires hv::HostConfig::pmlRingSlots > 0. Merges, sharing
     * totals and merge/promotion trace events are byte-identical to
     * the generation walk (docs/PERF.md §6): skipping is gated on the
     * completeness of the dirty log plus the same write-generation
     * proofs, never on content heuristics. Visit-accounting counters
     * (`ksm.pages_visited`, `ksm.pages_gen_skipped`, ...) naturally
     * shrink to O(dirty); `ksm.pages_pml_skipped` counts the resident
     * pages each pass proved it could leave unvisited.
     */
    bool usePml = false;
    /**
     * Digest shards for the commit phase. With S >= 2 the stable and
     * unstable indexes are partitioned by digest mod S and every batch
     * runs the sharded pipeline (see the file comment) on a pool of S
     * workers: classify shards, then S independent shard commits, then
     * a serial order-preserving reduce. Must divide
     * mem::FrameTable::kStripes (64) so every stable-epoch stripe is
     * owned by exactly one shard. Byte-identical to 1 at any value;
     * only the pipeline counters (`ksm.commit_shards`,
     * `ksm.shard_imbalance_max`, `ksm.scan_shards`,
     * `ksm.precheck_candidates`, `ksm.commit_replays`) depend on it.
     * Ignored (treated as 1) under usePml, whose ring/queue
     * bookkeeping is serial.
     */
    unsigned commitShards = 1;
};

/**
 * The KSM scanning daemon (ksmd).
 */
class KsmScanner : public hv::PageEventListener
{
  public:
    /**
     * @param hv The hypervisor whose mergeable guest memory is scanned.
     * @param cfg Initial tuning.
     * @param stats Stat sink ("ksm." prefixed).
     */
    KsmScanner(hv::Hypervisor &hv, const KsmConfig &cfg, StatSet &stats);

    ~KsmScanner() override;

    KsmScanner(const KsmScanner &) = delete;
    KsmScanner &operator=(const KsmScanner &) = delete;

    /** Retune pages_to_scan (the paper lowers it after warm-up). */
    void setPagesToScan(std::uint32_t pages);

    /** Retune the sleep interval. */
    void setSleepMillisecs(Tick ms);

    /** Current configuration. */
    const KsmConfig &config() const { return cfg_; }

    /**
     * One wake of ksmd: scan up to pagesToScan pages.
     * @return pages actually visited.
     */
    std::uint64_t scanBatch();

    /**
     * Attach to an event queue: wake every sleepMillisecs until
     * detach() is called or the queue is drained.
     */
    void attach(sim::EventQueue &queue);

    /** Stop periodic scanning (takes effect at the next wake). */
    void detach() { attached_ = false; }

    /**
     * Convenience for benches: keep scanning until two consecutive full
     * passes produce no new merges (or @p max_full_scans passes happen).
     * @return total pages merged.
     */
    std::uint64_t runToQuiescence(std::uint64_t max_full_scans = 64);

    /** Completed full passes over all mergeable memory. */
    std::uint64_t fullScans() const { return full_scans_; }

    /** Number of stable (shared) KSM frames, like `pages_shared`. */
    std::uint64_t pagesShared() const;

    /**
     * Number of guest pages saved by deduplication, like
     * `pages_sharing`: for each stable frame, refcount - 1.
     */
    std::uint64_t pagesSharing() const;

    /** Bytes saved: pagesSharing() * pageSize. */
    Bytes savedBytes() const;

    /**
     * Modelled ksmd CPU utilisation for the current tuning:
     * pagesToScan * scanCostUs / (sleepMillisecs * 1000).
     */
    double cpuUsage() const;

    /** PageEventListener: drop per-page calm state on guest discard. */
    void pageDiscarded(VmId vm, Gfn gfn) override;

  private:
    /**
     * Scanner-owned per-guest-page state. lastChecksum/checksumValid
     * replace the fields that used to live in hv::EptEntry with
     * identical lifetime: they survive COW breaks, swap-outs and
     * swap-ins, and die only on discard (pageDiscarded()).
     */
    struct PageScanState
    {
        /** Frame write generation at the last completed visit. */
        std::uint64_t lastGen = 0;
        /**
         * Stable epoch at the last full stable-tree probe that missed
         * for this page's content; 0 = the next visit must probe.
         */
        std::uint64_t lastStableEpoch = 0;
        /** Content digest at generation lastGen (digestValid). Kept
         *  here — sequentially walked state — so the steady-state scan
         *  path does not touch the frame memo at all. */
        std::uint64_t lastDigest = 0;
        std::uint32_t lastChecksum = 0;
        bool checksumValid = false;
        bool digestValid = false;
        /**
         * The backing frame was KSM-stable when lastGen was recorded.
         * Because setKsmStable() advances the write generation, an
         * equal generation proves the flag has not changed since — so
         * a converged pass settles stable pages without loading the
         * Frame at all. Never set alongside digestValid.
         */
        bool lastStable = false;
    };

    /** Per-frame memo of content derivations, valid while the frame's
     *  write generation still equals `gen`. */
    struct FrameMemo
    {
        std::uint64_t gen = 0; //!< 0 = empty (generations start at 1)
        std::uint64_t digest = 0;
        std::uint32_t checksum = 0;
        bool hasDigest = false;
        bool hasChecksum = false;
    };

    /**
     * One slot of the flat open-addressed unstable table. A slot is
     * *live* when `epoch == pass_epoch_`; clearing the tree at a pass
     * boundary is one epoch bump instead of a deallocation, so a
     * steady-state pass runs allocation-free. `epoch == 0` means the
     * slot was never used (probe chains stop there); any other stale
     * epoch acts as a tombstone that keeps chains intact.
     */
    struct UnstableSlot
    {
        std::uint64_t digest = 0;
        std::uint64_t epoch = 0;
        VmId vm = invalidVm;
        Gfn gfn = invalidFrame;
    };

    /** One entry of a sharded batch's work list: a resident page the
     *  serial scan would have visited, in serial cursor order. */
    struct WorkItem
    {
        VmId vm;
        Gfn gfn;
    };

    /**
     * One digest shard's slice of the merge indexes. All structures
     * behave exactly as the S = 1 originals restricted to digests with
     * `digest % S == shard`: lookups compare digests (and then full
     * content), never slot positions, so partitioning is unobservable.
     */
    struct ShardState
    {
        /** Stable tree slice: digest -> stable frames, creation order. */
        std::unordered_map<std::uint64_t, std::vector<Hfn>> stableTree;
        /** Unstable table slice (flat, epoch-cleared). */
        std::vector<UnstableSlot> unstable;
        std::size_t occupied = 0; //!< slots with epoch != 0
        std::size_t live = 0;     //!< slots with epoch == current
    };

    /**
     * One deferred cross-shard effect recorded by a shard commit: a
     * merge into a stable frame and/or a stable promotion. The serial
     * reduce replays these in global work-index order, so sharing
     * counters, the frame free list, LRU touches, hv stats and trace
     * records land exactly as the serial walk would have placed them.
     */
    struct ShardOp
    {
        std::uint32_t idx;          //!< global work index (canonical order)
        VmId vm;                    //!< candidate page (trace payload)
        Gfn gfn;
        Hfn stable;                 //!< merge target (tree hit or fresh)
        Hfn source;                 //!< pre-merge backing of the candidate
        std::uint32_t refcountAtSet; //!< target refcount when promoted
        bool promotion;     //!< unstable promotion vs stable-tree merge
        bool transitioned;  //!< the promotion actually set the flag
        bool merged;        //!< the merge attempt succeeded
        bool freedSource;   //!< merge unmapped the source's last mapping
    };

    /** Counters a shard commit accumulates privately; folded into the
     *  live stats in shard order at the reduce (sums are order-free). */
    struct ShardCounters
    {
        std::uint64_t staleStable = 0;
        std::uint64_t staleUnstable = 0;
        std::uint64_t genSkipped = 0;
        std::uint64_t digestCacheHits = 0;
        std::uint64_t commitReplays = 0;
    };

    /** Per-shard commit job: its candidate indexes (ascending), its op
     *  log, and its private counters. Reused across batches. */
    struct ShardWork
    {
        std::vector<std::uint32_t> items;
        std::vector<ShardOp> ops;
        ShardCounters counters;
    };

    /**
     * Classify-phase verdict for one work item, produced read-only by
     * a worker thread and consumed by the shard commits and the
     * reduce. `gen` is the proof token: commit uses the recorded
     * values only while the frame's write generation still equals it,
     * and falls back to a full serial visit otherwise.
     */
    struct PageSnap
    {
        enum class Kind : std::uint8_t
        {
            Huge,       //!< THP-backed: skip (counts skipped_huge)
            GenStable,  //!< gen fast path, provably still stable
            GenCalm,    //!< gen fast path, provably calm
            SlowStable, //!< slow path, frame was KSM-stable
            NotCalm,    //!< slow path, checksum moved since last visit
            SlowCalm,   //!< slow path, calm: full tree candidate
        };

        std::uint64_t gen = 0;
        std::uint64_t digest = 0;
        /** Stable epoch at which the read-only probe cleanly missed. */
        std::uint64_t probeEpoch = 0;
        std::uint32_t checksum = 0;
        Kind kind = Kind::Huge;
        bool hasDigest = false;
        bool hasChecksum = false;
        /**
         * The read-only stable-tree probe walked the whole chain
         * without meeting a stale node or an acceptable (live,
         * non-full) one. That is the only probe outcome commit may
         * reuse: while the stable epoch still equals probeEpoch, a
         * real lookup would provably do nothing but miss.
         */
        bool probeCleanMiss = false;
    };

    /**
     * Content-kernel values precomputed for one staged classify item.
     * The values are pure functions of the page content, and content
     * is frozen for the whole batch (no guest runs during a batch; the
     * scanner never writes page data), so a present value is *always*
     * what the visit would have computed.
     */
    struct BatchPre
    {
        std::uint64_t dig = 0;
        std::uint32_t sum = 0;
        bool hasSum = false;
        bool hasDig = false;
    };

    /**
     * Structure-of-arrays staging for one content-kernel window of
     * kernelWindow classify items. The classify worker pushes (vm,
     * page-state row, gfn) items; stageWindow() then mirrors the
     * visit's decision tree read-only to find which kernels each visit
     * will need, runs the lane-parallel batch kernels over the needy
     * pages, and leaves the per-item results in `pre` for
     * classifyOne().
     */
    struct KernelStage
    {
        // Window items (parallel arrays).
        std::vector<const hv::Vm *> vms;
        std::vector<const PageScanState *> rows;
        std::vector<Gfn> gfns;
        // Per-item derivations filled by stageWindow().
        std::vector<BatchPre> pre;
        std::vector<const mem::PageData *> data; //!< null until loaded
        std::vector<Hfn> hfns;                   //!< invalidFrame = huge
        std::vector<std::uint64_t> gens;
        // Kernel lane staging (index into the window per lane).
        std::vector<const mem::PageData *> sumPages;
        std::vector<std::uint32_t> sumLane;
        std::vector<std::uint32_t> sums;
        std::vector<const mem::PageData *> digPages;
        std::vector<std::uint32_t> digLane;
        std::vector<std::uint64_t> digs;
        std::vector<std::uint32_t> calmIdx;  //!< slow-path items
        std::vector<std::uint32_t> needyIdx; //!< items needing content

        void
        clearWindow()
        {
            vms.clear();
            rows.clear();
            gfns.clear();
        }

        void
        push(const hv::Vm *v, const PageScanState *row, Gfn gfn)
        {
            vms.push_back(v);
            rows.push_back(row);
            gfns.push_back(gfn);
        }

        std::size_t count() const { return gfns.size(); }
    };

    /**
     * Stage one gathered window: decide per item which content kernels
     * its visit will need (none for huge/stable/settled pages; the
     * zero-page fast path serves the compile-time constants ahead of
     * any kernel work), prefetch the frames, run the batch kernels,
     * and fill `ks.pre`. Read-only against scanner and host state.
     */
    void stageWindow(const mem::FrameTable &ft, KernelStage &ks) const;

    /**
     * Hint the unstable-table slot (two lines: chains average a couple
     * of slots) a visit probing `digest` is about to walk. Pure hint —
     * an earlier visit growing the table only makes it stale.
     */
    void prefetchUnstableSlot(std::uint64_t digest) const;

    /**
     * The serial walk's lookahead: prefetch the write-generation
     * and unstable-slot lines of the visit `prefetchDist` pages ahead,
     * hiding their miss latency behind the visits in between.
     */
    void visitLookahead(const hv::Vm &v, const PageScanState *psv,
                        Gfn gfn, Gfn gfn_end,
                        const mem::FrameTable &ft) const;

    /**
     * Visit one candidate page. @p v, @p ft and @p psv are hoisted by
     * the caller (the VM, frame table, and this VM's page-state row)
     * so the per-page path re-derives nothing.
     * @return true if the page was resident.
     */
    bool scanOne(VmId vm, Gfn gfn, const hv::Vm &v, mem::FrameTable &ft,
                 PageScanState *psv);

    /** The serial walk (S = 1, and the reference the sharded pipeline
     *  must be byte-identical to). */
    std::uint64_t scanBatchSerial();

    /** The sharded pipeline (S >= 2): collect, classify, shard
     *  commits, reduce. */
    std::uint64_t scanBatchSharded();

    /**
     * Per-VM dirty-queue state for log-driven passes (usePml). A pass
     * visits `current` (sorted, deduplicated gfns) instead of the
     * whole address space; `next` accumulates work for the following
     * pass (ring entries that landed behind the cursor, and not-calm
     * pages whose second calm-protocol visit is still owed). A ring
     * overflow degrades the VM to a full generation walk for the
     * affected passes.
     */
    struct PmlVmQueue
    {
        std::vector<Gfn> current;
        std::vector<Gfn> next;
        /**
         * Cross-pass-match revisits owed *this* pass (sorted): pages a
         * candidate met as a persistent unstable entry ahead of the
         * cursor. Kept apart from `current` because they are exempt
         * from the batch's pagesToScan budget, which fixes where every
         * batch of a log-driven pass ends.
         */
        std::vector<Gfn> injected;
        std::size_t curIdx = 0;
        std::size_t injIdx = 0;
        std::uint64_t visitedThisPass = 0;
        bool walkThisPass = false;
        bool walkNextPass = false;
    };

    /** Lazily-sized dirty queue of @p vm. */
    PmlVmQueue &pmlQueue(VmId vm);

    /**
     * Drain every VM's PML ring into the dirty queues (called at the
     * start of each log-driven batch). Entries at or ahead of the
     * cursor join the current pass; entries behind it, the next pass.
     * Overflowed VMs are flagged for full walks.
     */
    void pmlDrain();

    /** Queue @p gfn of @p vm for the next pass (not-calm revisit). */
    void pmlRequeue(VmId vm, Gfn gfn);

    /**
     * Schedule a visit of (@p vm, @p gfn) at its canonical position in
     * the *current* pass: the page holds a live persistent unstable
     * entry that a candidate earlier in cursor order just matched, and
     * the walk would promote at this page's own visit. Inserts into
     * the VM's `injected` lane.
     */
    void pmlScheduleThisPass(VmId vm, Gfn gfn);

    /** Log-driven serial scan loop (usePml). */
    std::uint64_t scanBatchSerialPml();

    /** Classify work_[begin, end) into snaps_ (worker thread;
     *  read-only — no counters, no memo, no per-page state writes). */
    void classifyRange(const mem::FrameTable &ft, std::size_t begin,
                       std::size_t end);

    /** Classify one work item into @p snap, using the batch-kernel
     *  values in @p pre (see BatchPre). */
    void classifyOne(Gfn gfn, const hv::Vm &v,
                     const mem::FrameTable &ft,
                     const PageScanState *psv, PageSnap &snap,
                     const BatchPre &pre) const;

    /**
     * Replay one classified residual (non-candidate: huge, stable or
     * not calm) page at the reduce, mutating exactly as the serial
     * visit would. The reduce runs after *all* shard promotions have
     * landed, so it cannot read the live write generation; @p gen_moved
     * says whether a promotion with a smaller work index moved the
     * frame (the serial walk would have seen the mismatch), and then
     * the page takes a full serial visit.
     */
    void commitResidual(VmId vm, Gfn gfn, const hv::Vm &v,
                        mem::FrameTable &ft, PageScanState *psv,
                        const PageSnap &snap, bool gen_moved);

    /** Effective commit shard count: cfg_.commitShards, collapsed to 1
     *  under usePml or when <= 1. */
    unsigned effectiveCommitShards() const;

    /** Digest shard owning @p digest. */
    unsigned
    shardFor(std::uint64_t digest) const
    {
        return static_cast<unsigned>(digest % shards_.size());
    }

    /** Sharded commit phase: partition the classified batch, run the
     *  S shard jobs on the pool, then reduce serially (see file
     *  comment). */
    void commitSharded(mem::FrameTable &ft);

    /** One shard's commit job (pool thread): replay the shard's
     *  candidates in ascending work index against its own slices,
     *  logging cross-shard effects into its ShardWork. */
    void shardCommitItems(mem::FrameTable &ft, unsigned s);

    /** treeStage(), shard flavour: same decisions against the shard's
     *  slices, with merges/promotions executed through the deferred
     *  FrameTable protocol and logged instead of counted/traced. */
    void shardTreeStage(ShardState &sh, ShardWork &sw, unsigned lane,
                        std::uint32_t idx, VmId vm, Gfn gfn,
                        mem::FrameTable &ft, PageScanState &ps, Hfn hfn,
                        std::uint64_t digest, const mem::PageData *data,
                        bool skip_stable_probe, const PageSnap *snap);

    /** Apply one shard op at the reduce (serial, in work-index order). */
    void applyShardOp(const ShardOp &op, mem::FrameTable &ft);

    /**
     * Stable-probe + unstable-table stage of the serial visit. @p data
     * may be null (loaded lazily).
     */
    void treeStage(VmId vm, Gfn gfn, mem::FrameTable &ft,
                   PageScanState &ps, Hfn hfn, std::uint64_t digest,
                   const mem::PageData *data, bool skip_stable_probe);

    /** True iff a stableLookup of (@p data, @p digest) would miss
     *  without pruning anything. Read-only (worker-safe). */
    bool stableProbeCleanMiss(const mem::FrameTable &ft,
                              const mem::PageData &data,
                              std::uint64_t digest) const;

    /**
     * Digest of @p data via the per-frame memo — THE "use a
     * precomputed value if present, else recompute" point, shared by
     * the serial visit and the shard commits. On a memo hit the cached
     * value is served and counted into @p digest_hits (the live
     * counter serially, a shard's private accumulator from a shard
     * commit); on a miss, @p pre — a classify-snapshot value under its
     * generation proof — stands in for the recompute, and the memo
     * end-state is byte-identical either way.
     */
    std::uint64_t cachedDigest(Hfn hfn, std::uint64_t gen,
                               const mem::PageData &data,
                               const std::uint64_t *pre,
                               std::uint64_t &digest_hits);

    /** cachedChecksum(): the checksum flavour of cachedDigest() (no
     *  hit counter — only digests have hit accounting). */
    std::uint32_t cachedChecksum(Hfn hfn, std::uint64_t gen,
                                 const mem::PageData &data,
                                 const std::uint32_t *pre);

    /**
     * The generation-fast-path digest resolution shared by the serial
     * visit (scanOne) and the shard commits: serve the per-page cache,
     * else cachedDigest(), install
     * the result into @p ps, and derive the epoch-proved stable-probe
     * skip. The caller has already counted the gen skip.
     */
    std::uint64_t genCalmDigest(mem::FrameTable &ft, Hfn hfn,
                                std::uint64_t gen, PageScanState &ps,
                                const mem::PageData *&data,
                                const std::uint64_t *pre,
                                std::uint64_t &digest_hits,
                                bool &skip_stable_probe);

    /**
     * The slow-path content stage shared by the serial visit, the
     * residual replay and the shard commits:
     * resolve the checksum (cachedChecksum() under incrementalScan,
     * direct otherwise), decide calmness against @p ps, update the
     * per-page state exactly as the serial visit always has, and — for
     * calm pages — resolve and install the digest. @return false when
     * the page is not calm (the caller counts it and stops).
     */
    bool slowPathContent(mem::FrameTable &ft, Hfn hfn, std::uint64_t gen,
                         PageScanState &ps, const mem::PageData *&data,
                         const std::uint32_t *pre_sum,
                         const std::uint64_t *pre_dig,
                         std::uint64_t &digest_hits,
                         std::uint64_t &digest_out);

    /** Advance the cursor; returns false at the end of a full pass. */
    bool advanceCursor();

    /** Pure cursor movement: skip to the next mergeable in-range
     *  position; false at the end of a pass (no bookkeeping). */
    bool cursorNext();

    /** End-of-pass bookkeeping: reset the cursor, bump the pass epoch,
     *  record the KsmFullScan trace event. */
    void passBoundary();

    /**
     * Look up @p data (whose digest is @p digest) in @p sh's stable
     * tree slice, pruning stale nodes and emptied digest buckets into
     * @p stale_counter (the live stat serially, a shard accumulator
     * from a shard commit). The staleness test compares content before
     * reading the stable flag: a stale node's recycled frame may be
     * mid-mutation in another shard, but its (frozen) content already
     * proves the prune, so the outcome never depends on the race.
     */
    Hfn stableLookup(ShardState &sh, const mem::PageData &data,
                     std::uint64_t digest, std::uint64_t &stale_counter);

    /** The whole page-state row of @p vm, sized to its EPT. */
    PageScanState *pageStateRow(VmId vm, const hv::Vm &v);

    /** Lazily-sized per-frame memo slot. */
    FrameMemo &frameMemo(Hfn hfn);

    /** Grow/compact @p sh's flat unstable table (drops stale slots). */
    void unstableRehash(ShardState &sh, std::size_t new_capacity);

    /** Live slot of @p sh's unstable table holding @p digest, or npos;
     *  on a miss @p insert_at (initially npos) is where it goes. */
    std::size_t unstableFind(const ShardState &sh, std::uint64_t digest,
                             std::size_t &insert_at) const;

    /** Insert (@p digest, @p vm, @p gfn) at @p insert_at from
     *  unstableFind(), growing the table first when it runs full. */
    void unstableInsert(ShardState &sh, std::size_t insert_at,
                        std::uint64_t digest, VmId vm, Gfn gfn);

    hv::Hypervisor &hv_;
    KsmConfig cfg_;
    StatSet &stats_;
    bool attached_ = false;

    // Scan cursor.
    VmId cur_vm_ = 0;
    Gfn cur_gfn_ = 0;

    std::uint64_t full_scans_ = 0;
    std::uint64_t merges_this_pass_ = 0;
    std::uint64_t merges_total_ = 0;

    /** The merge indexes, partitioned into effectiveCommitShards()
     *  digest shards (one slice at S = 1: the classic layout). */
    std::vector<ShardState> shards_;
    std::uint64_t pass_epoch_ = 1;

    /** Per-shard commit jobs and the residual (non-candidate) work
     *  indexes, reused across batches. */
    std::vector<ShardWork> shard_work_;
    std::vector<std::uint32_t> residual_;
    /** Reduce scratch: all shards' ops merged by work index. */
    std::vector<ShardOp> merged_ops_;
    /** Frames whose generation an *applied* promotion moved, for the
     *  residual gen_moved decision. */
    std::unordered_set<Hfn> bumped_;
    /** Running max of per-batch shard imbalance (see METRICS.md). */
    std::uint64_t shard_imbalance_max_ = 0;

    std::vector<std::vector<PageScanState>> page_state_;
    std::vector<FrameMemo> frame_memo_;

    /** Per-VM dirty queues (usePml mode only). */
    std::vector<PmlVmQueue> pml_;
    /** Scratch for sorting freshly drained ring entries. */
    std::vector<Gfn> pml_pending_;

    /** The S pipeline workers (created on the first sharded batch). */
    std::unique_ptr<ThreadPool> pool_;
    /** Sharded batch buffers, reused across batches. */
    std::vector<WorkItem> work_;
    std::vector<PageSnap> snaps_;

    // Cached counter handles: scanOne() runs per visited page, so the
    // string-keyed StatSet lookups are hoisted out of the hot loop.
    std::uint64_t &stat_stale_stable_;
    std::uint64_t &stat_stale_unstable_;
    std::uint64_t &stat_skipped_huge_;
    std::uint64_t &stat_not_calm_;
    std::uint64_t &stat_stable_merges_;
    std::uint64_t &stat_unstable_promotions_;
    std::uint64_t &stat_pages_visited_;
    std::uint64_t &stat_gen_skipped_;
    std::uint64_t &stat_digest_cache_hits_;
    std::uint64_t &stat_scan_shards_;
    std::uint64_t &stat_precheck_candidates_;
    std::uint64_t &stat_commit_replays_;
    std::uint64_t &stat_pml_skipped_;
    std::uint64_t &stat_shard_imbalance_;
    /** hv's own merge counter, cached so the sharded reduce can apply
     *  deferred merges without a per-merge string lookup. */
    std::uint64_t &stat_hv_ksm_merges_;
};

} // namespace jtps::ksm

#endif // JTPS_KSM_KSM_SCANNER_HH
