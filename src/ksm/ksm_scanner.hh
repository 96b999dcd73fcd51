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
 *  - A page whose content digest changed since the last visit is "not
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
 * Unlike ksmd's red-black trees, both structures here are flat
 * open-addressed hash tables keyed by the 64-bit content digest, the
 * same mem::PageData::digest() the calm filter compares (ESX
 * finds sharing candidates the same way — Waldspurger, "Memory Resource
 * Management in VMware ESX Server", OSDI 2002): one probe per visited
 * page instead of O(log n) 64-byte lexicographic compares. The full
 * 8-word compare still runs on every hit, so a digest collision can
 * only cost a missed merge, never a wrong one.
 *
 * The stable index is a table of 16-byte {digest, ref} slots. `ref`
 * holds the digest's only stable frame inline; only a chain of
 * duplicates (`max_page_sharing`) or a digest collision spills into a
 * side vector, kept in creation order. Empty slots end probe chains
 * and pruned digests leave tombstones, exactly as in the unstable
 * table (UnstableSlot).
 *
 * Incremental scanning (docs/PERF.md): every host frame carries a
 * write generation (mem::FrameTable::writeGen()) that changes on every
 * possible content change and on every stable-flag transition. The
 * scanner records, per guest page, the generation it saw at the last
 * completed visit; when the generation is unchanged the page is
 * *provably* resident, non-stable and calm — the content is not read
 * and the digest recorded at that visit is reused.
 * Such a visit still probes the stable index, as every calm visit of
 * ksmd does; the Frame is loaded only when the probe finds the digest,
 * so a miss never touches it. Skipping is gated only on generation
 * equality, never on content heuristics, so merge behaviour and every
 * counter are identical to a from-scratch scan
 * (KsmConfig::incrementalScan = false gives that reference mode; the
 * property tests drive both side by side).
 *
 * Scan loop (docs/ARCHITECTURE.md §3): every batch runs through one
 * serial cursor walk (scanBatch()), which visits pages through
 * scanOne(), on the calling thread, against one stable index and one
 * unstable table. docs/PERF.md §9 records why the scan is not split
 * across threads, and §6 why it is not driven by the PML dirty log.
 */

#ifndef JTPS_KSM_KSM_SCANNER_HH
#define JTPS_KSM_KSM_SCANNER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/packed_gfn.hh"
#include "base/stats.hh"
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
     * `ksm.pages_gen_skipped` stays zero);
     * used by the equivalence tests and the before/after micro bench.
     */
    bool incrementalScan = true;
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

    /** Current configuration. */
    const KsmConfig &config() const { return cfg_; }

    /**
     * One wake of ksmd: scan up to pagesToScan pages.
     * @return pages actually visited.
     */
    std::uint64_t scanBatch();

    /**
     * Attach to an event queue: wake every sleepMillisecs for as long
     * as the queue runs (call once).
     */
    void attach(sim::EventQueue &queue);

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
     * Heap bytes held by the per-guest-page scan state: stateChunkBytes
     * per chunk of stateChunkPages guest pages in which the cursor has
     * met a resident, non-huge page (the rows of chunk pointers, 8 B
     * per chunk, are not counted). A released VM's chunks are freed at
     * once (vmReleased()).
     */
    Bytes pageStateBytes() const;

    /** Guest pages per chunk of scan state, and the chunk's size. */
    static constexpr Gfn stateChunkPages = 512;
    static constexpr Bytes stateChunkBytes = stateChunkPages * 16;

    /**
     * Modelled ksmd CPU utilisation for the current tuning: the busy
     * share of one wake cycle, busy / (busy + sleep), with busy =
     * pagesToScan * 2.5 (the modelled cost per visited page) and
     * sleep = sleepMillisecs * 1000 (both in microseconds).
     */
    double cpuUsage() const;

    /** PageEventListener: drop per-page calm state on guest discard. */
    void pageDiscarded(VmId vm, Gfn gfn) override;

    /** PageEventListener: free the released VM's page-state row. */
    void vmReleased(VmId vm) override;

    /**
     * Widths of the VM id and of the pass epoch in an unstable-table
     * slot. A host's VM ids must lie below 2^slotVmBits; the scanner
     * refuses a wider one. The epoch field holds passes 1 to
     * 2^slotEpochBits - 2 (0 marks a never-used slot and the all-ones
     * value a tombstone), so after that many passes every slot is
     * reset to never used and epochs start over.
     */
    static constexpr unsigned slotVmBits = 20;
    static constexpr unsigned slotEpochBits = 12;

    /** Occupancy of the stable index, as checked by checkIndex(). */
    struct StableIndexShape
    {
        std::size_t capacity = 0; //!< slots
        std::size_t live = 0;     //!< digests indexed
        std::size_t occupied = 0; //!< live digests plus tombstones
        std::size_t spilled = 0;  //!< live digests with a side chain
    };

    /**
     * Assert the stable index's invariants (panics on a violation):
     * the live and occupied counts match the slots, no digest is live
     * twice, every live chain is non-empty, and free side chains are
     * empty and disjoint from live ones. Also asserts the unstable
     * table's counts and that each live entry is the first slot of its
     * probe chain holding its digest (unstableFind() relies on it).
     * @return the stable index's current occupancy.
     */
    StableIndexShape checkIndex() const;

  private:
    /**
     * Scanner-owned per-guest-page state. It replaces the calm-filter
     * fields that used to live in hv::EptEntry with identical lifetime:
     * it survives COW breaks, swap-outs and swap-ins, and dies only on
     * discard (pageDiscarded()). A page whose chunk was never created
     * reads as PageScanState{}: never seen.
     */
    struct PageScanState
    {
        /** Frame write generation at the last completed visit. */
        std::uint64_t lastGen : 62 = 0;
        /** The page has been visited since it was (re)created, so
         *  lastDigest holds a real observation. */
        std::uint64_t seen : 1 = 0;
        /**
         * The backing frame was KSM-stable when lastGen was recorded.
         * Because setKsmStable() advances the write generation, an
         * equal generation proves the flag has not changed since — so
         * a converged pass settles stable pages without loading the
         * Frame at all.
         */
        std::uint64_t lastStable : 1 = 0;
        /** Content digest at the last non-stable visit: the calm
         *  filter's key, kept across stable periods. A generation-equal
         *  non-stable page reuses it as its tree key. */
        std::uint64_t lastDigest = 0;
    };
    // One entry per guest page of a chunk: two words.
    static_assert(sizeof(PageScanState) == 16);

    /**
     * A fixed run of stateChunkPages page states, created when the
     * cursor first visits a resident, non-huge page in it and kept
     * until its VM is released: the guest's gfn allocator reuses freed
     * gfns first, so a chunk seldom empties.
     */
    using StateChunk = std::array<PageScanState, stateChunkPages>;
    static_assert(sizeof(StateChunk) == stateChunkBytes);
    /** One VM's scan state: a chunk pointer per stateChunkPages guest
     *  pages, null where the cursor has met no resident page. */
    using StateRow = std::vector<std::unique_ptr<StateChunk>>;

    /**
     * One slot of the flat open-addressed unstable table, 16 bytes.
     * A slot is *live* when `epoch == pass_epoch_`; clearing the tree
     * at a pass boundary is one epoch bump instead of a deallocation,
     * so a steady-state pass runs allocation-free. `epoch == 0` means
     * the slot was never used (probe chains stop there); any other
     * stale epoch acts as a tombstone that keeps chains intact. The
     * VM id and the epoch share one word (see slotVmBits and
     * slotEpochBits).
     */
    struct UnstableSlot
    {
        std::uint64_t digest = 0;
        PackedGfn gfn;
        std::uint32_t vm : slotVmBits = 0;
        std::uint32_t epoch : slotEpochBits = 0;
    };
    static_assert(sizeof(UnstableSlot) == 16);

    /**
     * One slot of the flat open-addressed stable index. `ref` encodes
     * the slot state: stableEmptyRef (never used; probe chains stop
     * there), stableTombstoneRef (a pruned digest; keeps chains
     * intact), an inline Hfn (the digest's only stable frame), or
     * stableSpillBit | i for the chain in stable_spill_[i].
     */
    static constexpr std::uint64_t stableEmptyRef = ~std::uint64_t{0};
    static constexpr std::uint64_t stableTombstoneRef = stableEmptyRef - 1;
    static constexpr std::uint64_t stableSpillBit = std::uint64_t{1} << 63;
    struct StableSlot
    {
        std::uint64_t digest = 0;
        std::uint64_t ref = stableEmptyRef;
    };

    /**
     * The serial walk's lookahead: prefetch the write-generation line
     * of the visit `prefetchDist` pages ahead of @p gfn, hiding its
     * miss latency behind the visits in between.
     */
    void visitLookahead(const hv::Vm &v, Gfn gfn, Gfn gfn_end,
                        const mem::FrameTable &ft) const;

    /**
     * Visit one candidate page. @p v, @p ft and @p chunk are hoisted
     * by the caller (the VM, frame table, and the page-state chunk
     * holding @p gfn) so the per-page path re-derives nothing. A
     * resident, non-huge page creates a missing chunk.
     * @return true if the page was resident.
     */
    bool scanOne(VmId vm, Gfn gfn, const hv::Vm &v, mem::FrameTable &ft,
                 std::unique_ptr<StateChunk> &chunk);

    /**
     * Stable-probe + unstable-table stage of the visit. @p data may be
     * null (loaded lazily).
     */
    void treeStage(VmId vm, Gfn gfn, mem::FrameTable &ft, Hfn hfn,
                   std::uint64_t digest, const mem::PageData *data);

    /** Skip the cursor to the next mergeable in-range position; at
     *  the end of a full pass run passBoundary() and return false. */
    bool advanceCursor();

    /** End-of-pass bookkeeping: reset the cursor, clear the unstable
     *  table (one pass-epoch bump, or a reset of every slot when the
     *  epoch field is exhausted), record the KsmFullScan trace
     *  event. */
    void passBoundary();

    /**
     * Look up the content of frame @p candidate (whose digest is
     * @p digest) in the stable index, pruning stale nodes and emptied
     * digests (`ksm.stale_stable_nodes`). The candidate's Frame is
     * loaded only when the digest is indexed.
     */
    Hfn stableLookup(Hfn candidate, std::uint64_t digest);

    /** Live stable-index slot holding @p digest, or npos; on a miss
     *  @p insert_at (initially npos) is where it goes. */
    std::size_t stableFind(std::uint64_t digest,
                           std::size_t &insert_at) const;

    /** Append the fresh stable frame @p hfn to @p digest's chain,
     *  creating the entry (and growing the index) if needed. */
    void stableInsert(std::uint64_t digest, Hfn hfn);

    /** Grow/compact the stable index (drops tombstones). */
    void stableRehash(std::size_t new_capacity);

    /** The page-state row of @p vm, with a chunk slot for every
     *  stateChunkPages pages of its EPT. Refuses a VM id too wide for
     *  an unstable slot's VM field. */
    StateRow &pageStateRow(VmId vm, const hv::Vm &v);

    /** Grow/compact the flat unstable table (drops stale slots). */
    void unstableRehash(std::size_t new_capacity);

    /** Live slot of the unstable table holding @p digest, or npos; on
     *  a miss @p insert_at (initially npos) is where it goes. */
    std::size_t unstableFind(std::uint64_t digest,
                             std::size_t &insert_at) const;

    /** Insert (@p digest, @p vm, @p gfn) at @p insert_at from
     *  unstableFind(), growing the table first when it runs full. */
    void unstableInsert(std::size_t insert_at, std::uint64_t digest,
                        VmId vm, Gfn gfn);

    hv::Hypervisor &hv_;
    KsmConfig cfg_;
    StatSet &stats_;

    // Scan cursor.
    VmId cur_vm_ = 0;
    Gfn cur_gfn_ = 0;

    std::uint64_t full_scans_ = 0;
    std::uint64_t merges_this_pass_ = 0;
    std::uint64_t merges_total_ = 0;

    /** Flat stable index (see StableSlot). */
    std::vector<StableSlot> stable_;
    std::size_t stable_occupied_ = 0; //!< slots not stableEmptyRef
    std::size_t stable_live_ = 0;     //!< slots holding a digest
    /** Spilled chains (stable frames in creation order), indexed by
     *  a StableSlot ref, and the indices of the empty ones. */
    std::vector<std::vector<Hfn>> stable_spill_;
    std::vector<std::size_t> stable_spill_free_;
    /** Flat unstable table (epoch-cleared, see UnstableSlot). */
    std::vector<UnstableSlot> unstable_;
    std::size_t unstable_occupied_ = 0; //!< slots with epoch != 0
    std::size_t unstable_live_ = 0;     //!< slots with epoch == current
    std::uint32_t pass_epoch_ = 1;

    std::vector<StateRow> page_state_;

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
};

} // namespace jtps::ksm

#endif // JTPS_KSM_KSM_SCANNER_HH
