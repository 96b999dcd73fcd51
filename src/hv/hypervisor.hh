/**
 * @file
 * The hypervisor: guest VMs, the gfn→hfn translation, copy-on-write,
 * host-level paging, and the primitives Transparent Page Sharing needs.
 * One class serves both hypervisors of the paper's Fig. 1: the KVM
 * scenario gives each VM process overhead and runs the KSM scanner
 * (src/ksm), the PowerVM scenario (core/power_scenario.hh) gives none
 * and runs collapseIdenticalPages().
 */

#ifndef JTPS_HV_HYPERVISOR_HH
#define JTPS_HV_HYPERVISOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/packed_gfn.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "base/types.hh"
#include "hv/ept.hh"
#include "mem/frame_table.hh"
#include "mem/page_data.hh"
#include "mem/swap_device.hh"

namespace jtps::hv
{

/** Static configuration of the host machine (paper Table I). */
struct HostConfig
{
    Bytes ramBytes = 6ULL * 1024 * 1024 * 1024;
    /**
     * Frames the host keeps free for its own operation; guest allocations
     * beyond (ram - reserve) trigger host paging.
     */
    Bytes reserveBytes = 64ULL * 1024 * 1024;
    /**
     * Compressed-RAM swap pool (Difference Engine / zram style, paper
     * §VI): this much host RAM is set aside to hold evicted pages
     * compressed (modelled 3:1), so refaults from it cost a
     * decompression instead of a disk read. 0 disables the tier.
     */
    Bytes compressedSwapPoolBytes = 0;
    /**
     * Page-Modification-Log ring slots per VM (Intel PML models a
     * 512-entry buffer). Each ring is a list of dirtied gfns: every
     * write appends its gfn once per drain cycle, like the hardware
     * dirty-bit transition, and so does a swap-in. Eviction leaves the
     * ring alone; discard clears the page's logged bit but keeps its
     * entry, so a page written again after a discard is listed twice.
     * The working-set estimator drains the rings every window and
     * migration pre-copy reads the append totals. When a ring fills
     * up, further dirtied pages are lost until the next drain
     * (`hv.pml_overflows`). 0 disables logging entirely.
     */
    std::uint32_t pmlRingSlots = 0;
};

/**
 * Observer of per-page lifecycle events that invalidate state someone
 * else keeps about a guest page. The one listener is the KSM
 * scanner, whose per-page calm-filter state must be dropped exactly
 * when the EPT entry it shadowed is reset (guest discard) — the same
 * moment the old in-EPT checksum used to be wiped.
 */
class PageEventListener
{
  public:
    virtual ~PageEventListener() = default;

    /** (vm, gfn) was discarded; its EPT entry returned to NotPresent. */
    virtual void pageDiscarded(VmId vm, Gfn gfn) = 0;

    /** Every page of @p vm was released (releaseVmMemory()): it has no
     *  pages, now or later. */
    virtual void vmReleased(VmId vm) = 0;
};

/** One guest VM. Its EPT is its only per-page state: counts of its
 *  resident or swapped pages are walks over it (Hypervisor::pagesIn()). */
struct Vm
{
    VmId id = invalidVm;
    std::string name;
    Ept ept;
    /** Pinned host frames of the VM process itself (none for a
     *  system-VM hypervisor). */
    std::vector<Hfn> overheadFrames;
    /** Cumulative host-level major faults taken by this VM. */
    std::uint64_t majorFaults = 0;
    /** Faults served from the compressed-RAM tier (fast refaults). */
    std::uint64_t majorFaultsRam = 0;
    /** PML ring: dirtied gfns in append order; capacity reserved to
     *  pmlRingSlots until the VM is retired. */
    std::vector<PackedGfn> pmlRing;
    /** Cumulative successful appends (unique dirtied pages per drain
     *  cycle) — the working-set estimator's raw signal. */
    std::uint64_t pmlAppendsTotal = 0;

    Vm(VmId id, std::string name, std::uint64_t guest_frames)
        : id(id), name(std::move(name)), ept(guest_frames)
    {
    }
};

/**
 * The hypervisor: translation, faults, COW, swap, and the TPS merge
 * primitives. All guest memory accesses in the whole simulator
 * funnel through writeWord()/writePage()/writePages()/readWord()/
 * touchPage(), and every write among them through frameForWrite(), which
 * is what makes the sharing model sound: no content can change without
 * the COW checks running.
 */
class Hypervisor
{
  public:
    Hypervisor(const HostConfig &cfg, StatSet &stats);

    Hypervisor(const Hypervisor &) = delete;
    Hypervisor &operator=(const Hypervisor &) = delete;

    /**
     * Create a guest VM with @p guest_mem bytes of guest physical memory
     * and @p overhead bytes of VM-process-private memory (0 for a
     * system-VM hypervisor, which has no VM process).
     */
    VmId createVm(const std::string &name, Bytes guest_mem, Bytes overhead);

    /** Number of VMs. */
    std::size_t vmCount() const { return vms_.size(); }

    /** Access a VM by id. */
    Vm &vm(VmId id);
    const Vm &vm(VmId id) const;

    /** The host frame table (analysis and tests read it). */
    mem::FrameTable &frames() { return frames_; }
    const mem::FrameTable &frames() const { return frames_; }

    /** The host swap device. */
    const mem::SwapDevice &swap() const { return swap_; }

    // ------------------------------------------------------------------
    // Guest memory access (called by the guest OS / JVM models)
    // ------------------------------------------------------------------

    /** Write one sector word; runs the full fault + COW path. */
    void writeWord(VmId vm, Gfn gfn, unsigned sector, std::uint64_t value);

    /** Write a whole page of content. */
    void writePage(VmId vm, Gfn gfn, const mem::PageData &data);

    /**
     * Write a run of @p count whole pages of @p vm: page i goes to
     * guest frame @p gfn_of(i) and receives @p fill(i). The VM is
     * resolved once for the run; each page then takes the same fault,
     * COW and PML path as writePage(), in order, so the run is
     * indistinguishable from a writePage() loop. @p gfn_of(i) is called
     * only after page i - 1 is written: a guest that maps pages on
     * demand may reclaim or swap out an earlier page of the run while
     * mapping a later one.
     */
    template <typename GfnOf, typename Fill>
    void
    writePages(VmId vm_id, std::uint64_t count, GfnOf &&gfn_of,
               Fill &&fill)
    {
        Vm &v = vm(vm_id);
        for (std::uint64_t i = 0; i < count; ++i) {
            const Gfn gfn = gfn_of(i);
            frameForWrite(v, gfn).data = fill(i);
        }
    }

    /** Read one sector word (0 if the page was never touched). */
    std::uint64_t readWord(VmId vm, Gfn gfn, unsigned sector);

    /**
     * Touch a page read-only (working-set access by the workload):
     * swaps it in if the host paged it out, marks it recently used.
     */
    void touchPage(VmId vm, Gfn gfn);

    /**
     * Discard a page (guest frees the memory, e.g. munmap): the backing
     * frame reference is dropped, the entry returns to NotPresent and
     * the page listener is told.
     */
    void discardPage(VmId vm, Gfn gfn);

    /**
     * Release every page of @p vm: all guest memory (resident and
     * swapped, with discardPage()'s bookkeeping, so shared frames just
     * lose one mapping), the VM process's pinned overhead frames and
     * the EPT itself. The page listener gets one vmReleased() notice,
     * not a pageDiscarded() per page: the VM's id is never reused and
     * its EPT becomes zero-sized, so no page of it can be looked up
     * again. The Vm object itself stays — VM ids are dense and stable —
     * it merely owns no host memory afterwards.
     * This is the teardown half of a live migration (or a poweroff):
     * the cluster layer retires the source copy with it and rebuilds
     * the VM on the destination host. Counted in `hv.vms_released`.
     */
    void releaseVmMemory(VmId vm);

    /** Current gfn→hfn translation; invalidFrame unless Resident. */
    Hfn translate(VmId vm, Gfn gfn) const;

    /** Page content if resident, nullptr otherwise (never faults). */
    const mem::PageData *peek(VmId vm, Gfn gfn) const;

    /** Mark/unmark a guest page as THP-backed (unmergeable by KSM):
     *  sets its entry's huge flag. */
    void setHugePage(VmId vm, Gfn gfn, bool huge);

    // ------------------------------------------------------------------
    // TPS primitives (called by the KSM scanner / firmware TPS)
    // ------------------------------------------------------------------

    /**
     * Merge the page under (vm, gfn) into the existing stable frame
     * @p stable. Fails (returns false) if the page is not resident, the
     * contents differ, or it is already that frame.
     */
    bool ksmMergeInto(Hfn stable, VmId vm, Gfn gfn);

    /**
     * Promote the resident page under (vm, gfn) to a KSM stable frame:
     * marks the frame stable, which write-protects every mapping of it
     * (frameForWrite() copies a stable frame on any write).
     * @return the frame number, or invalidFrame if not resident.
     */
    Hfn ksmMakeStable(VmId vm, Gfn gfn);

    /**
     * Run one whole-memory TPS pass immediately: merge every pair of
     * identical resident, unpinned pages. The system-VM scenario runs
     * it as the firmware TPS; KVM instead runs the incremental scanner.
     * @return number of pages merged away (frames freed).
     */
    std::uint64_t collapseIdenticalPages();

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /** Total resident host frames (guest + overhead). */
    std::uint64_t residentFrames() const { return frames_.resident(); }

    /** Resident bytes on the host. */
    Bytes residentBytes() const;

    /** Guest pages of @p vm whose entry is in @p state (one EPT
     *  walk; a retired VM has none). */
    std::uint64_t pagesIn(VmId vm, PageState state) const;

    /** Major faults taken by @p vm since creation. */
    std::uint64_t majorFaults(VmId vm) const;

    /** Major faults of @p vm served from compressed RAM. */
    std::uint64_t majorFaultsRam(VmId vm) const;

    /** Compression ratio assumed for the compressed-RAM tier. */
    static constexpr unsigned swapCompressionRatio = 3;

    /**
     * Verify all cross-structure invariants in one pass over each EPT
     * and one over the frame table: each reverse mapping claims a
     * distinct resident entry backed by its frame, and the totals
     * agree; a swapped entry names a live swap slot, a logged PML bit
     * a ring entry, and a ring fits its slots. Panics on violation.
     */
    void checkConsistency() const;

    /** The stat sink. */
    StatSet &stats() { return stats_; }

    /**
     * Wire a trace sink (owned by the scenario). Propagates to the swap
     * device; the KSM scanner and guest models reach it through
     * trace(). Passing nullptr detaches. Recording costs nothing until
     * the buffer is enable()d.
     */
    void setTrace(TraceBuffer *trace);

    /** The wired trace sink, or nullptr. */
    TraceBuffer *trace() const { return trace_; }

    /**
     * Send page lifecycle events to @p l, or to no one when @p l is
     * nullptr. A host has at most one listener (its KSM scanner): a
     * listener may only be set while none is.
     */
    void setPageListener(PageEventListener *l);

    // ------------------------------------------------------------------
    // Page-Modification-Log rings
    // ------------------------------------------------------------------

    /** True when PML rings are configured (pmlRingSlots > 0). */
    bool pmlEnabled() const { return pml_ring_slots_ > 0; }

    /** Configured ring capacity in entries. */
    std::uint32_t pmlRingSlots() const { return pml_ring_slots_; }

    /** @p vm's undrained ring entries (gfns), in append order. */
    const std::vector<PackedGfn> &
    pmlEntries(VmId vm) const
    {
        return this->vm(vm).pmlRing;
    }

    /**
     * Finish a drain of @p vm's ring: clear the per-page logged bits
     * of the drained entries (so the next write to each page logs
     * again) and empty the ring. The consumer reads what it needs
     * (pmlEntries(), Vm::pmlAppendsTotal) first, then calls this
     * exactly once per drain cycle.
     */
    void pmlResetRing(VmId vm);

  private:
    /**
     * Allocate a host frame, evicting if the host is out of memory.
     * Panics only if even eviction cannot find memory.
     */
    Hfn allocBacked(const mem::Mapping &m, const mem::PageData &data);

    /** Evict one victim frame to swap. @return false if none evictable */
    bool evictOne();

    /** Handle a major fault: swap the page back in. */
    void swapIn(VmId vm, Gfn gfn);

    /** Break copy-on-write for (v, gfn), whose resident entry @p e
     *  maps the shared or stable frame @p f: repoint the entry at a
     *  private copy of it. */
    void cowBreak(Vm &v, EptEntry &e, Gfn gfn, const mem::Frame &f);

    /**
     * The write funnel: make (v, gfn) resident and privately writable,
     * running the demand-allocation, swap-in and COW faults as needed,
     * record the write (LRU age, write generation, PML ring) and return
     * the backing frame for the caller to write. The frame is looked up
     * once, and again only after a COW break moved the page.
     */
    mem::Frame &frameForWrite(Vm &v, Gfn gfn);

    /** Drop (v, gfn)'s backing reference and reset its entry to
     *  NotPresent, without telling the page listener.
     *  @return false if the page was NotPresent already. */
    bool dropPage(Vm &v, Gfn gfn);

    /**
     * Log a dirtied page into @p v's PML ring (no-op when rings are
     * disabled or the page is already logged this drain cycle).
     */
    void pmlLog(Vm &v, EptEntry &e, Gfn gfn);

    StatSet &stats_;
    TraceBuffer *trace_ = nullptr;
    mem::FrameTable frames_;
    mem::SwapDevice swap_;
    std::vector<std::unique_ptr<Vm>> vms_;
    PageEventListener *page_listener_ = nullptr;
    /** Compressed-tier slot capacity (pool pages x compression). */
    std::uint64_t ram_slot_capacity_ = 0;
    /** PML ring capacity per VM (0 = logging disabled). */
    std::uint32_t pml_ring_slots_ = 0;
    // The write funnel, faults and merges bump cached counters, so no
    // per-page event does a string-keyed StatSet lookup.
    std::uint64_t &stat_pml_appends_;
    std::uint64_t &stat_pml_overflows_;
    StatCounter stat_demand_allocs_{&stats_, "hv.demand_allocs"};
    StatCounter stat_cow_breaks_{&stats_, "hv.cow_breaks"};
    StatCounter stat_ksm_merges_{&stats_, "hv.ksm_merges"};
    StatCounter stat_evictions_{&stats_, "host.evictions"};
    StatCounter stat_major_faults_{&stats_, "host.major_faults"};
    StatCounter stat_major_faults_ram_{&stats_, "host.major_faults_ram"};
};

} // namespace jtps::hv

#endif // JTPS_HV_HYPERVISOR_HH
