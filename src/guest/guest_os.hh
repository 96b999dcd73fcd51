/**
 * @file
 * The guest operating system model.
 *
 * One GuestOs instance runs inside each guest VM. It owns the first
 * translation layer of the paper's Fig. 1(b): per-process page tables
 * mapping virtual pages (Vpn) to guest physical frames (Gfn). The
 * hypervisor (src/hv) owns the second layer (Gfn to Hfn).
 *
 * Modelled guest-OS services:
 *  - processes with category-tagged virtual memory areas (VMAs),
 *  - demand-paged anonymous memory (a gfn is assigned on first write),
 *  - a file page cache: file pages are read once into kernel-owned
 *    cache frames, and file-backed mmaps of user processes map the
 *    *same* gfn — intra-VM sharing, exactly as in Linux,
 *  - kernel memory (text, data, slab) populated at boot.
 *
 * Address-space layout randomization is modelled: each process's mmap
 * cursor starts at a seed-dependent base and regions are separated by
 * random guard gaps, so virtual addresses differ across processes and
 * VMs even for identical workloads.
 */

#ifndef JTPS_GUEST_GUEST_OS_HH
#define JTPS_GUEST_GUEST_OS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "base/units.hh"
#include "guest/file_image.hh"
#include "guest/mem_category.hh"
#include "hv/hypervisor.hh"

namespace jtps::guest
{

/** One virtual memory area of a guest process. */
struct Vma
{
    std::string name;
    MemCategory category = MemCategory::JvmWork;
    Pid pid = invalidPid;
    Vpn startVpn = 0;
    std::uint64_t numPages = 0;
    bool fileBacked = false;
    /** Backed by transparent huge pages: KSM cannot merge these
     *  (madvise-MERGEABLE and THP are mutually exclusive). */
    bool hugeBacked = false;
    std::uint64_t fileTag = 0; //!< content tag when fileBacked

    /** Virtual page number of page @p index of the region. */
    Vpn
    vpnAt(std::uint64_t index) const
    {
        return startVpn + index;
    }

    Bytes bytes() const { return pagesToBytes(numPages); }
};

/** One guest process (pid 0 is the kernel pseudo-process). */
struct GuestProcess
{
    Pid pid = invalidPid;
    std::string name;
    bool isJava = false;
    std::vector<std::unique_ptr<Vma>> vmas;
    /** First-layer page table: vpn -> gfn. */
    std::unordered_map<Vpn, Gfn> pageTable;
    /** Anonymous pages the *guest* swapped to its own swap device
     *  (content preserved guest-side; no gfn while swapped). */
    std::unordered_map<Vpn, mem::PageData> swappedOut;
    /** mmap cursor (next free vpn). */
    Vpn nextVpn = 0;
};

/** Kernel footprint configuration (calibrated against paper Fig. 2). */
struct KernelConfig
{
    std::string version = "linux-2.6.18-194.3.1.el5debug";
    Bytes textBytes = 24 * MiB;  //!< kernel code+rodata (identical)
    Bytes dataBytes = 8 * MiB;   //!< static data (per-VM)
    Bytes slabBytes = 26 * MiB;  //!< dynamic kernel allocations (per-VM)
    /** Base-image files cached at boot: identical across VMs. */
    Bytes sharedBootCacheBytes = 82 * MiB;
    /** Per-VM files cached at boot (logs, generated configs). */
    Bytes privateBootCacheBytes = 72 * MiB;
};

/**
 * The guest OS running in one VM.
 */
class GuestOs
{
  public:
    /**
     * @param hv Hypervisor hosting this guest.
     * @param vm_id This guest's VM id (already created in @p hv).
     * @param name Guest name for reports.
     * @param seed Per-VM seed: drives ASLR and all per-VM content.
     */
    GuestOs(hv::Hypervisor &hv, VmId vm_id, std::string name,
            std::uint64_t seed);

    GuestOs(const GuestOs &) = delete;
    GuestOs &operator=(const GuestOs &) = delete;

    /** Populate kernel memory and the boot page cache. */
    void bootKernel(const KernelConfig &cfg);

    /**
     * Enable transparent huge pages for anonymous memory of user
     * processes mapped from now on. THP and KSM fight: huge-backed
     * pages are skipped by the scanner (the ablation bench measures
     * the cost).
     */
    void setThpEnabled(bool enabled) { thp_enabled_ = enabled; }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /** Create a process; pids are assigned sequentially from 1. */
    Pid spawn(const std::string &name, bool is_java);

    /**
     * Create a small non-Java daemon with @p anon_bytes of private
     * memory and @p text_bytes of file-backed text (from the base
     * image, so daemon text TPS-shares across VMs).
     */
    Pid spawnDaemon(const std::string &name, Bytes anon_bytes,
                    Bytes text_bytes);

    GuestProcess &process(Pid pid);
    const GuestProcess &process(Pid pid) const;

    /** All processes including the kernel pseudo-process (pid 0). */
    const std::vector<std::unique_ptr<GuestProcess>> &
    processes() const
    {
        return processes_;
    }

    // ------------------------------------------------------------------
    // Memory mapping
    // ------------------------------------------------------------------

    /** Map anonymous memory; pages materialize on first write. */
    Vma *mmapAnon(Pid pid, Bytes bytes, MemCategory cat,
                  const std::string &name);

    /**
     * Map a file; the process's pages alias the kernel page cache, so
     * the mapping is populated (and cache-filled) on touch.
     */
    Vma *mmapFile(Pid pid, const FileImage &file, MemCategory cat);

    /** Unmap a region (drops PTEs; cache pages stay cached). */
    void munmap(Pid pid, Vma *vma);

    // ------------------------------------------------------------------
    // Memory access (all guest-side accesses go through these)
    // ------------------------------------------------------------------

    /** Write one sector word of page @p index in @p vma. */
    void writeWord(const Vma *vma, std::uint64_t index, unsigned sector,
                   std::uint64_t value);

    /** Write a full page of @p vma. */
    void writePage(const Vma *vma, std::uint64_t index,
                   const mem::PageData &data);

    /** Read one sector word (faulting in file content if needed). */
    std::uint64_t readWord(const Vma *vma, std::uint64_t index,
                           unsigned sector);

    /**
     * Touch a page (working-set access): populates file-backed pages,
     * swap-faults host-paged-out pages, refreshes clock bits.
     */
    void touch(const Vma *vma, std::uint64_t index);

    /**
     * Release one anonymous page (GC decommit / free): the host frame
     * and the gfn are freed; the next write starts from a zero page.
     * No-op for file-backed pages.
     */
    void discard(const Vma *vma, std::uint64_t index);

    // ------------------------------------------------------------------
    // Page cache
    // ------------------------------------------------------------------

    /** Read an entire file through the page cache (e.g. at boot). */
    void readFile(const FileImage &file);

    /** Cache lookup/fill for one file page; returns its gfn. */
    Gfn pageCacheGet(const FileImage &file, std::uint64_t index);

    /** Number of page-cache-resident pages. */
    std::uint64_t pageCachePages() const { return cache_used_; }

    /**
     * Ongoing file activity (log writes, DB I/O, jar re-reads): touch
     * @p pages random cached pages, keeping the page cache warm. Under
     * host overcommit these touches fault like any other access.
     */
    void touchPageCache(std::uint32_t pages);

    /**
     * File activity over the whole registered file space: cached pages
     * are touched; uncached ones are read from disk into the cache
     * (counted in cacheMisses()). After balloon/cache reclaim, this is
     * how dropped pages come back — at disk cost.
     */
    void touchFileSpace(std::uint32_t pages);

    /**
     * Guest-side page-cache reclaim (what a balloon inflation or
     * memory pressure triggers): drop up to @p pages clean, unmapped
     * cache pages, freeing their guest frames and host frames.
     * @return pages actually reclaimed.
     */
    std::uint64_t reclaimPageCache(std::uint64_t pages);

    /** Cumulative cache misses (disk reads) from touchFileSpace. */
    std::uint64_t cacheMisses() const { return cache_misses_; }

    // ------------------------------------------------------------------
    // Guest-internal reclaim and swap
    // ------------------------------------------------------------------
    //
    // When the guest runs out of guest physical frames it reclaims like
    // a real kernel: clean unmapped page cache is dropped first; then
    // anonymous pages are swapped to the guest's own swap device (its
    // virtual disk). This is the third memory-relief mechanism of the
    // paper's introduction, alongside host TPS and host paging — and
    // what ballooning ultimately relies on.

    /** Size the guest swap device (default 1 GiB). */
    void setGuestSwapBytes(Bytes bytes);

    /** Anon pages currently in the guest swap. */
    std::uint64_t guestSwappedPages() const { return guest_swapped_; }

    /** Guest-level major faults (swap-ins from the guest's disk). */
    std::uint64_t guestMajorFaults() const
    {
        return guest_major_faults_;
    }

    /** Guest-level swap-outs performed. */
    std::uint64_t guestSwapOuts() const { return guest_swapouts_; }

    /**
     * Balloon support: take @p pages guest frames out of circulation
     * (reclaiming as needed) so the hypervisor can reuse the host
     * frames. @return pages actually taken.
     */
    std::uint64_t balloonTake(std::uint64_t pages);

    /** Return @p pages ballooned frames to the guest's free pool. */
    void balloonReturn(std::uint64_t pages);

    /** Frames currently held by the balloon. */
    std::uint64_t balloonHeldPages() const { return balloon_held_; }

    /**
     * Record a guest-originated trace event (GC cycle, balloon move)
     * against this VM in the hypervisor's trace sink, if one is wired.
     */
    void traceRecord(TraceEventType type, std::uint64_t arg0,
                     std::uint64_t arg1);

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    VmId vmId() const { return vm_id_; }
    const std::string &name() const { return name_; }
    std::uint64_t seed() const { return seed_; }
    hv::Hypervisor &hv() { return hv_; }
    const hv::Hypervisor &hv() const { return hv_; }

    /** Guest physical frames handed out so far. */
    std::uint64_t gfnsAllocated() const { return gfns_used_; }

    /** Guest physical memory size in pages. */
    std::uint64_t guestPages() const;

    /** Per-guest RNG (used by the JVM model for this guest). */
    Rng &rng() { return rng_; }

  private:
    Gfn allocGfn();
    void freeGfn(Gfn gfn);

    /** Record a file in the registry (idempotent). */
    void registerFile(const FileImage &file);

    /** Drop one process-mapping reference from a cache page. */
    void dropCacheMapRef(Gfn gfn);

    /** Free one guest frame under memory pressure: drop clean cache,
     *  else swap out an anonymous page. @return false if stuck. */
    bool reclaimOneGuestPage();

    /** Swap one sampled anonymous page out to the guest swap device.
     *  @return false if no victim was found or swap is full. */
    bool swapOutOneAnonPage();

    /** Bring a guest-swapped page back in (guest major fault). */
    Gfn guestSwapIn(GuestProcess &proc, Vpn vpn);

    /** Assign a vpn range for @p pages with an ASLR-style guard gap. */
    Vpn carveVpnRange(GuestProcess &proc, std::uint64_t pages);

    /** Resolve (ensure) the gfn backing page @p index of @p vma. */
    Gfn ensureMapped(const Vma *vma, std::uint64_t index);

    hv::Hypervisor &hv_;
    VmId vm_id_;
    std::string name_;
    std::uint64_t seed_;
    Rng rng_;

    std::vector<std::unique_ptr<GuestProcess>> processes_;

    bool thp_enabled_ = false;
    std::uint64_t guest_swap_limit_pages_ = bytesToPages(1 * GiB);
    std::uint64_t guest_swapped_ = 0;
    std::uint64_t guest_major_faults_ = 0;
    std::uint64_t guest_swapouts_ = 0;
    std::uint64_t balloon_held_ = 0;
    Gfn next_gfn_ = 0;
    std::vector<Gfn> gfn_free_list_;
    std::uint64_t gfns_used_ = 0;

    /** Files seen by this guest, by content tag. */
    std::unordered_map<std::uint64_t, FileImage> files_;

    /** Page cache index: file tag -> page index -> gfn. */
    std::unordered_map<std::uint64_t,
                       std::unordered_map<std::uint64_t, Gfn>>
        cache_index_;
    std::uint64_t cache_used_ = 0;
    Vma *cache_vma_ = nullptr; //!< kernel VMA holding cache pages
    std::uint64_t cache_cursor_ = 0;

    /** One cached file page (for random touching and reclaim). */
    struct CachePage
    {
        std::uint64_t fileTag = 0;
        std::uint64_t index = 0;
        Gfn gfn = invalidFrame;
        Vpn vpn = 0; //!< slot in the kernel cache VMA
    };
    std::vector<CachePage> cache_pages_;
    /** Process mmap references per cache gfn (mapped pages are not
     *  reclaimable). */
    std::unordered_map<Gfn, std::uint32_t> cache_mapcount_;
    std::uint64_t cache_misses_ = 0;
    /** File tags in registration order, for file-space sampling. */
    std::vector<std::uint64_t> file_order_;
};

} // namespace jtps::guest

#endif // JTPS_GUEST_GUEST_OS_HH
