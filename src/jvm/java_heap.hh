/**
 * @file
 * Page-granular Java heap model with two garbage collection policies.
 *
 * The model reproduces the paper's two heap sharing-killers (§III.B):
 *
 *  1. GC *moves* objects — on every collection the surviving data is
 *     rewritten at new offsets, so live-page content changes and KSM's
 *     calm filter never admits it.
 *  2. GC *zero-fills* reclaimed memory — the tail beyond the survivors
 *     becomes zero pages that are resident and briefly shareable ("most
 *     of the shared pages were those filled with zeros... soon modified
 *     and divided"): allocation re-dirties them within one or two GC
 *     periods.
 *
 * Additionally, object *headers* mutate under monitor operations even
 * for read-only objects; mutateHeaders() models that.
 *
 * Policies:
 *  - OptThruput: a flat heap with stop-the-world mark-sweep-compact
 *    (IBM J9's default -Xgcpolicy:optthruput).
 *  - Gencon: generational — a nursery collected by copying plus a
 *    tenured space collected by compaction (used by the paper's
 *    SPECjEnterprise runs: 530 MB nursery + 200 MB tenured).
 */

#ifndef JTPS_JVM_JAVA_HEAP_HH
#define JTPS_JVM_JAVA_HEAP_HH

#include <cstdint>

#include "base/rng.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "guest/guest_os.hh"

namespace jtps::jvm
{

/** Heap / GC configuration (paper Table III). */
struct GcConfig
{
    enum class Policy
    {
        OptThruput, //!< flat compacting heap
        Gencon      //!< generational: copying nursery + tenured
    };

    Policy policy = Policy::OptThruput;
    /** Total heap (-Xms = -Xmx as in the paper's runs). */
    Bytes heapBytes = 530 * MiB;
    /** Nursery size; Gencon only (rest of the heap is tenured). */
    Bytes nurseryBytes = 0;
    /** Fraction of the compacted space that survives a global GC. */
    double liveFraction = 0.55;
    /** Allocation-cursor fraction that triggers a collection. */
    double gcTriggerFraction = 0.90;
    /** Fraction of the nursery surviving a minor (copying) GC. */
    double nurserySurvivorFraction = 0.08;
    /** Fraction of the nursery promoted to tenured per minor GC. */
    double promoteFraction = 0.015;
    /**
     * Fraction of reclaimed space the collector eagerly zero-fills
     * (allocation-adjacent TLH prefetch zeroing). The rest keeps stale
     * object bytes until reallocated, as a real sweep does. The zeroed
     * prefix is what produces the paper's small, transient zero-page
     * sharing in the heap.
     */
    double zeroFillFraction = 0.15;
    /**
     * Fraction of the heap above the allocation trigger (GC headroom)
     * that the first collection clears and allocation never refills.
     * These long-lived zero pages are the paper's observed residual
     * heap sharing (~0.7%): stable enough for KSM's calm filter, all
     * zero, merged across every VM.
     */
    double headroomZeroFraction = 0.007;
};

/**
 * The heap of one Java process.
 */
class JavaHeap
{
  public:
    /**
     * @param os Guest OS hosting the process.
     * @param pid Owning process.
     * @param cfg GC configuration.
     * @param proc_seed Per-process content seed (object addresses,
     *                  hash codes... differ per process).
     */
    JavaHeap(guest::GuestOs &os, Pid pid, const GcConfig &cfg,
             std::uint64_t proc_seed);

    /** Map the heap VMA (-Xms committed, demand-paged). */
    void init();

    /** Allocate @p bytes of objects; runs GC when the space fills. */
    void allocate(Bytes bytes);

    /**
     * Mutate @p count object headers in live data (monitor acquisition,
     * identity-hash installation): dirties one sector of a live page.
     */
    void mutateHeaders(std::uint32_t count, Rng &rng);

    /**
     * Touch @p pages live pages (request working set). Accesses are
     * skewed: most requests hit a hot subset of the live data
     * (session state, hot tables), the rest scan uniformly — the skew
     * that lets a loaded host tolerate swapping *cold* pages but
     * collapse once the hot sets exceed RAM (Figs. 7-8).
     */
    void touchLive(std::uint32_t pages, Rng &rng);

    /** Fraction of live data forming the hot working set. */
    static constexpr double hotFraction = 0.25;
    /** Probability that a touch lands in the hot subset. */
    static constexpr double hotProbability = 0.9;

    /** Completed global (compacting) collections. */
    std::uint64_t globalGcCount() const { return global_gcs_; }

    /** Completed minor (copying) collections; Gencon only. */
    std::uint64_t minorGcCount() const { return minor_gcs_; }

    /** Total bytes allocated so far. */
    Bytes allocatedBytes() const { return allocated_bytes_; }

    /** The heap's VMA. */
    const guest::Vma *vma() const { return vma_; }

    /** Current live pages (for working-set sizing). */
    std::uint64_t livePages() const;

  private:
    /** Write object content over pages [first, first + count). */
    void writeObjectPages(std::uint64_t first, std::uint64_t count,
                          std::uint64_t salt);
    /** Zero-fill pages [first, first + count). */
    void zeroPages(std::uint64_t first, std::uint64_t count);
    void clearHeadroomOnce();
    void globalGc();
    void minorGc();

    guest::GuestOs &os_;
    Pid pid_;
    GcConfig cfg_;
    std::uint64_t proc_seed_;
    Rng rng_;

    guest::Vma *vma_ = nullptr;
    std::uint64_t heap_pages_ = 0;
    std::uint64_t nursery_pages_ = 0; //!< 0 for OptThruput

    /** Allocation cursor within the allocation space, in pages. */
    std::uint64_t cursor_ = 0;
    /** End of live (compacted/survivor) data, in pages. */
    std::uint64_t live_end_ = 0;
    /** Tenured allocation cursor, in pages from nursery end (Gencon). */
    std::uint64_t tenured_cursor_ = 0;
    /** Sub-page allocation remainder in bytes. */
    Bytes partial_ = 0;

    bool headroom_cleared_ = false;
    std::uint64_t gc_epoch_ = 0;
    std::uint64_t global_gcs_ = 0;
    std::uint64_t minor_gcs_ = 0;
    std::uint64_t header_muts_ = 0;
    Bytes allocated_bytes_ = 0;
};

} // namespace jtps::jvm

#endif // JTPS_JVM_JAVA_HEAP_HH
