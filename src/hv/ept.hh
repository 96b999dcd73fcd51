/**
 * @file
 * Extended page table (EPT) model: the hypervisor-level translation from
 * guest physical frames (gfn) to host physical frames (hfn).
 *
 * This is the second translation layer of the paper's Fig. 1(b): the
 * guest OS translates process virtual pages to gfns (src/guest), and the
 * EPT translates gfns to hfns. TPS operates entirely at this layer: KSM
 * repoints EPT entries of different VMs at one host frame and
 * write-protects them.
 */

#ifndef JTPS_HV_EPT_HH
#define JTPS_HV_EPT_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace jtps::hv
{

/** Residency state of one guest physical frame. */
enum class PageState : std::uint8_t
{
    NotPresent, //!< never touched; reads see zeroes, writes allocate
    Resident,   //!< backed by a host frame
    Swapped,    //!< evicted by the host; access triggers a major fault
};

/**
 * One EPT entry, packed into one word since every guest page has one.
 * `backing` holds the hfn when Resident and the swap slot when
 * Swapped; both lie below 2^backingBits (mem::FrameTable and
 * mem::SwapDevice refuse any that would not).
 *
 * The entry is the page's only per-mapping record. Write protection
 * is not stored: a write copies the frame exactly when it is shared or
 * KSM-stable (mem::Frame's refcount and ksmStable), and per-VM page
 * counts are walks over the entries (Hypervisor::pagesIn()). KSM's
 * per-page calm checksum is scanner-owned state in ksm::KsmScanner,
 * which learns about entry resets through hv::PageEventListener.
 */
struct EptEntry
{
    std::uint64_t backing : backingBits = 0;
    PageState state : 2 = PageState::NotPresent;
    /**
     * Backed by a transparent huge page, so not madvise-MERGEABLE:
     * KSM skips it. Set by the guest for huge-backed anonymous memory
     * whatever the page's state, cleared before the guest frees the
     * gfn (and by any entry reset).
     */
    bool huge : 1 = false;
    /**
     * The page already has an entry in its VM's PML ring for the
     * current drain cycle. Mirrors hardware PML, which logs a gfn on
     * the dirty-bit *transition* and not on every store: one ring
     * entry per page per cycle, cleared when the ring is drained.
     */
    bool pmlLogged : 1 = false;
};

static_assert(sizeof(EptEntry) == 8, "EptEntry layout grew");

/**
 * A VM's EPT: a dense array of entries, one per guest physical frame.
 */
class Ept
{
  public:
    /** @param guest_frames Number of guest physical frames. */
    explicit Ept(std::uint64_t guest_frames) : entries_(guest_frames) {}

    /** Entry for @p gfn (bounds-checked). */
    EptEntry &
    entry(Gfn gfn)
    {
        jtps_assert(gfn < entries_.size());
        return entries_[gfn];
    }

    /** Read-only entry for @p gfn. */
    const EptEntry &
    entry(Gfn gfn) const
    {
        jtps_assert(gfn < entries_.size());
        return entries_[gfn];
    }

    /** Number of guest physical frames. */
    std::uint64_t size() const { return entries_.size(); }

  private:
    std::vector<EptEntry> entries_;
};

} // namespace jtps::hv

#endif // JTPS_HV_EPT_HH
