/**
 * @file
 * Host physical memory: the frame table.
 *
 * The FrameTable owns every host physical 4 KiB frame, its content, its
 * reference count, and its reverse mappings (which VM guest-frames map to
 * it). The hypervisor performs all mapping changes through this API so
 * that the invariant "refcount == number of reverse mappings == number of
 * EPT entries pointing at the frame" can be enforced centrally — it is
 * what makes the paper's owner-oriented accounting well defined.
 *
 * Eviction is sampled LRU over each frame's last-touch time, with one
 * clock hand that sweeps frame numbers in order when a sample finds
 * nothing eligible, so that the overcommit experiments (Figs. 7 and 8)
 * scale to millions of frames without O(n) victim scans.
 *
 * Frames live in fixed slabs of kSlabFrames that never move: growing
 * the table appends in place (no element copies), and a Frame&
 * stays valid across later allocations. A frame holds its first
 * reverse mapping inline; the rest of a shared frame's mappings live
 * in a side table of spill lists, so the unshared majority of frames
 * carries no vector.
 */

#ifndef JTPS_MEM_FRAME_TABLE_HH
#define JTPS_MEM_FRAME_TABLE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/logging.hh"
#include "base/packed_gfn.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "mem/page_data.hh"

namespace jtps::mem
{

/** One reverse-mapping entry: a guest frame of some VM maps here.
 *  8 bytes: the gfn is stored in 32 bits. */
struct Mapping
{
    VmId vm = invalidVm;
    PackedGfn gfn;

    bool operator==(const Mapping &other) const = default;
};

static_assert(sizeof(Mapping) == 8, "Mapping layout grew");

/**
 * Refuse, with a fatal() error, a host frame number or swap slot id
 * that an EPT entry's backing field (backingBits wide) cannot hold.
 * @param what Names the value in the message ("swap slot id").
 */
void checkBacking(std::uint64_t value, const char *what);

/**
 * One host physical frame. Fields are public within the mem module;
 * external code goes through FrameTable.
 *
 * 88 bytes: the content, the LRU age, one packed word of refcount and
 * flags, the frame's spill slot and its first reverse mapping. Reverse
 * mappings beyond the first live in the table's spill lists (see
 * FrameTable::extraOf()), since only a KSM-shared frame has any.
 */
struct Frame
{
    PageData data;
    std::uint64_t lastTouch = 0; //!< logical access time (LRU age)
    std::uint32_t refcount : 30 = 0;
    bool ksmStable : 1 = false; //!< member of the KSM stable tree
    bool pinned : 1 = false;    //!< never evicted (hypervisor-private)
    /** Slot of this frame's spill list in its FrameTable; 0 while
     *  the frame has no mapping beyond the primary one. */
    std::uint32_t spill = 0;
    /** First reverse mapping, inline: most frames have exactly one. */
    Mapping primary;
};

static_assert(sizeof(Frame) == 88, "Frame layout grew");

/**
 * The host frame table: allocation, refcounting, reverse mappings, and
 * clock-based victim selection.
 *
 * Concurrency: none. A table belongs to one host, and a host is only
 * ever driven by one thread at a time; there is no internal
 * synchronization.
 */
class FrameTable
{
  public:
    /** Frames per storage slab (a power of two). */
    static constexpr unsigned kSlabShift = 16;
    static constexpr std::uint64_t kSlabFrames = std::uint64_t{1}
                                                 << kSlabShift;

    /** Reverse-mapping capacity reserved on a frame's first spill out
     *  of the inline mapping (16 sharers before the first regrowth),
     *  so 256-VM KSM chains do not reallocate per merge. */
    static constexpr std::size_t kExtraReserve = 15;

    /** Largest refcount the packed Frame word holds. */
    static constexpr std::uint32_t kMaxRefcount = (1u << 30) - 1;

    /**
     * @param capacity_frames Size of host physical memory in frames.
     * @param stats Optional stat sink ("host." prefixed counters).
     */
    explicit FrameTable(std::uint64_t capacity_frames,
                        StatSet *stats = nullptr);

    /**
     * Allocate a frame holding @p initial, mapped by @p m.
     * @return the new frame number, or invalidFrame if memory is full
     *         (the caller — the hypervisor — must evict and retry).
     */
    Hfn alloc(const Mapping &m, const PageData &initial);

    /**
     * Allocate a frame with no guest mapping (hypervisor-private memory,
     * e.g. the VM process overhead). Pinned frames are never evicted and
     * are attributed to the VM itself by the analysis layer.
     */
    Hfn allocPinned(const PageData &initial);

    /** Add a reverse mapping (sharing the frame); bumps refcount. */
    void addMapping(Hfn hfn, const Mapping &m);

    /**
     * Remove a reverse mapping; drops refcount and frees the frame when
     * it reaches zero.
     * @return true if the frame was freed.
     */
    bool removeMapping(Hfn hfn, const Mapping &m);

    /** Free a pinned frame. */
    void freePinned(Hfn hfn);

    /**
     * Mark/unmark @p hfn as a KSM stable frame. All stable-flag changes
     * go through here (not through frame().ksmStable) so that the O(1)
     * sharing counters stay consistent.
     */
    void setKsmStable(Hfn hfn, bool stable);

    /**
     * Number of KSM stable frames, like /sys/kernel/mm/ksm/pages_shared.
     * Maintained incrementally: the sharing monitor samples this on a
     * period, and a full-table walk per sample does not scale.
     */
    std::uint64_t ksmStableFrames() const { return ksm_stable_frames_; }

    /**
     * Number of guest pages deduplicated into stable frames, like
     * pages_sharing: sum over stable frames of refcount - 1. O(1).
     */
    std::uint64_t ksmSharingMappings() const
    {
        return ksm_sharing_mappings_;
    }

    /**
     * Write generation of @p hfn: a value from one monotonic clock,
     * assigned on allocation and re-assigned on every content change
     * (noteWrite()) and on every stable-flag transition
     * (setKsmStable()), so generations are globally unique and never
     * reused; an equal generation proves
     * that a cached observation refers to *this* allocation of the
     * frame number (a freed and recycled hfn gets a fresh generation
     * from allocRaw()), that the content is unchanged since the
     * observation, and that the frame has not joined or left the
     * stable tree in between — which is what lets the KSM scanner skip
     * digest work, and even loading the Frame itself, without any
     * content heuristic. Kept in a dense side array so the scanner's
     * generation compare touches 8 bytes per frame instead of a whole
     * Frame.
     */
    std::uint64_t
    writeGen(Hfn hfn) const
    {
        jtps_assert(isAllocated(hfn));
        return write_gens_[hfn];
    }

    /**
     * Record a content write to @p f, the frame at @p hfn (the caller
     * resolved it, so it is allocated): restart its LRU age, as
     * touch() does, and advance its write generation. Every guest write
     * funnels through the hypervisor's frameForWrite(), which calls
     * this; fresh allocations get a new generation from allocRaw().
     * @return the frame's new write generation.
     */
    std::uint64_t
    noteWrite(Hfn hfn, Frame &f)
    {
        f.lastTouch = ++access_clock_;
        return write_gens_[hfn] = ++gen_clock_;
    }

    /**
     * Hint that writeGen(@p hfn) is about to be read. The generation
     * array is indexed by host frame number while the KSM scanner
     * walks in guest frame order, so the read is effectively random;
     * issuing it a few pages ahead hides the miss latency. An hfn past
     * the table is ignored.
     */
    void
    prefetchWriteGen(Hfn hfn) const
    {
        if (hfn < frameCount())
            __builtin_prefetch(write_gens_.data() + hfn);
    }

    /** Mutable access to a frame (must be allocated). */
    Frame &
    frame(Hfn hfn)
    {
        jtps_assert(isAllocated(hfn));
        return slot(hfn);
    }

    /** Read-only access to a frame (must be allocated). */
    const Frame &
    frame(Hfn hfn) const
    {
        jtps_assert(isAllocated(hfn));
        return slot(hfn);
    }

    /** True if @p hfn currently holds an allocated frame. */
    bool
    isAllocated(Hfn hfn) const
    {
        return hfn < frameCount() && allocBit(hfn);
    }

    /** Mark the frame recently used (its LRU age restarts). */
    void touch(Hfn hfn);

    /**
     * The reverse mappings of @p f beyond its primary one, in the
     * order they were added (a removal keeps the others in order).
     * Empty, with no storage behind it, while @p f has no spill slot.
     */
    const std::vector<Mapping> &
    extraOf(const Frame &f) const
    {
        return spills_[f.spill];
    }

    /** Call @p fn for every reverse mapping of @p f: the primary one,
     *  then extraOf(@p f). */
    template <typename Fn>
    void
    forEachMapping(const Frame &f, Fn &&fn) const
    {
        if (f.refcount == 0)
            return;
        fn(f.primary);
        for (const Mapping &m : spills_[f.spill])
            fn(m);
    }

    /** Spill slots currently owned by a frame (frames with more than
     *  one reverse mapping). */
    std::size_t
    spillSlotsLive() const
    {
        return spills_.size() - 1 - free_spills_.size();
    }

    /**
     * Pick an eviction victim by sampled LRU: draw a fixed-size random
     * sample of frames and evict the least recently touched eligible
     * one — a good approximation of the kernel's global LRU reclaim
     * that treats every process's memory uniformly by recency. Pinned
     * frames are skipped; frames with refcount > 1 are only eligible
     * when @p allow_shared is set. Falls back to a clock sweep when the
     * sample finds nothing eligible (`host.victim_fallback_sweeps`):
     * one hand walks frame numbers in order, wrapping at the end of
     * the table, and stops just past the frame it returns.
     * @return a victim frame number, or invalidFrame if none exists.
     */
    Hfn pickVictim(bool allow_shared);

    /** Host physical capacity in frames. */
    std::uint64_t capacity() const { return capacity_; }

    /** Frame numbers handed out so far (allocated or free-listed):
     *  every hfn lies below it. */
    std::uint64_t frameCount() const { return write_gens_.size(); }

    /** Number of allocated (resident) frames. */
    std::uint64_t resident() const { return resident_; }

    /** Frames still available without eviction. */
    std::uint64_t freeFrames() const { return capacity_ - resident_; }

    /**
     * Call @p fn(hfn, frame) for every allocated frame. Word-scans the
     * allocation bitmap, so sparse tables (a few resident frames in a
     * large capacity) cost one 64-bit test per 64 empty slots instead
     * of one branch per slot.
     */
    template <typename Fn>
    void
    forEachResident(Fn &&fn) const
    {
        for (std::size_t w = 0; w < allocated_.size(); ++w) {
            std::uint64_t bits = allocated_[w];
            while (bits != 0) {
                const int bit = __builtin_ctzll(bits);
                bits &= bits - 1;
                const Hfn h =
                    (static_cast<Hfn>(w) << 6) | static_cast<Hfn>(bit);
                fn(h, slot(h));
            }
        }
    }

    using MappingFn = std::function<void(Hfn, const Mapping &)>;

    /**
     * Audit in one walk over every frame: each live spill slot has one
     * owner, free slots are empty and unowned, refcount == 1 + spill
     * size (pinned: 1, no spill), the resident and KSM counters match a
     * recount, and each non-pinned frame's reverse mappings go to
     * @p on_mapping(hfn, mapping). Panics on violation.
     */
    void checkConsistency(const MappingFn &on_mapping = {}) const;

  private:
    Hfn allocRaw(const PageData &initial);
    void freeRaw(Hfn hfn);

    /** First spill out of the inline mapping: give @p f a slot (a
     *  recycled one first) reserved once, so KSM chains grow without
     *  per-merge reallocation. */
    void takeSpill(Frame &f);

    /** Last unshare: release @p f's slot and its storage. */
    void releaseSpill(Frame &f);

    /** Storage of @p hfn (hfn < frameCount() required). */
    Frame &
    slot(Hfn hfn)
    {
        return slabs_[hfn >> kSlabShift][hfn & (kSlabFrames - 1)];
    }

    const Frame &
    slot(Hfn hfn) const
    {
        return slabs_[hfn >> kSlabShift][hfn & (kSlabFrames - 1)];
    }

    /** Test @p hfn's allocation bit (hfn < frameCount() required). */
    bool
    allocBit(Hfn hfn) const
    {
        return (allocated_[hfn >> 6] >> (hfn & 63)) & 1;
    }

    void
    setAllocBit(Hfn hfn)
    {
        allocated_[hfn >> 6] |= std::uint64_t{1} << (hfn & 63);
    }

    void
    clearAllocBit(Hfn hfn)
    {
        allocated_[hfn >> 6] &= ~(std::uint64_t{1} << (hfn & 63));
    }

    std::uint64_t capacity_;
    std::uint64_t resident_ = 0;
    /** Incremental counters behind ksmStableFrames()/ksmSharingMappings();
     *  checkConsistency() cross-checks them against a full walk. */
    std::uint64_t ksm_stable_frames_ = 0;
    std::uint64_t ksm_sharing_mappings_ = 0;
    /** The write-generation clock (see writeGen()); pre-incremented,
     *  so no frame ever gets generation 0. */
    std::uint64_t gen_clock_ = 0;
    /** Frame storage: slab i holds hfns [i * kSlabFrames,
     *  (i + 1) * kSlabFrames). Each slab is reserved when opened (to at
     *  most kSlabFrames, never past capacity) and only appended to, so
     *  it never reallocates. */
    std::vector<std::vector<Frame>> slabs_;
    /** Per-frame write generations, one per hfn handed out — kept
     *  dense for the scanner's generation fast path; its size is the
     *  table's frame count. */
    std::vector<std::uint64_t> write_gens_;
    /** Allocation bitmap, 64 frames per word (bit i of word w covers
     *  hfn 64w + i) so forEachResident() can skip empty runs
     *  wordwise. */
    std::vector<std::uint64_t> allocated_;
    std::vector<Hfn> free_list_;
    /** Spill lists: the reverse mappings of a frame beyond its primary
     *  one, at the frame's spill slot. Slot 0 is the permanent empty
     *  list of every frame without one. */
    std::vector<std::vector<Mapping>> spills_ =
        std::vector<std::vector<Mapping>>(1);
    /** Released spill slots (empty, no storage), reused first. */
    std::vector<std::uint32_t> free_spills_;
    /** Where the next fallback sweep starts (see pickVictim()). */
    Hfn clock_hand_ = 0;
    std::uint64_t access_clock_ = 0; //!< logical time for LRU ages
    Rng victim_rng_{stringTag("frame-lru")};
    StatCounter stat_frames_allocated_;
    StatCounter stat_frames_freed_;
    StatCounter stat_mappings_added_;
    StatCounter stat_victim_fallback_sweeps_;
};

} // namespace jtps::mem

#endif // JTPS_MEM_FRAME_TABLE_HH
