/**
 * @file
 * Host swap device.
 *
 * When the host overcommits (the density experiments of Figs. 7 and 8),
 * evicted frames are written here together with their reverse-mapping
 * list, so that a later fault can restore the frame *and* its sharing
 * structure. Swap-in re-establishes every mapping the frame had; this
 * mirrors Linux's swap cache behaviour closely enough for the throughput
 * model, and keeps the refcount invariants exact.
 */

#ifndef JTPS_MEM_SWAP_DEVICE_HH
#define JTPS_MEM_SWAP_DEVICE_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/logging.hh"

#include "base/stats.hh"
#include "base/trace.hh"
#include "base/types.hh"
#include "mem/frame_table.hh"
#include "mem/page_data.hh"

namespace jtps::mem
{

/** Identifier of a swap slot. */
using SwapSlot = std::uint64_t;

/** Sentinel for "no swap slot". */
constexpr SwapSlot invalidSwapSlot = UINT64_MAX;

/**
 * Where an evicted page's content lives. The paper's related work
 * (§VI, Difference Engine / Active Memory Expansion) pages to
 * *compressed RAM* before disk: refaults from the RAM tier cost a
 * decompression, not a disk seek.
 */
enum class SwapTier : std::uint8_t
{
    Disk,
    CompressedRam,
};

/**
 * The swap device: a map from slot id to stored page content plus the
 * mappings that referenced the evicted frame.
 */
class SwapDevice
{
  public:
    /** @param stats Optional stat sink ("host." prefixed). */
    explicit SwapDevice(StatSet *stats = nullptr)
        : stat_pswpout_(stats, "host.pswpout"),
          stat_pswpin_(stats, "host.pswpin"),
          stat_slots_(stats, "host.swap_slots"),
          stat_slots_ram_(stats, "host.swap_slots_ram")
    {
    }

    /** Wire a trace sink (swap_out / swap_in events); nullptr detaches. */
    void setTrace(TraceBuffer *trace) { trace_ = trace; }

    /** Contents of one slot. */
    struct Slot
    {
        PageData data;
        std::vector<Mapping> mappings;
        SwapTier tier = SwapTier::Disk;
    };

    /**
     * Store an evicted page; returns the slot id. An EPT entry holds
     * the id in its backing field, so an id of 2^backingBits or more
     * is refused.
     */
    SwapSlot
    store(const PageData &data, std::vector<Mapping> mappings,
          SwapTier tier = SwapTier::Disk)
    {
        checkBacking(next_slot_, "swap slot id");
        SwapSlot id = next_slot_++;
        slots_.emplace(id, Slot{data, std::move(mappings), tier});
        if (tier == SwapTier::CompressedRam)
            ++ram_slots_;
        stat_pswpout_.inc();
        publishSlots();
        if (trace_) {
            const Slot &s = slots_.at(id);
            trace_->record(TraceEventType::SwapOut,
                           s.mappings.empty() ? invalidVm
                                              : s.mappings.front().vm,
                           s.mappings.empty() ? Gfn{0}
                                              : Gfn{s.mappings.front().gfn},
                           tier == SwapTier::CompressedRam);
        }
        return id;
    }

    /** Remove and return a slot (swap-in). */
    Slot
    take(SwapSlot id)
    {
        auto it = slots_.find(id);
        if (it == slots_.end())
            panicMissing(id);
        Slot s = std::move(it->second);
        slots_.erase(it);
        if (s.tier == SwapTier::CompressedRam) {
            jtps_assert(ram_slots_ > 0);
            --ram_slots_;
        }
        stat_pswpin_.inc();
        publishSlots();
        if (trace_) {
            trace_->record(TraceEventType::SwapIn,
                           s.mappings.empty() ? invalidVm
                                              : s.mappings.front().vm,
                           s.mappings.empty() ? Gfn{0}
                                              : Gfn{s.mappings.front().gfn},
                           s.tier == SwapTier::CompressedRam);
        }
        return s;
    }

    /** Slots currently held in the compressed-RAM tier. */
    std::uint64_t ramSlots() const { return ram_slots_; }

    /**
     * Remove a single mapping from a slot (the guest discarded the page
     * while it was swapped out). Frees the slot when no mappings remain.
     * @return true if the slot was freed.
     */
    bool
    dropMapping(SwapSlot id, const Mapping &m)
    {
        auto it = slots_.find(id);
        if (it == slots_.end())
            panicMissing(id);
        auto &maps = it->second.mappings;
        auto mit = std::find(maps.begin(), maps.end(), m);
        if (mit != maps.end())
            maps.erase(mit);
        if (maps.empty()) {
            if (it->second.tier == SwapTier::CompressedRam) {
                jtps_assert(ram_slots_ > 0);
                --ram_slots_;
            }
            slots_.erase(it);
            publishSlots();
            return true;
        }
        return false;
    }

    /** True if the slot exists. */
    bool has(SwapSlot id) const { return slots_.count(id) != 0; }

    /** Number of occupied slots. */
    std::uint64_t used() const { return slots_.size(); }

  private:
    [[noreturn]] static void panicMissing(SwapSlot id);

    /** Mirror the slot occupancy into the host.swap_slots* gauges. */
    void
    publishSlots()
    {
        stat_slots_.set(slots_.size());
        stat_slots_ram_.set(ram_slots_);
    }

    std::unordered_map<SwapSlot, Slot> slots_;
    SwapSlot next_slot_ = 0;
    std::uint64_t ram_slots_ = 0;
    StatCounter stat_pswpout_;
    StatCounter stat_pswpin_;
    StatCounter stat_slots_;
    StatCounter stat_slots_ram_;
    TraceBuffer *trace_ = nullptr;
};

} // namespace jtps::mem

#endif // JTPS_MEM_SWAP_DEVICE_HH
