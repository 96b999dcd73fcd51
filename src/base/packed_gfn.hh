/**
 * @file
 * A guest frame number stored in 32 bits.
 *
 * The per-page records (guest page tables, reverse mappings, snapshot
 * references, KSM table slots) are where the simulator spends its
 * memory, and every gfn they hold lies below 2^32 - 1: a guest has
 * fewer than 2^32 pages, which hv::Hypervisor::createVm() enforces.
 * PackedGfn stores such a gfn at half the width of Gfn while every API
 * keeps speaking 64-bit Gfn. It converts implicitly in both directions
 * and maps invalidFrame to and from the all-ones value, so the raw
 * 32-bit slot never escapes: a comparison with invalidFrame means what
 * it says.
 */

#ifndef JTPS_BASE_PACKED_GFN_HH
#define JTPS_BASE_PACKED_GFN_HH

#include <cstdint>

#include "base/logging.hh"
#include "base/types.hh"

namespace jtps
{

/** Largest guest, in pages, whose gfns all pack into a PackedGfn
 *  (2^32 - 1 pages, just under 16 TiB; the all-ones gfn is the
 *  sentinel). */
constexpr std::uint64_t maxGuestPages = UINT32_MAX;

class PackedGfn
{
  public:
    constexpr PackedGfn() = default;

    /** Store @p gfn, which must lie below maxGuestPages or be
     *  invalidFrame. */
    PackedGfn(Gfn gfn) : v_(static_cast<std::uint32_t>(gfn))
    {
        jtps_assert(gfn < maxGuestPages || gfn == invalidFrame);
    }

    /** The stored gfn, or invalidFrame for the sentinel. */
    operator Gfn() const { return v_ == none ? invalidFrame : v_; }

  private:
    static constexpr std::uint32_t none = UINT32_MAX;
    std::uint32_t v_ = none;
};

static_assert(sizeof(PackedGfn) == 4);

} // namespace jtps

#endif // JTPS_BASE_PACKED_GFN_HH
