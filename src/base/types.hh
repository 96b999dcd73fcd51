/**
 * @file
 * Fundamental scalar types and identifiers used across the simulator.
 *
 * The simulator models three layers of address translation, so it is easy
 * to confuse "which kind of page number is this?". We therefore give each
 * layer its own alias and keep the naming of the paper:
 *
 *   - a guest process virtual page number (Vpn),
 *   - a guest physical frame number (Gfn) — what the paper calls
 *     "guest memory",
 *   - a host physical frame number (Hfn).
 */

#ifndef JTPS_BASE_TYPES_HH
#define JTPS_BASE_TYPES_HH

#include <cstdint>
#include <limits>

namespace jtps
{

/** Simulated time, in milliseconds since simulation start. */
using Tick = std::uint64_t;

/** A byte count or byte offset. */
using Bytes = std::uint64_t;

/** Guest-process virtual page number. */
using Vpn = std::uint64_t;

/** Guest physical frame number (index into a VM's guest memory). */
using Gfn = std::uint64_t;

/** Host physical frame number (index into the host frame table). */
using Hfn = std::uint64_t;

/**
 * Width of a page's backing reference as an EPT entry stores it
 * (hv::EptEntry::backing): every host frame number and every swap
 * slot id lies below 2^backingBits.
 */
constexpr unsigned backingBits = 60;

/** Identifier of a guest VM on a host. */
using VmId = std::uint32_t;

/** Identifier of a process inside one guest OS. */
using Pid = std::uint32_t;

/** Sentinel for "no frame" in any of the three layers. */
constexpr std::uint64_t invalidFrame =
    std::numeric_limits<std::uint64_t>::max();

/** Sentinel VM id. */
constexpr VmId invalidVm = std::numeric_limits<VmId>::max();

/** Sentinel pid. */
constexpr Pid invalidPid = std::numeric_limits<Pid>::max();

} // namespace jtps

#endif // JTPS_BASE_TYPES_HH
