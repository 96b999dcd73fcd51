/**
 * @file
 * Memory forensics: the paper's measurement methodology (§II).
 *
 * The paper collects crash dumps of the host OS, KVM dumps of every
 * guest, and the KVM in-kernel translation tables (via a custom kernel
 * module reading the kvm-vm device's private_data), then walks all
 * three translation layers to attribute every host physical page frame.
 *
 * Our simulator holds the same three layers live — guest process page
 * tables (guest OS), gfn→hfn tables (hypervisor EPT), and the host
 * frame table — so captureSnapshot() performs the identical walk: for
 * every mapped virtual page of every process of every guest, resolve
 * vpn → gfn → hfn, and record a reference (vm, pid, is-java, memory
 * category) against that frame.
 */

#ifndef JTPS_ANALYSIS_FORENSICS_HH
#define JTPS_ANALYSIS_FORENSICS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "base/packed_gfn.hh"
#include "base/types.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"

namespace jtps::analysis
{

/** One observed mapping of a host frame (16 bytes; a snapshot holds
 *  one per mapped guest page). */
struct FrameRef
{
    VmId vm = invalidVm;
    PackedGfn gfn; //!< the guest page this mapping goes through
    Pid pid = invalidPid;
    bool isJava = false;
    guest::MemCategory category = guest::MemCategory::OtherProcess;

    bool operator==(const FrameRef &other) const = default;
};

static_assert(sizeof(FrameRef) == 16, "FrameRef layout grew");

/**
 * A captured snapshot: every mapped resident host frame with the guest
 * references that map it, plus the hypervisor-private (VM process
 * overhead) frames per VM. Frame i is hfns[i]; its references, in walk
 * order, are refs[refStart[i], refStart[i + 1]), and there is at least
 * one. The offsets are 32-bit, so a snapshot holds at most
 * maxSnapshotRefs references.
 */
struct Snapshot
{
    /** Most references a snapshot's 32-bit offsets can index. */
    static constexpr std::uint64_t maxSnapshotRefs = UINT32_MAX;

    std::vector<Hfn> hfns; //!< strictly ascending
    std::vector<std::uint32_t> refStart{0}; //!< frameCount() + 1 offsets
    std::vector<FrameRef> refs;
    std::vector<std::uint64_t> overheadFrames; //!< pinned frames per VM
    std::uint64_t totalResidentFrames = 0; //!< on the host at capture
    std::size_t vmCount = 0;               //!< VMs on the host

    /** Number of mapped frames. */
    std::size_t frameCount() const { return hfns.size(); }

    /** The references of frame @p i (i < frameCount()). */
    std::span<const FrameRef>
    frameRefs(std::size_t i) const
    {
        return {refs.data() + refStart[i], refs.data() + refStart[i + 1]};
    }
};

/** Refuse (fatal()) a snapshot of @p refs references, more than
 *  Snapshot::maxSnapshotRefs. */
void checkSnapshotRefs(std::uint64_t refs);

/**
 * Walk all translation layers and produce a Snapshot. Guests are
 * walked in the given order and each guest's pages in walk order;
 * every reference carries its guest's own VM id.
 *
 * @param hv The hypervisor (host layer + EPTs); Snapshot::vmCount is
 *        its VM count, retired VMs included.
 * @param guests The live guests of @p hv, in VM-id order (a retired
 *        VM has no guest and maps nothing).
 */
Snapshot captureSnapshot(const hv::Hypervisor &hv,
                         const std::vector<const guest::GuestOs *> &guests);

} // namespace jtps::analysis

#endif // JTPS_ANALYSIS_FORENSICS_HH
