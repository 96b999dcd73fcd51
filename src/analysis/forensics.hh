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
 * frame table — so capture() performs the identical walk: for every
 * mapped virtual page of every process of every guest, resolve
 * vpn → gfn → hfn, and record a reference
 * (vm, pid, is-java, memory category) against that frame.
 */

#ifndef JTPS_ANALYSIS_FORENSICS_HH
#define JTPS_ANALYSIS_FORENSICS_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"

namespace jtps::analysis
{

/** One observed mapping of a host frame. */
struct FrameRef
{
    VmId vm = invalidVm;
    Gfn gfn = invalidFrame; //!< the guest page this mapping goes through
    Pid pid = invalidPid;
    bool isJava = false;
    guest::MemCategory category = guest::MemCategory::OtherProcess;

    bool operator==(const FrameRef &other) const = default;
};

/**
 * A captured snapshot: every resident host frame with the guest
 * references that map it, plus the hypervisor-private (VM process
 * overhead) frames per VM.
 */
struct Snapshot
{
    /** frame -> references from guest process mappings. */
    std::unordered_map<Hfn, std::vector<FrameRef>> frames;
    /** VM-overhead (pinned) frame counts per VM id. */
    std::vector<std::uint64_t> overheadFrames;
    /** Total resident frames on the host at capture time. */
    std::uint64_t totalResidentFrames = 0;
    /** Number of guests walked. */
    std::size_t vmCount = 0;
};

/**
 * Walk all translation layers and produce a Snapshot.
 *
 * Guests are walked in VM order and each guest's pages in walk order;
 * that insertion sequence fixes the frames map's iteration order,
 * which downstream accounting observes.
 *
 * @param hv The hypervisor (host layer + EPTs).
 * @param guests One GuestOs per VM, indexed by VmId.
 */
Snapshot captureSnapshot(const hv::Hypervisor &hv,
                         const std::vector<const guest::GuestOs *> &guests);

} // namespace jtps::analysis

#endif // JTPS_ANALYSIS_FORENSICS_HH
