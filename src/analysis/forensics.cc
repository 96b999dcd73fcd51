#include "analysis/forensics.hh"

#include "base/logging.hh"

namespace jtps::analysis
{

Snapshot
captureSnapshot(const hv::Hypervisor &hv,
                const std::vector<const guest::GuestOs *> &guests)
{
    Snapshot snap;
    snap.vmCount = guests.size();
    snap.totalResidentFrames = hv.residentFrames();
    snap.overheadFrames.assign(hv.vmCount(), 0);

    // Layer 3 first: VM-process-private frames (pinned, no EPT entry).
    for (VmId v = 0; v < hv.vmCount(); ++v)
        snap.overheadFrames[v] = hv.vm(v).overheadFrames.size();

    // Layers 1+2: resolve every mapped vpage of every process to a
    // host frame and record the reference.
    for (const guest::GuestOs *os : guests) {
        jtps_assert(os != nullptr);
        const VmId vm_id = os->vmId();
        for (const auto &proc : os->processes()) {
            for (const auto &vma : proc->vmas) {
                for (std::uint64_t i = 0; i < vma->numPages; ++i) {
                    const Gfn gfn = vma->gfns[i];
                    if (gfn == invalidFrame)
                        continue; // never touched
                    const Hfn hfn = hv.translate(vm_id, gfn);
                    if (hfn == invalidFrame)
                        continue; // swapped out: not physical memory
                    snap.frames[hfn].push_back(
                        FrameRef{vm_id, gfn, proc->pid, proc->isJava,
                                 vma->category});
                }
            }
        }
    }
    return snap;
}

} // namespace jtps::analysis
