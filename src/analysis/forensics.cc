#include "analysis/forensics.hh"

#include "base/logging.hh"

namespace jtps::analysis
{

void
checkSnapshotRefs(std::uint64_t refs)
{
    if (refs > Snapshot::maxSnapshotRefs)
        fatal("snapshot of %llu references exceeds the %llu that its "
              "32-bit offsets can index",
              static_cast<unsigned long long>(refs),
              static_cast<unsigned long long>(Snapshot::maxSnapshotRefs));
}

Snapshot
captureSnapshot(const hv::Hypervisor &hv,
                const std::vector<const guest::GuestOs *> &guests)
{
    Snapshot snap;
    snap.vmCount = hv.vmCount();
    snap.totalResidentFrames = hv.residentFrames();

    // Layer 3 first: VM-process-private frames (pinned, no EPT entry).
    for (VmId v = 0; v < hv.vmCount(); ++v)
        snap.overheadFrames.push_back(hv.vm(v).overheadFrames.size());

    // Layers 1+2: fn(hfn, ref) for every mapped vpage of every process.
    auto walk = [&](auto &&fn) {
        for (const guest::GuestOs *os : guests) {
            for (const auto &proc : os->processes()) {
                for (const auto &vma : proc->vmas) {
                    for (std::uint64_t i = 0; i < vma->numPages; ++i) {
                        const Gfn gfn = vma->gfns[i];
                        if (gfn == invalidFrame)
                            continue; // never touched
                        const Hfn hfn = hv.translate(os->vmId(), gfn);
                        if (hfn == invalidFrame)
                            continue; // swapped out: not physical memory
                        fn(hfn, FrameRef{os->vmId(), gfn, proc->pid,
                                         proc->isJava, vma->category});
                    }
                }
            }
        }
    };

    // Count every frame's references, turn the counts into each
    // frame's next free slot in refs, then fill the slots. The counts
    // fit 32 bits once their total does.
    std::vector<std::uint32_t> next(hv.frames().frameCount(), 0);
    std::uint64_t total = 0;
    walk([&](Hfn hfn, const FrameRef &) {
        ++next[hfn];
        ++total;
    });
    checkSnapshotRefs(total);
    snap.hfns.reserve(snap.totalResidentFrames);
    snap.refStart.reserve(snap.totalResidentFrames + 1);
    for (Hfn hfn = 0; hfn < next.size(); ++hfn) {
        if (next[hfn] == 0)
            continue;
        const std::uint32_t start = snap.refStart.back();
        snap.hfns.push_back(hfn);
        snap.refStart.push_back(start + next[hfn]);
        next[hfn] = start;
    }
    snap.refs.resize(snap.refStart.back());
    walk([&](Hfn hfn, const FrameRef &ref) { snap.refs[next[hfn]++] = ref; });
    return snap;
}

} // namespace jtps::analysis
