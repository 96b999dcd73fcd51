#include "analysis/accounting.hh"

#include <algorithm>
#include <tuple>
#include <vector>

#include "base/logging.hh"

namespace jtps::analysis
{

namespace
{

/**
 * Sort key grouping refs by guest page, best representative first. A
 * guest page mapped by several processes of the same guest (a file
 * page sits in the kernel page cache *and* in the mmap of the process
 * using it) is attributed to the Java process, then to other user
 * processes, and to the kernel only when no process maps it.
 */
std::tuple<VmId, Gfn, int, Pid>
groupKey(const FrameRef &ref)
{
    return {ref.vm, ref.gfn, ref.isJava ? 0 : ref.pid > 0 ? 1 : 2, ref.pid};
}

/**
 * Owner-selection key among guest pages: Java processes always win;
 * ties break to the smallest PID, then the smallest VM id (§II.A).
 */
std::tuple<int, Pid, VmId>
ownerKey(const FrameRef &ref)
{
    return {ref.isJava ? 0 : 1, ref.pid, ref.vm};
}

/**
 * Reduce a frame's reference list to one representative per guest page
 * (vm, gfn), and return the index of the owning guest page.
 * @param refs Copied from @p frame, then sorted and compacted.
 */
std::size_t
collapseToGuestPages(std::span<const FrameRef> frame,
                     std::vector<FrameRef> &refs)
{
    refs.assign(frame.begin(), frame.end());
    std::sort(refs.begin(), refs.end(),
              [](const FrameRef &a, const FrameRef &b) {
                  return groupKey(a) < groupKey(b);
              });
    refs.erase(std::unique(refs.begin(), refs.end(),
                           [](const FrameRef &a, const FrameRef &b) {
                               return a.vm == b.vm && a.gfn == b.gfn;
                           }),
               refs.end()); // keeps each page's best-priority mapping
    return std::min_element(refs.begin(), refs.end(),
                            [](const FrameRef &a, const FrameRef &b) {
                                return ownerKey(a) < ownerKey(b);
                            }) -
           refs.begin();
}

/**
 * Hand every frame's guest pages to @p fn with the index of the owning
 * page, in hfn order. A single-reference frame is passed straight from
 * the snapshot; a shared one is collapsed on one scratch copy.
 */
template <typename Fn>
void
forEachCollapsedFrame(const Snapshot &snap, Fn fn)
{
    std::vector<FrameRef> pages;
    for (std::size_t i = 0; i < snap.frameCount(); ++i) {
        const std::span<const FrameRef> refs = snap.frameRefs(i);
        if (refs.size() == 1) {
            fn(refs, 0);
            continue;
        }
        const std::size_t owner = collapseToGuestPages(refs, pages);
        fn(std::span<const FrameRef>(pages), owner);
    }
}

} // namespace

OwnerAccounting::OwnerAccounting(const Snapshot &snap)
    : overhead_frames_(snap.overheadFrames),
      resident_frames_(snap.totalResidentFrames)
{
    forEachCollapsedFrame(snap, [this](std::span<const FrameRef> pages,
                                       std::size_t owner) {
        for (std::size_t i = 0; i < pages.size(); ++i) {
            const FrameRef &ref = pages[i];
            ProcessUsage &pu = usage_[{ref.vm, ref.pid}];
            pu.isJava = ref.isJava;
            const auto cat = static_cast<std::size_t>(ref.category);
            (i == owner ? pu.owned : pu.shared)[cat] += pageSize;
        }
    });

    attributed_ = pagesToBytes(snap.frameCount());
    for (std::uint64_t count : overhead_frames_)
        attributed_ += pagesToBytes(count);
}

const ProcessUsage &
OwnerAccounting::usage(VmId vm, Pid pid) const
{
    auto it = usage_.find({vm, pid});
    jtps_assert(it != usage_.end());
    return it->second;
}

bool
OwnerAccounting::hasProcess(VmId vm, Pid pid) const
{
    return usage_.count({vm, pid}) != 0;
}

VmBreakdown
OwnerAccounting::vmBreakdown(VmId vm) const
{
    VmBreakdown bd;
    for (const auto &[key, pu] : usage_) {
        if (key.first != vm)
            continue;
        if (key.second == 0) {
            bd.kernel += pu.ownedTotal();
            bd.savingKernel += pu.sharedTotal();
        } else if (pu.isJava) {
            bd.java += pu.ownedTotal();
            bd.savingJava += pu.sharedTotal();
        } else {
            bd.otherUser += pu.ownedTotal();
            bd.savingOther += pu.sharedTotal();
        }
    }
    if (vm < overhead_frames_.size())
        bd.vmSelf = pagesToBytes(overhead_frames_[vm]);
    return bd;
}

PssAccounting::PssAccounting(const Snapshot &snap)
{
    // Each process's pages by the number of guest pages sharing their
    // frame: integer counts, so the frame order cannot reach the sums.
    std::map<std::pair<VmId, Pid>, std::vector<std::uint64_t>> pages;
    forEachCollapsedFrame(snap, [&pages](std::span<const FrameRef> refs,
                                         std::size_t) {
        for (const FrameRef &ref : refs) {
            auto &by_sharers = pages[{ref.vm, ref.pid}];
            by_sharers.resize(std::max(by_sharers.size(), refs.size() + 1));
            ++by_sharers[refs.size()];
        }
    });
    for (const auto &[key, by_sharers] : pages) {
        double &bytes = pss_[key];
        for (std::size_t n = 1; n < by_sharers.size(); ++n)
            bytes += static_cast<double>(pagesToBytes(by_sharers[n])) / n;
    }
    total_ = static_cast<double>(pagesToBytes(snap.frameCount()));
    for (std::uint64_t count : snap.overheadFrames)
        total_ += static_cast<double>(pagesToBytes(count));
}

double
PssAccounting::pss(VmId vm, Pid pid) const
{
    auto it = pss_.find({vm, pid});
    return it == pss_.end() ? 0.0 : it->second;
}

} // namespace jtps::analysis
