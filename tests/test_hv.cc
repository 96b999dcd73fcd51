/**
 * @file
 * Unit tests for the hypervisor: translation, demand paging, COW,
 * TPS merge primitives, host swap.
 */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/stats.hh"
#include "base/units.hh"
#include "hv/hypervisor.hh"

using namespace jtps;
using hv::HostConfig;
using hv::Hypervisor;
using hv::PageState;
using mem::PageData;

namespace
{

HostConfig
smallHost(Bytes ram = 64 * MiB)
{
    HostConfig cfg;
    cfg.ramBytes = ram;
    cfg.reserveBytes = 0;
    return cfg;
}

} // namespace

TEST(Hypervisor, DemandAllocationOnWrite)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId vm = hv.createVm("vm", 16 * MiB, 0);

    EXPECT_EQ(hv.translate(vm, 5), invalidFrame);
    EXPECT_EQ(hv.readWord(vm, 5, 0), 0u); // no allocation on read
    EXPECT_EQ(hv.residentFrames(), 0u);

    hv.writeWord(vm, 5, 2, 42);
    EXPECT_NE(hv.translate(vm, 5), invalidFrame);
    EXPECT_EQ(hv.readWord(vm, 5, 2), 42u);
    EXPECT_EQ(hv.readWord(vm, 5, 0), 0u); // rest of page is zero
    EXPECT_EQ(hv.pagesIn(vm, PageState::Resident), 1u);
    hv.checkConsistency();
}

TEST(Hypervisor, WritePageThenPeek)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId vm = hv.createVm("vm", 16 * MiB, 0);

    PageData d = PageData::filled(9, 9);
    hv.writePage(vm, 3, d);
    const PageData *p = hv.peek(vm, 3);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, d);
    EXPECT_EQ(hv.peek(vm, 4), nullptr);
}

TEST(Hypervisor, VmOverheadIsPinned)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId vm = hv.createVm("vm", 8 * MiB, 2 * MiB);
    EXPECT_EQ(hv.vm(vm).overheadFrames.size(), bytesToPages(2 * MiB));
    EXPECT_EQ(hv.residentFrames(), bytesToPages(2 * MiB));
    for (Hfn h : hv.vm(vm).overheadFrames)
        EXPECT_TRUE(hv.frames().frame(h).pinned);
}

TEST(Hypervisor, OverheadContentDiffersPerVm)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId a = hv.createVm("a", 4 * MiB, 1 * MiB);
    VmId b = hv.createVm("b", 4 * MiB, 1 * MiB);
    Hfn ha = hv.vm(a).overheadFrames[0];
    Hfn hb = hv.vm(b).overheadFrames[0];
    EXPECT_NE(hv.frames().frame(ha).data, hv.frames().frame(hb).data);
}

TEST(Hypervisor, KsmMergeSharesAndCowUnshares)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId a = hv.createVm("a", 8 * MiB, 0);
    VmId b = hv.createVm("b", 8 * MiB, 0);

    PageData d = PageData::filled(1, 2);
    hv.writePage(a, 0, d);
    hv.writePage(b, 0, d);
    EXPECT_NE(hv.translate(a, 0), hv.translate(b, 0));

    Hfn stable = hv.ksmMakeStable(a, 0);
    ASSERT_NE(stable, invalidFrame);
    EXPECT_TRUE(hv.ksmMergeInto(stable, b, 0));
    EXPECT_EQ(hv.translate(a, 0), hv.translate(b, 0));
    EXPECT_EQ(hv.frames().frame(stable).refcount, 2u);
    hv.checkConsistency();

    // Writing through b must COW: b sees its new value, a is untouched.
    hv.writeWord(b, 0, 0, 777);
    EXPECT_NE(hv.translate(a, 0), hv.translate(b, 0));
    EXPECT_EQ(hv.readWord(b, 0, 0), 777u);
    EXPECT_EQ(*hv.peek(a, 0), d);
    // The rest of b's page kept the old content.
    EXPECT_EQ(hv.readWord(b, 0, 1), d.word[1]);
    hv.checkConsistency();
}

TEST(Hypervisor, MergeRejectsDifferentContent)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId a = hv.createVm("a", 8 * MiB, 0);
    VmId b = hv.createVm("b", 8 * MiB, 0);
    hv.writePage(a, 0, PageData::filled(1, 1));
    hv.writePage(b, 0, PageData::filled(2, 2));
    Hfn stable = hv.ksmMakeStable(a, 0);
    EXPECT_FALSE(hv.ksmMergeInto(stable, b, 0));
    EXPECT_NE(hv.translate(a, 0), hv.translate(b, 0));
}

TEST(Hypervisor, MergeRejectsNonResidentAndSelf)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId a = hv.createVm("a", 8 * MiB, 0);
    hv.writePage(a, 0, PageData::filled(1, 1));
    Hfn stable = hv.ksmMakeStable(a, 0);
    EXPECT_FALSE(hv.ksmMergeInto(stable, a, 0)); // already that frame
    EXPECT_FALSE(hv.ksmMergeInto(stable, a, 1)); // not resident
}

TEST(Hypervisor, WriteToStableFrameCowsEvenIfSoleMapping)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId a = hv.createVm("a", 8 * MiB, 0);
    hv.writePage(a, 0, PageData::filled(3, 3));
    Hfn stable = hv.ksmMakeStable(a, 0);
    EXPECT_TRUE(hv.frames().frame(stable).ksmStable);
    const std::uint64_t cows_before = stats.get("hv.cow_breaks");
    hv.writeWord(a, 0, 0, 1);
    // A KSM page is never written in place: the write must COW onto a
    // fresh anonymous frame (the freed stable frame's number may be
    // recycled, but the KSM flag is gone).
    EXPECT_EQ(stats.get("hv.cow_breaks"), cows_before + 1);
    EXPECT_FALSE(hv.frames().frame(hv.translate(a, 0)).ksmStable);
    EXPECT_EQ(hv.readWord(a, 0, 0), 1u);
    hv.checkConsistency();
}

TEST(Hypervisor, DiscardFreesFrame)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId a = hv.createVm("a", 8 * MiB, 0);
    hv.writePage(a, 7, PageData::filled(1, 1));
    EXPECT_EQ(hv.pagesIn(a, PageState::Resident), 1u);
    hv.discardPage(a, 7);
    EXPECT_EQ(hv.pagesIn(a, PageState::Resident), 0u);
    EXPECT_EQ(hv.residentFrames(), 0u);
    EXPECT_EQ(hv.translate(a, 7), invalidFrame);
    hv.checkConsistency();
}

TEST(Hypervisor, DiscardOfSharedFrameLeavesOtherMapping)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId a = hv.createVm("a", 8 * MiB, 0);
    VmId b = hv.createVm("b", 8 * MiB, 0);
    PageData d = PageData::filled(4, 4);
    hv.writePage(a, 0, d);
    hv.writePage(b, 0, d);
    Hfn stable = hv.ksmMakeStable(a, 0);
    hv.ksmMergeInto(stable, b, 0);

    hv.discardPage(a, 0);
    EXPECT_EQ(hv.translate(b, 0), stable);
    EXPECT_EQ(*hv.peek(b, 0), d);
    EXPECT_EQ(hv.frames().frame(stable).refcount, 1u);
    hv.checkConsistency();
}

namespace
{

/** Page listener that records every discard and release notice. */
struct DiscardLog : hv::PageEventListener
{
    std::vector<std::pair<VmId, Gfn>> seen;
    std::vector<VmId> released;

    void
    pageDiscarded(VmId vm, Gfn gfn) override
    {
        seen.emplace_back(vm, gfn);
    }

    void vmReleased(VmId vm) override { released.push_back(vm); }
};

} // namespace

TEST(Hypervisor, ReleaseVmMemorySendsNoDiscardNotices)
{
    // A guest discard tells the listeners; releasing a whole VM does
    // the same frame and swap bookkeeping page by page but sends one
    // release notice instead, since the retired VM's pages can never
    // be looked up again.
    StatSet stats;
    Hypervisor hv(smallHost(16 * pageSize), stats);
    DiscardLog log;
    hv.setPageListener(&log);
    VmId a = hv.createVm("a", 32 * pageSize, 0);
    VmId b = hv.createVm("b", 32 * pageSize, 0);
    // a:11 shares b:11's frame; the other pages overflow the host, so
    // some of a's private pages end up on swap.
    hv.writePage(b, 11, PageData::filled(2, 11));
    hv.writePage(a, 11, PageData::filled(2, 11));
    const Hfn stable = hv.ksmMakeStable(b, 11);
    ASSERT_TRUE(hv.ksmMergeInto(stable, a, 11));
    for (Gfn g = 0; g < 11; ++g) {
        hv.writePage(a, g, PageData::filled(1, g));
        hv.writePage(b, g, PageData::filled(2, g));
    }
    ASSERT_GT(hv.pagesIn(a, PageState::Swapped), 0u);
    ASSERT_EQ(hv.translate(a, 11), stable);

    hv.discardPage(a, 0);
    hv.discardPage(a, 30); // never touched: no notice
    EXPECT_EQ(log.seen, (std::vector<std::pair<VmId, Gfn>>{{a, 0}}));

    EXPECT_TRUE(log.released.empty());
    hv.releaseVmMemory(a);
    EXPECT_EQ(log.seen.size(), 1u);
    EXPECT_EQ(log.released, std::vector<VmId>{a});
    EXPECT_EQ(hv.pagesIn(a, PageState::Resident), 0u);
    EXPECT_EQ(hv.pagesIn(a, PageState::Swapped), 0u);
    EXPECT_EQ(hv.vm(a).ept.size(), 0u);
    // b keeps the frame a shared with it.
    EXPECT_EQ(hv.translate(b, 11), stable);
    EXPECT_EQ(*hv.peek(b, 11), PageData::filled(2, 11));
    hv.checkConsistency();
    hv.setPageListener(nullptr);
}

TEST(HypervisorDeathTest, SecondPageListenerIsAPanic)
{
    // A host has one listener slot: setting it while it is taken is a
    // bug, clearing it and setting it again is not.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    StatSet stats;
    Hypervisor hv(smallHost(16 * pageSize), stats);
    DiscardLog first, second;
    hv.setPageListener(&first);
    EXPECT_DEATH(hv.setPageListener(&second), "assertion");
    hv.setPageListener(nullptr);
    hv.setPageListener(&second);
    hv.setPageListener(nullptr);
}

TEST(Hypervisor, EvictionAndMajorFault)
{
    StatSet stats;
    // Host with room for only 8 frames.
    Hypervisor hv(smallHost(8 * pageSize), stats);
    VmId a = hv.createVm("a", 1 * MiB, 0);

    // Fill the host, then keep writing: the host must evict.
    for (Gfn g = 0; g < 12; ++g)
        hv.writePage(a, g, PageData::filled(7, g));
    EXPECT_EQ(hv.residentFrames(), 8u);
    EXPECT_EQ(hv.pagesIn(a, PageState::Swapped), 4u);
    EXPECT_GT(stats.get("host.evictions"), 0u);
    hv.checkConsistency();

    // Touch a swapped page: major fault, content restored.
    std::uint64_t faults_before = hv.majorFaults(a);
    bool faulted = false;
    for (Gfn g = 0; g < 12; ++g) {
        if (hv.translate(a, g) == invalidFrame) {
            EXPECT_EQ(hv.readWord(a, g, 3),
                      PageData::filled(7, g).word[3]);
            faulted = true;
            break;
        }
    }
    EXPECT_TRUE(faulted);
    EXPECT_EQ(hv.majorFaults(a), faults_before + 1);
    hv.checkConsistency();
}

TEST(Hypervisor, SwapInRestoresSharingStructure)
{
    StatSet stats;
    // 4 host frames: 1 KSM-shared frame + 3 pinned VM-overhead frames.
    // The next allocation can only evict the shared frame.
    Hypervisor hv(smallHost(4 * pageSize), stats);
    VmId a = hv.createVm("a", 1 * MiB, 0);
    VmId b = hv.createVm("b", 1 * MiB, 0);

    PageData d = PageData::filled(11, 11);
    hv.writePage(a, 0, d);
    hv.writePage(b, 0, d);
    Hfn stable = hv.ksmMakeStable(a, 0);
    ASSERT_TRUE(hv.ksmMergeInto(stable, b, 0));
    EXPECT_EQ(hv.residentFrames(), 1u);

    VmId c = hv.createVm("c", 1 * MiB, 3 * pageSize); // pinned filler
    EXPECT_EQ(hv.residentFrames(), 4u);

    // Fresh allocation: only the shared frame is evictable.
    hv.writePage(a, 1, PageData::filled(1, 1));
    EXPECT_EQ(hv.translate(a, 0), invalidFrame);
    EXPECT_EQ(hv.translate(b, 0), invalidFrame);
    EXPECT_EQ(hv.pagesIn(a, PageState::Swapped), 1u);
    EXPECT_EQ(hv.pagesIn(b, PageState::Swapped), 1u);
    hv.checkConsistency();

    // Fault the shared page back in through a: both mappings must come
    // back, pointing at one frame with the original content.
    EXPECT_EQ(hv.readWord(a, 0, 0), d.word[0]);
    EXPECT_NE(hv.translate(a, 0), invalidFrame);
    EXPECT_EQ(hv.translate(a, 0), hv.translate(b, 0));
    EXPECT_EQ(hv.majorFaults(a), 1u);
    EXPECT_EQ(hv.majorFaults(b), 0u);
    hv.checkConsistency();

    // Free c's pinned frames so the writes below copy without evicting.
    // The restored frame is shared but no longer KSM-stable: a write
    // through b copies it, and a keeps the original content.
    hv.releaseVmMemory(c);
    const Hfn restored = hv.translate(a, 0);
    ASSERT_FALSE(hv.frames().frame(restored).ksmStable);
    const std::uint64_t cows = stats.get("hv.cow_breaks");
    hv.writeWord(b, 0, 0, 99);
    EXPECT_EQ(stats.get("hv.cow_breaks"), cows + 1);
    EXPECT_NE(hv.translate(b, 0), restored);
    EXPECT_EQ(*hv.peek(a, 0), d);

    // a is now the sole mapping of a non-stable frame: its write lands
    // in place, with no copy.
    hv.writeWord(a, 0, 0, 7);
    EXPECT_EQ(stats.get("hv.cow_breaks"), cows + 1);
    EXPECT_EQ(hv.translate(a, 0), restored);
    EXPECT_EQ(hv.readWord(a, 0, 0), 7u);
    EXPECT_EQ(hv.readWord(b, 0, 0), 99u);
    hv.checkConsistency();
}

TEST(Hypervisor, CompressedSwapTierServesFastRefaults)
{
    StatSet stats;
    hv::HostConfig cfg = smallHost(16 * pageSize);
    // Pool of 2 pages -> capacity for 6 compressed slots, and only
    // 14 usable frames.
    cfg.compressedSwapPoolBytes = 2 * pageSize;
    Hypervisor hv(cfg, stats);
    VmId a = hv.createVm("a", 1 * MiB, 0);

    for (Gfn g = 0; g < 20; ++g)
        hv.writePage(a, g, PageData::filled(9, g));
    // 20 pages vs 14 frames: 6 swapped, all fitting the RAM tier.
    EXPECT_EQ(hv.pagesIn(a, PageState::Swapped), 6u);
    EXPECT_EQ(hv.swap().ramSlots(), 6u);

    // Fault one back: it must be counted as a RAM-tier fault.
    std::uint64_t ram_before = hv.majorFaultsRam(a);
    for (Gfn g = 0; g < 20; ++g) {
        if (hv.translate(a, g) == invalidFrame) {
            EXPECT_EQ(hv.readWord(a, g, 1),
                      PageData::filled(9, g).word[1]);
            break;
        }
    }
    EXPECT_EQ(hv.majorFaultsRam(a), ram_before + 1);
    hv.checkConsistency();
}

TEST(Hypervisor, SwapOverflowsToDiskWhenPoolFull)
{
    StatSet stats;
    hv::HostConfig cfg = smallHost(16 * pageSize);
    cfg.compressedSwapPoolBytes = 1 * pageSize; // 3 compressed slots
    Hypervisor hv(cfg, stats);
    VmId a = hv.createVm("a", 1 * MiB, 0);
    for (Gfn g = 0; g < 25; ++g)
        hv.writePage(a, g, PageData::filled(10, g));
    // 25 pages vs 15 frames: 10 swapped; 3 in RAM, 7 on disk.
    EXPECT_EQ(hv.pagesIn(a, PageState::Swapped), 10u);
    EXPECT_EQ(hv.swap().ramSlots(), 3u);
    EXPECT_EQ(hv.swap().used(), 10u);
}

TEST(Hypervisor, CollapseMergesAllDuplicates)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId a = hv.createVm("a", 8 * MiB, 0);
    VmId b = hv.createVm("b", 8 * MiB, 0);
    VmId c = hv.createVm("c", 8 * MiB, 0);

    PageData shared = PageData::filled(1, 1);
    for (VmId v : {a, b, c}) {
        hv.writePage(v, 0, shared);
        hv.writePage(v, 1, PageData::filled(100 + v, v)); // unique
    }
    EXPECT_EQ(hv.residentFrames(), 6u);
    std::uint64_t merged = hv.collapseIdenticalPages();
    EXPECT_EQ(merged, 2u);
    EXPECT_EQ(hv.residentFrames(), 4u);
    EXPECT_EQ(hv.translate(a, 0), hv.translate(b, 0));
    EXPECT_EQ(hv.translate(b, 0), hv.translate(c, 0));
    hv.checkConsistency();
}

TEST(Hypervisor, CollapseIsTransparentToReaders)
{
    StatSet stats;
    Hypervisor hv(smallHost(), stats);
    VmId a = hv.createVm("a", 8 * MiB, 0);
    VmId b = hv.createVm("b", 8 * MiB, 0);
    PageData d = PageData::filled(2, 2);
    hv.writePage(a, 5, d);
    hv.writePage(b, 9, d);
    hv.collapseIdenticalPages();
    EXPECT_EQ(hv.readWord(a, 5, 4), d.word[4]);
    EXPECT_EQ(hv.readWord(b, 9, 4), d.word[4]);
    // And to writers, via COW.
    hv.writeWord(a, 5, 4, 123);
    EXPECT_EQ(hv.readWord(a, 5, 4), 123u);
    EXPECT_EQ(hv.readWord(b, 9, 4), d.word[4]);
}

TEST(Hypervisor, ConsistencyAcrossMixedOps)
{
    StatSet stats;
    Hypervisor hv(smallHost(48 * pageSize), stats);
    VmId a = hv.createVm("a", 1 * MiB, 0);
    VmId b = hv.createVm("b", 1 * MiB, 0);

    for (int round = 0; round < 4; ++round) {
        for (Gfn g = 0; g < 30; ++g) {
            hv.writePage(a, g, PageData::filled(round, g % 5));
            hv.writePage(b, g, PageData::filled(round, g % 5));
        }
        hv.collapseIdenticalPages();
        for (Gfn g = 0; g < 30; g += 3)
            hv.writeWord(a, g, 0, round * 100 + g);
        for (Gfn g = 0; g < 30; g += 7)
            hv.discardPage(b, g);
        hv.checkConsistency();
    }
}
