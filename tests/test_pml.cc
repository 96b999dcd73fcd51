/**
 * @file
 * Unit tests for the Page-Modification-Log model: ring append/dedup
 * semantics, overflow, drain cycles, the swap-in re-log rule, frame
 * recycling, the working-set estimator, and the adaptive balloon
 * governor built on it.
 */

#include <gtest/gtest.h>

#include "analysis/wss_estimator.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "core/balloon_governor.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"
#include "ksm/ksm_scanner.hh"
#include "sim/event_queue.hh"

using namespace jtps;
using hv::HostConfig;
using hv::Hypervisor;
using hv::PageState;
using mem::PageData;

namespace
{

HostConfig
pmlHost(std::uint32_t slots, Bytes ram = 64 * MiB)
{
    HostConfig cfg;
    cfg.ramBytes = ram;
    cfg.reserveBytes = 0;
    cfg.pmlRingSlots = slots;
    return cfg;
}

/** Kernel sized for an 8 MiB test guest (defaults model ~212 MiB). */
guest::KernelConfig
tinyKernel()
{
    guest::KernelConfig k;
    k.textBytes = 256 * KiB;
    k.dataBytes = 256 * KiB;
    k.slabBytes = 256 * KiB;
    k.sharedBootCacheBytes = 1 * MiB;
    k.privateBootCacheBytes = 1 * MiB;
    return k;
}

} // namespace

TEST(PmlRing, AppendsOncePerDrainCycle)
{
    StatSet stats;
    Hypervisor hv(pmlHost(16), stats);
    VmId vm = hv.createVm("vm", 1 * MiB, 0);

    // Three writes to one page, two to another: one entry per page.
    hv.writeWord(vm, 3, 0, 1);
    hv.writeWord(vm, 3, 1, 2);
    hv.writePage(vm, 3, PageData::filled(7, 7));
    hv.writeWord(vm, 9, 0, 5);
    hv.writeWord(vm, 9, 0, 6);

    const auto &ring = hv.pmlEntries(vm);
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_EQ(Gfn{ring[0]}, 3u);
    EXPECT_EQ(Gfn{ring[1]}, 9u);
    EXPECT_EQ(hv.vm(vm).pmlAppendsTotal, 2u);
    EXPECT_EQ(stats.get("hv.pml_appends"), 2u);
    hv.checkConsistency();
}

TEST(PmlRing, ResetStartsANewDrainCycle)
{
    StatSet stats;
    Hypervisor hv(pmlHost(16), stats);
    VmId vm = hv.createVm("vm", 1 * MiB, 0);

    hv.writeWord(vm, 3, 0, 1);
    ASSERT_EQ(hv.pmlEntries(vm).size(), 1u);
    hv.pmlResetRing(vm);
    EXPECT_TRUE(hv.pmlEntries(vm).empty());

    // Unwritten since the drain: nothing re-logs...
    EXPECT_EQ(hv.readWord(vm, 3, 0), 1u);
    EXPECT_TRUE(hv.pmlEntries(vm).empty());
    // ...but the next write does.
    hv.writeWord(vm, 3, 0, 2);
    ASSERT_EQ(hv.pmlEntries(vm).size(), 1u);
    EXPECT_EQ(Gfn{hv.pmlEntries(vm)[0]}, 3u);
    EXPECT_EQ(hv.vm(vm).pmlAppendsTotal, 2u);
    hv.checkConsistency();
}

TEST(PmlRing, OverflowFlagsTheVmAndCountsDrops)
{
    StatSet stats;
    Hypervisor hv(pmlHost(2), stats);
    VmId vm = hv.createVm("vm", 1 * MiB, 0);

    for (Gfn g = 0; g < 5; ++g)
        hv.writeWord(vm, g, 0, g + 1);

    EXPECT_EQ(hv.pmlEntries(vm).size(), 2u);
    EXPECT_EQ(hv.vm(vm).pmlAppendsTotal, 2u);
    EXPECT_EQ(stats.get("hv.pml_overflows"), 3u);

    // A dropped page keeps its logged bit clear, so after the drain it
    // can log again immediately.
    hv.pmlResetRing(vm);
    hv.writeWord(vm, 4, 0, 99);
    ASSERT_EQ(hv.pmlEntries(vm).size(), 1u);
    EXPECT_EQ(Gfn{hv.pmlEntries(vm)[0]}, 4u);
    hv.checkConsistency();
}

TEST(PmlRing, DiscardedPageRelogsInTheSameDrainCycle)
{
    StatSet stats;
    Hypervisor hv(pmlHost(16), stats);
    VmId vm = hv.createVm("vm", 1 * MiB, 0);

    // Discard resets the EPT entry, logged bit included, but leaves the
    // ring alone: the next write to the page logs it a second time.
    hv.writeWord(vm, 3, 0, 1);
    hv.discardPage(vm, 3);
    EXPECT_FALSE(hv.vm(vm).ept.entry(3).pmlLogged);
    hv.writeWord(vm, 3, 0, 2);

    const auto &ring = hv.pmlEntries(vm);
    ASSERT_EQ(ring.size(), 2u);
    EXPECT_EQ(Gfn{ring[0]}, 3u);
    EXPECT_EQ(Gfn{ring[1]}, 3u);
    EXPECT_EQ(hv.vm(vm).pmlAppendsTotal, 2u);
    EXPECT_TRUE(hv.vm(vm).ept.entry(3).pmlLogged);
    hv.checkConsistency();

    hv.pmlResetRing(vm);
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(hv.vm(vm).ept.entry(3).pmlLogged);
    hv.checkConsistency();
}

TEST(PmlRing, FreedHugePageIsNotLogged)
{
    // Freeing a THP-backed page clears its huge flag with the rest of
    // the EPT entry. A free is not a write: it must not land in the
    // ring or the append totals the estimator and pre-copy read.
    StatSet stats;
    Hypervisor hv(pmlHost(16), stats);
    const VmId vm = hv.createVm("vm", 8 * MiB, 0);
    guest::GuestOs os(hv, vm, "vm", 1);
    os.setThpEnabled(true);
    const Pid pid = os.spawn("p", false);
    guest::Vma *vma =
        os.mmapAnon(pid, 4 * pageSize, guest::MemCategory::JvmWork, "h");
    ASSERT_TRUE(vma->hugeBacked);
    os.writeWord(vma, 0, 0, 1);
    const Gfn gfn = os.gfnAt(vma, 0);
    ASSERT_TRUE(hv.vm(vm).ept.entry(gfn).huge);

    hv.pmlResetRing(vm);
    const std::uint64_t appends = hv.vm(vm).pmlAppendsTotal;
    os.discard(vma, 0);
    EXPECT_FALSE(hv.vm(vm).ept.entry(gfn).huge);
    EXPECT_TRUE(hv.pmlEntries(vm).empty());
    EXPECT_EQ(hv.vm(vm).pmlAppendsTotal, appends);
    hv.checkConsistency();
}

TEST(PmlRing, DisabledRingsLogNothing)
{
    StatSet stats;
    Hypervisor hv(pmlHost(0), stats);
    VmId vm = hv.createVm("vm", 1 * MiB, 0);
    hv.writeWord(vm, 0, 0, 1);
    EXPECT_FALSE(hv.pmlEnabled());
    EXPECT_TRUE(hv.pmlEntries(vm).empty());
    EXPECT_EQ(stats.get("hv.pml_appends"), 0u);
    hv.checkConsistency();
}

TEST(PmlRing, SwapInRelogsRestoredPages)
{
    // A page the host paged out and back in has a fresh frame and a
    // fresh write generation: every scanner skip proof is void, and
    // the generation walk re-examines it. The dirty log says so too:
    // swapIn() re-logs every restored mapping.
    StatSet stats;
    Hypervisor hv(pmlHost(4096, 48 * pageSize), stats);
    VmId vm = hv.createVm("vm", 1 * MiB, 0);

    // Overcommit: 64 distinct pages through a 48-frame host forces
    // evictions.
    for (Gfn g = 0; g < 64; ++g)
        hv.writePage(vm, g, PageData::filled(1, g));
    ASSERT_GT(hv.pagesIn(vm, PageState::Swapped), 0u);

    Gfn victim = invalidFrame;
    for (Gfn g = 0; g < 64; ++g) {
        if (hv.vm(vm).ept.entry(g).state == PageState::Swapped) {
            victim = g;
            break;
        }
    }
    ASSERT_NE(victim, invalidFrame);

    // Drain, then fault the victim back in with a *read*: no guest
    // write happens, yet the ring must pick the page up.
    hv.pmlResetRing(vm);
    hv.touchPage(vm, victim);
    ASSERT_EQ(hv.vm(vm).ept.entry(victim).state, PageState::Resident);
    bool logged = false;
    for (const Gfn gfn : hv.pmlEntries(vm))
        logged = logged || gfn == victim;
    EXPECT_TRUE(logged);
    hv.checkConsistency();
}

TEST(PmlRing, RecycledGfnIsRescannedFromLiveState)
{
    // Regression: a ring entry must never act as a content verdict.
    // Here gfn 0's entry goes stale (discard + reallocation with new
    // content) while it sits in the ring; the scan must merge the
    // *new* content with its true duplicate and leave the page
    // holding the old content alone.
    StatSet stats;
    Hypervisor hv(pmlHost(4096), stats);
    VmId a = hv.createVm("a", 1 * MiB, 0);
    VmId b = hv.createVm("b", 1 * MiB, 0);

    const PageData oldContent = PageData::filled(11, 1);
    const PageData newContent = PageData::filled(22, 2);
    hv.writePage(a, 0, oldContent); // ring entry for (a, 0)
    hv.writePage(b, 1, oldContent); // a would-be partner for it
    hv.discardPage(a, 0);
    hv.writePage(a, 0, newContent); // recycled gfn, different content
    hv.writePage(b, 0, newContent);

    ksm::KsmConfig kcfg;
    kcfg.pagesToScan = 100000;
    ksm::KsmScanner scanner(hv, kcfg, stats);
    scanner.runToQuiescence();

    // (a,0) merged with (b,0) on the live content; (b,1) kept its own
    // frame (its duplicate died with the discard).
    EXPECT_EQ(hv.translate(a, 0), hv.translate(b, 0));
    EXPECT_NE(hv.translate(b, 1), hv.translate(a, 0));
    EXPECT_EQ(*hv.peek(a, 0), newContent);
    EXPECT_EQ(*hv.peek(b, 1), oldContent);
    hv.checkConsistency();
}

TEST(PmlRing, RetiredVmFreesItsBuffers)
{
    // Retiring a VM frees its ring and overhead list, not just empties
    // them; the other VM keeps its ring.
    StatSet stats;
    Hypervisor hv(pmlHost(4096), stats);
    VmId a = hv.createVm("a", 1 * MiB, 64 * KiB);
    VmId b = hv.createVm("b", 1 * MiB, 0);
    for (Gfn g = 0; g < 8; ++g) {
        hv.writePage(a, g, PageData::filled(1, g));
        hv.writePage(b, g, PageData::filled(2, g));
    }
    ASSERT_GT(hv.vm(a).pmlRing.capacity(), 0u);
    ASSERT_GT(hv.vm(a).overheadFrames.capacity(), 0u);

    hv.releaseVmMemory(a);
    EXPECT_EQ(hv.vm(a).pmlRing.capacity(), 0u);
    EXPECT_EQ(hv.vm(a).overheadFrames.capacity(), 0u);
    EXPECT_EQ(hv.pmlEntries(b).size(), 8u);
    hv.checkConsistency();
}

TEST(WssEstimator, CountsDirtiedPagesPerWindow)
{
    StatSet stats;
    Hypervisor hv(pmlHost(4096), stats);
    VmId vm = hv.createVm("vm", 2 * MiB, 0);

    analysis::WssConfig wcfg;
    wcfg.windows = 1; // raw per-window deltas
    analysis::WssEstimator wss(hv, wcfg, stats);

    for (Gfn g = 0; g < 20; ++g)
        hv.writeWord(vm, g, 0, g + 1);
    wss.sample();
    EXPECT_EQ(wss.wssPages(vm), 20u);

    // Rewriting the same 5 pages many times is a 5-page working set.
    for (int rep = 0; rep < 8; ++rep)
        for (Gfn g = 0; g < 5; ++g)
            hv.writeWord(vm, g, 0, rep);
    wss.sample();
    EXPECT_EQ(wss.wssPages(vm), 5u);

    // Quiet window: the estimate decays to zero.
    wss.sample();
    EXPECT_EQ(wss.wssPages(vm), 0u);
    EXPECT_EQ(wss.samples(), 3u);
    EXPECT_EQ(stats.get("wss.samples"), 3u);
}

TEST(WssEstimator, WindowMaxRidesOutQuietWindows)
{
    StatSet stats;
    Hypervisor hv(pmlHost(4096), stats);
    VmId vm = hv.createVm("vm", 2 * MiB, 0);

    analysis::WssConfig wcfg;
    wcfg.windows = 3;
    analysis::WssEstimator wss(hv, wcfg, stats);

    for (Gfn g = 0; g < 12; ++g)
        hv.writeWord(vm, g, 0, 1);
    wss.sample();
    EXPECT_EQ(wss.wssPages(vm), 12u);
    wss.sample(); // quiet
    EXPECT_EQ(wss.wssPages(vm), 12u); // still inside the window max
    wss.sample(); // quiet
    wss.sample(); // quiet: the busy window has aged out
    EXPECT_EQ(wss.wssPages(vm), 0u);
    EXPECT_EQ(wss.totalWssPages(), 0u);
}

TEST(BalloonGovernor, ResizesTowardWorkingSet)
{
    StatSet stats;
    Hypervisor hv(pmlHost(4096), stats);
    VmId vm_id = hv.createVm("vm", 8 * MiB, 0);
    guest::GuestOs os(hv, vm_id, "vm", 1);
    os.bootKernel(tinyKernel());

    analysis::WssConfig wcfg;
    wcfg.windows = 1;
    analysis::WssEstimator wss(hv, wcfg, stats);
    wss.sample(); // absorb boot-time writes into the first window

    core::BalloonGovernorConfig bcfg;
    bcfg.slackPages = 16;
    core::BalloonGovernor gov(wss, bcfg, stats);
    const std::vector<guest::GuestOs *> guests = {&os};

    // Quiet guest: the balloon inflates toward guestPages - slack.
    wss.sample();
    const std::uint64_t target = gov.targetPages(os);
    EXPECT_EQ(target, os.guestPages() - bcfg.slackPages);
    gov.step(guests);
    EXPECT_GT(os.balloonHeldPages(), 0u);
    EXPECT_LE(os.balloonHeldPages(), target);
    EXPECT_GE(stats.get("balloon.wss_resizes"), 1u);

    // A busy window shrinks the target; the governor deflates.
    const std::uint64_t held_before = os.balloonHeldPages();
    for (Gfn g = 0; g < 200; ++g)
        hv.writeWord(vm_id, g, 0, g + 1);
    wss.sample();
    EXPECT_LT(gov.targetPages(os), target);
    gov.step(guests);
    EXPECT_LT(os.balloonHeldPages(), held_before);
    hv.checkConsistency();
}

TEST(BalloonGovernor, MaxStepBoundsEachAdjustment)
{
    StatSet stats;
    Hypervisor hv(pmlHost(4096), stats);
    VmId vm_id = hv.createVm("vm", 8 * MiB, 0);
    guest::GuestOs os(hv, vm_id, "vm", 1);
    os.bootKernel(tinyKernel());

    analysis::WssConfig wcfg;
    wcfg.windows = 1;
    analysis::WssEstimator wss(hv, wcfg, stats);
    wss.sample();
    wss.sample(); // quiet: large inflate target

    core::BalloonGovernorConfig bcfg;
    bcfg.slackPages = 16;
    bcfg.maxStepPages = 10;
    core::BalloonGovernor gov(wss, bcfg, stats);
    const std::vector<guest::GuestOs *> guests = {&os};
    gov.step(guests);
    EXPECT_LE(os.balloonHeldPages(), 10u);
    gov.step(guests);
    EXPECT_LE(os.balloonHeldPages(), 20u);
}

TEST(BalloonGovernor, OomPressureDeflatesTheBalloonInstead)
{
    // virtio_balloon's DEFLATE_ON_OOM: a guest whose balloon pinned
    // every reclaimable page must satisfy new allocations by taking
    // pages back from the balloon, never by dying.
    StatSet stats;
    Hypervisor hv(pmlHost(64), stats);
    VmId vm_id = hv.createVm("vm", 8 * MiB, 0);
    guest::GuestOs os(hv, vm_id, "vm", 1);
    os.bootKernel(tinyKernel());

    const std::uint64_t taken = os.balloonTake(os.guestPages());
    EXPECT_GT(taken, 0u);
    const std::uint64_t held = os.balloonHeldPages();

    const Pid pid = os.spawn("p", false);
    guest::Vma *vma =
        os.mmapAnon(pid, 1 * MiB, guest::MemCategory::OtherProcess, "x");
    for (std::uint64_t i = 0; i < bytesToPages(1 * MiB); ++i)
        os.writePage(vma, i, PageData::filled(21, i));
    EXPECT_LT(os.balloonHeldPages(), held);
}

TEST(BalloonGovernor, RefaultStormGrowsSlackAndBacksOff)
{
    // A dirty log cannot see a read-mostly working set: a guest that
    // keeps re-reading its page cache looks idle to the estimator and
    // gets ballooned into thrashing. The refault feedback must grow
    // that guest's protected slack and deflate, then decay the slack
    // once the storm stops.
    StatSet stats;
    Hypervisor hv(pmlHost(4096), stats);
    VmId vm_id = hv.createVm("vm", 8 * MiB, 0);
    guest::GuestOs os(hv, vm_id, "vm", 1);
    os.bootKernel(tinyKernel());

    analysis::WssConfig wcfg;
    wcfg.windows = 1;
    analysis::WssEstimator wss(hv, wcfg, stats);
    wss.sample();
    wss.sample();

    core::BalloonGovernorConfig bcfg;
    bcfg.slackPages = 16;
    bcfg.refaultTolerance = 8;
    core::BalloonGovernor gov(wss, bcfg, stats);
    const std::vector<guest::GuestOs *> guests = {&os};

    // The quiet-looking guest gets ballooned hard.
    gov.step(guests);
    const std::uint64_t held_inflated = os.balloonHeldPages();
    EXPECT_GT(held_inflated, 0u);
    EXPECT_EQ(gov.extraSlackPages(0), 0u);

    // Refault storm: the reclaimed cache comes back from disk.
    os.touchFileSpace(512);
    EXPECT_GT(os.cacheMisses(), bcfg.refaultTolerance);
    wss.sample();
    gov.step(guests);
    EXPECT_GT(gov.extraSlackPages(0), 0u);
    EXPECT_GT(stats.get("balloon.refault_backoffs"), 0u);
    EXPECT_LT(os.balloonHeldPages(), held_inflated);

    // Calm intervals decay the extra slack back toward zero.
    const std::uint64_t slack_peak = gov.extraSlackPages(0);
    wss.sample();
    gov.step(guests);
    EXPECT_LT(gov.extraSlackPages(0), slack_peak);
    hv.checkConsistency();
}
