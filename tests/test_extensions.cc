/**
 * @file
 * Tests for the analysis/related-work extensions: smaps reporting, the
 * offline dump format, guest page-cache reclaim, the guest balloon,
 * and the compressed swap tier's end-to-end behaviour.
 */

#include <gtest/gtest.h>

#include "analysis/accounting.hh"
#include "analysis/dump_format.hh"
#include "analysis/forensics.hh"
#include "analysis/smaps.hh"
#include "base/stats.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"

using namespace jtps;
using guest::FileImage;
using guest::GuestOs;
using guest::MemCategory;
using guest::Vma;
using hv::Hypervisor;
using mem::PageData;

namespace
{

struct ExtFixture : ::testing::Test
{
    StatSet stats;
    hv::HostConfig host_cfg;
    std::unique_ptr<Hypervisor> hv;
    std::unique_ptr<GuestOs> os;

    void
    SetUp() override
    {
        host_cfg.ramBytes = 512 * MiB;
        host_cfg.reserveBytes = 0;
        hv = std::make_unique<Hypervisor>(host_cfg, stats);
        VmId vm = hv->createVm("vm", 128 * MiB, 0);
        os = std::make_unique<GuestOs>(*hv, vm, "vm", 321);
    }
};

} // namespace

// ---------------------------------------------------------------------
// smaps
// ---------------------------------------------------------------------

TEST_F(ExtFixture, SmapsCountsRssPssAndSwap)
{
    Pid pid = os->spawn("p", true);
    Vma *vma = os->mmapAnon(pid, 16 * pageSize, MemCategory::JavaHeap,
                            "heap");
    for (std::uint64_t i = 0; i < 8; ++i)
        os->writePage(vma, i, PageData::filled(1, i));

    analysis::ProcessSmaps smaps = analysis::computeSmaps(*os, pid);
    ASSERT_EQ(smaps.entries.size(), 1u);
    const auto &e = smaps.entries[0];
    EXPECT_EQ(e.name, "heap");
    EXPECT_EQ(e.size, 16 * pageSize);
    EXPECT_EQ(e.rss, 8 * pageSize);
    EXPECT_DOUBLE_EQ(e.pss, 8.0 * pageSize); // nothing shared yet
    EXPECT_EQ(e.privateClean, 8 * pageSize);
    EXPECT_EQ(e.sharedClean, 0u);
    EXPECT_EQ(e.swap, 0u);
}

TEST_F(ExtFixture, SmapsSeesTpsSharingTheGuestCannot)
{
    VmId vm2 = hv->createVm("vm2", 128 * MiB, 0);
    GuestOs os2(*hv, vm2, "vm2", 654);

    Pid p1 = os->spawn("p", true);
    Pid p2 = os2.spawn("p", true);
    Vma *v1 = os->mmapAnon(p1, 4 * pageSize, MemCategory::JvmWork, "x");
    Vma *v2 = os2.mmapAnon(p2, 4 * pageSize, MemCategory::JvmWork, "x");
    for (std::uint64_t i = 0; i < 4; ++i) {
        os->writePage(v1, i, PageData::filled(2, i));
        os2.writePage(v2, i, PageData::filled(2, i));
    }
    hv->collapseIdenticalPages();

    analysis::ProcessSmaps smaps = analysis::computeSmaps(*os, p1);
    const auto &e = smaps.entries[0];
    EXPECT_EQ(e.rss, 4 * pageSize);
    EXPECT_EQ(e.sharedClean, 4 * pageSize);
    EXPECT_NEAR(e.pss, 2.0 * pageSize, 1.0); // split two ways
}

TEST_F(ExtFixture, SmapsReportsHostSwappedPages)
{
    StatSet s2;
    hv::HostConfig tiny;
    tiny.ramBytes = 8 * pageSize;
    tiny.reserveBytes = 0;
    Hypervisor small_hv(tiny, s2);
    VmId id = small_hv.createVm("vm", 1 * MiB, 0);
    GuestOs small_os(small_hv, id, "vm", 5);
    Pid pid = small_os.spawn("p", false);
    Vma *vma = small_os.mmapAnon(pid, 12 * pageSize,
                                 MemCategory::JvmWork, "x");
    for (std::uint64_t i = 0; i < 12; ++i)
        small_os.writePage(vma, i, PageData::filled(3, i));

    analysis::ProcessSmaps smaps = analysis::computeSmaps(small_os, pid);
    const auto &e = smaps.entries[0];
    EXPECT_EQ(e.rss, 8 * pageSize);
    EXPECT_EQ(e.swap, 4 * pageSize);
    EXPECT_NE(analysis::renderSmaps(smaps).find("Swap:"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// dump format
// ---------------------------------------------------------------------

TEST_F(ExtFixture, DumpRoundTripPreservesAccounting)
{
    guest::KernelConfig k;
    k.textBytes = 512 * KiB;
    k.dataBytes = 256 * KiB;
    k.slabBytes = 256 * KiB;
    k.sharedBootCacheBytes = 512 * KiB;
    k.privateBootCacheBytes = 256 * KiB;
    os->bootKernel(k);
    os->spawnDaemon("d", 128 * KiB, 128 * KiB);
    hv->collapseIdenticalPages();

    std::vector<const GuestOs *> guests = {os.get()};
    analysis::Snapshot snap = analysis::captureSnapshot(*hv, guests);
    const std::string dump = analysis::writeDump(snap);
    analysis::Snapshot parsed = analysis::parseDump(dump);

    EXPECT_EQ(parsed.vmCount, snap.vmCount);
    EXPECT_EQ(parsed.totalResidentFrames, snap.totalResidentFrames);
    EXPECT_EQ(parsed.frameCount(), snap.frameCount());

    analysis::OwnerAccounting a(snap), b(parsed);
    EXPECT_EQ(a.attributedBytes(), b.attributedBytes());
    EXPECT_EQ(a.vmBreakdown(0).kernel, b.vmBreakdown(0).kernel);
    EXPECT_EQ(a.vmBreakdown(0).vmSelf, b.vmBreakdown(0).vmSelf);
}

TEST_F(ExtFixture, DumpIsDeterministic)
{
    Pid pid = os->spawn("p", false);
    Vma *vma = os->mmapAnon(pid, 8 * pageSize, MemCategory::JvmWork, "x");
    for (std::uint64_t i = 0; i < 8; ++i)
        os->writePage(vma, i, PageData::filled(4, i));

    std::vector<const GuestOs *> guests = {os.get()};
    const std::string d1 =
        analysis::writeDump(analysis::captureSnapshot(*hv, guests));
    const std::string d2 =
        analysis::writeDump(analysis::captureSnapshot(*hv, guests));
    EXPECT_EQ(d1, d2);
    EXPECT_NE(d1.find("jtpsdump 1"), std::string::npos);
}

TEST_F(ExtFixture, DumpRoundTripsThroughParse)
{
    // Whatever writeDump() emits, the strict parser accepts unchanged.
    Pid pid = os->spawn("p", true);
    Vma *vma = os->mmapAnon(pid, 8 * pageSize, MemCategory::JavaHeap, "h");
    for (std::uint64_t i = 0; i < 8; ++i)
        os->writePage(vma, i, PageData::filled(5, i % 3));

    std::vector<const GuestOs *> guests = {os.get()};
    const analysis::Snapshot snap = analysis::captureSnapshot(*hv, guests);
    const std::string dump = analysis::writeDump(snap);
    const analysis::Snapshot parsed = analysis::parseDump(dump);
    EXPECT_EQ(parsed.hfns, snap.hfns);
    EXPECT_EQ(parsed.refStart, snap.refStart);
    EXPECT_EQ(parsed.refs, snap.refs);
    EXPECT_EQ(parsed.overheadFrames, snap.overheadFrames);
    EXPECT_EQ(parsed.vmCount, snap.vmCount);
    EXPECT_EQ(parsed.totalResidentFrames, snap.totalResidentFrames);
    EXPECT_EQ(analysis::writeDump(parsed), dump);
}

// ---------------------------------------------------------------------
// page-cache reclaim + balloon
// ---------------------------------------------------------------------

TEST_F(ExtFixture, ReclaimDropsOnlyUnmappedCachePages)
{
    // 32 cached pages; 4 of them mapped by a process.
    FileImage big = FileImage::shared("/opt/data", 28 * pageSize);
    os->readFile(big);
    FileImage lib = FileImage::shared("/opt/lib", 4 * pageSize);
    Pid pid = os->spawn("p", false);
    Vma *vma = os->mmapFile(pid, lib, MemCategory::Code);
    for (std::uint64_t i = 0; i < 4; ++i)
        os->touch(vma, i);
    ASSERT_EQ(os->pageCachePages(), 32u);

    // Ask for everything: only the 28 unmapped pages may go.
    const std::uint64_t reclaimed = os->reclaimPageCache(1000);
    EXPECT_EQ(reclaimed, 28u);
    EXPECT_EQ(os->pageCachePages(), 4u);
    // The mapped pages still read correctly.
    EXPECT_EQ(os->readWord(vma, 2, 0), lib.pageContent(2).word[0]);
    hv->checkConsistency();
}

TEST_F(ExtFixture, ReclaimedPagesRefaultThroughFileSpaceTouches)
{
    FileImage f = FileImage::shared("/opt/data", 16 * pageSize);
    os->readFile(f);
    EXPECT_EQ(os->reclaimPageCache(16), 16u);
    EXPECT_EQ(os->pageCachePages(), 0u);
    EXPECT_EQ(os->cacheMisses(), 0u);

    os->touchFileSpace(64);
    EXPECT_GT(os->cacheMisses(), 0u);
    EXPECT_GT(os->pageCachePages(), 0u); // re-read from disk
}

TEST_F(ExtFixture, BalloonTakesFreeMemoryThenReclaimsCache)
{
    // A small guest so the balloon exhausts free memory quickly.
    VmId id = hv->createVm("small", 1 * MiB, 0); // 256 pages
    GuestOs small(*hv, id, "small", 77);
    FileImage f = FileImage::shared("/opt/data", 64 * pageSize);
    small.readFile(f);
    const std::uint64_t resident_before = hv->residentFrames();

    // 32 pages come from genuinely free guest memory: no reclaim, no
    // host frames released (they were never materialized).
    EXPECT_EQ(small.balloonTake(32), 32u);
    EXPECT_EQ(hv->residentFrames(), resident_before);

    // Inflating past the free memory forces cache reclaim: the 64
    // cache pages' host frames come back.
    small.balloonTake(bytesToPages(1 * GiB));
    EXPECT_EQ(hv->residentFrames(), resident_before - 64);
    EXPECT_EQ(small.pageCachePages(), 0u);

    small.balloonReturn(small.balloonHeldPages());
    EXPECT_EQ(small.balloonHeldPages(), 0u);
    // The guest can use its memory again.
    small.readFile(f);
    EXPECT_EQ(small.pageCachePages(), 64u);
    hv->checkConsistency();
}

TEST_F(ExtFixture, BalloonPushesAnonPagesToGuestSwap)
{
    VmId id = hv->createVm("small", 1 * MiB, 0); // 256 pages
    GuestOs small(*hv, id, "small", 78);
    Pid pid = small.spawn("p", false);
    Vma *vma = small.mmapAnon(pid, 64 * pageSize, MemCategory::JvmWork,
                              "data");
    for (std::uint64_t i = 0; i < 64; ++i)
        small.writePage(vma, i, PageData::filled(5, i));

    // All free memory + everything reclaimable.
    small.balloonTake(bytesToPages(1 * GiB));
    EXPECT_GT(small.guestSwappedPages(), 0u);
    EXPECT_GT(small.guestSwapOuts(), 0u);

    // Reading a swapped page faults it back in with intact content.
    const std::uint64_t faults_before = small.guestMajorFaults();
    // Free room for the swap-ins.
    small.balloonReturn(small.balloonHeldPages());
    for (std::uint64_t i = 0; i < 64; ++i) {
        ASSERT_EQ(small.readWord(vma, i, 2),
                  PageData::filled(5, i).word[2]);
    }
    EXPECT_GT(small.guestMajorFaults(), faults_before);
    EXPECT_EQ(small.guestSwappedPages(), 0u);
    hv->checkConsistency();
}

TEST_F(ExtFixture, GuestSwapPreservesContentUnderOvercommit)
{
    // Guest with 64 pages of RAM running a 128-page working set: the
    // guest must swap against its own device and never lose data.
    VmId id = hv->createVm("tiny", 64 * pageSize, 0);
    GuestOs tiny(*hv, id, "tiny", 79);
    Pid pid = tiny.spawn("p", false);
    Vma *vma = tiny.mmapAnon(pid, 128 * pageSize, MemCategory::JvmWork,
                             "big");
    for (std::uint64_t i = 0; i < 128; ++i)
        tiny.writePage(vma, i, PageData::filled(6, i));
    EXPECT_GT(tiny.guestSwapOuts(), 0u);

    for (std::uint64_t i = 0; i < 128; ++i) {
        ASSERT_EQ(tiny.readWord(vma, i, 1),
                  PageData::filled(6, i).word[1])
            << "page " << i;
    }
    hv->checkConsistency();
}

TEST_F(ExtFixture, MunmapMakesFilePagesReclaimable)
{
    FileImage lib = FileImage::shared("/opt/lib", 4 * pageSize);
    Pid pid = os->spawn("p", false);
    Vma *vma = os->mmapFile(pid, lib, MemCategory::Code);
    for (std::uint64_t i = 0; i < 4; ++i)
        os->touch(vma, i);
    EXPECT_EQ(os->reclaimPageCache(1000), 0u); // all mapped
    os->munmap(pid, vma);
    EXPECT_EQ(os->reclaimPageCache(1000), 4u); // now reclaimable
}
