/**
 * @file
 * Unit tests for the forensics walk and the two accounting schemes.
 */

#include <gtest/gtest.h>

#include "analysis/accounting.hh"
#include "analysis/forensics.hh"
#include "analysis/report.hh"
#include "base/stats.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"

using namespace jtps;
using analysis::FrameRef;
using analysis::OwnerAccounting;
using analysis::PssAccounting;
using analysis::Snapshot;
using guest::FileImage;
using guest::GuestOs;
using guest::MemCategory;
using guest::Vma;
using hv::KvmHypervisor;
using mem::PageData;

namespace
{

struct AnalysisFixture : ::testing::Test
{
    StatSet stats;
    hv::HostConfig host_cfg;
    std::unique_ptr<KvmHypervisor> hv;
    std::vector<std::unique_ptr<GuestOs>> guests;

    void
    SetUp() override
    {
        host_cfg.ramBytes = 512 * MiB;
        host_cfg.reserveBytes = 0;
        hv = std::make_unique<KvmHypervisor>(host_cfg, stats);
    }

    GuestOs &
    addGuest(Bytes overhead = 0)
    {
        const VmId id = hv->createVm(
            "vm" + std::to_string(guests.size()), 64 * MiB, overhead);
        guests.push_back(std::make_unique<GuestOs>(
            *hv, id, "vm" + std::to_string(id), 1000 + id));
        return *guests.back();
    }

    Snapshot
    capture()
    {
        std::vector<const GuestOs *> ptrs;
        for (const auto &g : guests)
            ptrs.push_back(g.get());
        return analysis::captureSnapshot(*hv, ptrs);
    }
};

} // namespace

TEST_F(AnalysisFixture, WalkFindsResidentPagesOnly)
{
    GuestOs &os = addGuest();
    Pid pid = os.spawn("p", false);
    Vma *vma = os.mmapAnon(pid, 64 * KiB, MemCategory::JvmWork, "x");
    os.writeWord(vma, 0, 0, 1);
    os.writeWord(vma, 5, 0, 1);

    Snapshot snap = capture();
    EXPECT_EQ(snap.frames.size(), 2u);
    EXPECT_EQ(snap.totalResidentFrames, 2u);
}

TEST_F(AnalysisFixture, ConservationOwnerOriented)
{
    GuestOs &a = addGuest(1 * MiB);
    GuestOs &b = addGuest(1 * MiB);
    guest::KernelConfig k;
    k.textBytes = 1 * MiB;
    k.dataBytes = 512 * KiB;
    k.slabBytes = 512 * KiB;
    k.sharedBootCacheBytes = 1 * MiB;
    k.privateBootCacheBytes = 1 * MiB;
    a.bootKernel(k);
    b.bootKernel(k);
    a.spawnDaemon("d", 256 * KiB, 256 * KiB);
    b.spawnDaemon("d", 256 * KiB, 256 * KiB);
    hv->collapseIdenticalPages();

    Snapshot snap = capture();
    OwnerAccounting acct(snap);
    // Every resident byte is attributed exactly once.
    EXPECT_EQ(acct.attributedBytes(), acct.residentBytes());

    // VM rollups also sum to the total.
    Bytes rollup = 0;
    for (VmId v = 0; v < 2; ++v)
        rollup += acct.vmBreakdown(v).usageTotal();
    EXPECT_EQ(rollup, acct.residentBytes());
}

TEST_F(AnalysisFixture, ConservationPss)
{
    GuestOs &a = addGuest();
    GuestOs &b = addGuest();
    guest::KernelConfig k;
    k.textBytes = 512 * KiB;
    k.dataBytes = 256 * KiB;
    k.slabBytes = 256 * KiB;
    k.sharedBootCacheBytes = 512 * KiB;
    k.privateBootCacheBytes = 256 * KiB;
    a.bootKernel(k);
    b.bootKernel(k);
    hv->collapseIdenticalPages();

    PssAccounting pss(capture());
    double sum = 0;
    for (const auto &[key, v] : pss.processes())
        sum += v;
    EXPECT_NEAR(sum, static_cast<double>(hv->residentBytes()), 1.0);
}

TEST_F(AnalysisFixture, JavaProcessWinsOwnership)
{
    GuestOs &a = addGuest();
    GuestOs &b = addGuest();

    // A Java process in VM1 (high pid) and a daemon in VM0 (low pid)
    // map identical content; after TPS the Java process must own it.
    Pid daemon = a.spawn("daemon", false);
    Pid extra = b.spawn("filler", false);
    (void)extra;
    Pid java = b.spawn("java", true);

    Vma *va = a.mmapAnon(daemon, 16 * KiB, MemCategory::OtherProcess, "x");
    Vma *vb = b.mmapAnon(java, 16 * KiB, MemCategory::JvmWork, "x");
    for (std::uint64_t i = 0; i < 4; ++i) {
        a.writePage(va, i, PageData::filled(77, i));
        b.writePage(vb, i, PageData::filled(77, i));
    }
    hv->collapseIdenticalPages();

    OwnerAccounting acct(capture());
    const auto &java_usage = acct.usage(b.vmId(), java);
    const auto &daemon_usage = acct.usage(a.vmId(), daemon);
    EXPECT_EQ(java_usage.ownedTotal(), 16 * KiB);
    EXPECT_EQ(java_usage.sharedTotal(), 0u);
    EXPECT_EQ(daemon_usage.ownedTotal(), 0u);
    EXPECT_EQ(daemon_usage.sharedTotal(), 16 * KiB);
}

TEST_F(AnalysisFixture, SmallestPidWinsAmongJava)
{
    GuestOs &a = addGuest();
    GuestOs &b = addGuest();
    Pid filler = a.spawn("filler", false);
    (void)filler;
    Pid java_a = a.spawn("java", true); // pid 2
    Pid java_b = b.spawn("java", true); // pid 1

    Vma *va = a.mmapAnon(java_a, 4 * KiB, MemCategory::JavaHeap, "h");
    Vma *vb = b.mmapAnon(java_b, 4 * KiB, MemCategory::JavaHeap, "h");
    a.writePage(va, 0, PageData::filled(5, 5));
    b.writePage(vb, 0, PageData::filled(5, 5));
    hv->collapseIdenticalPages();

    OwnerAccounting acct(capture());
    EXPECT_EQ(acct.usage(b.vmId(), java_b).ownedTotal(), 4 * KiB);
    EXPECT_EQ(acct.usage(a.vmId(), java_a).sharedTotal(), 4 * KiB);
}

TEST_F(AnalysisFixture, IntraVmAliasCountsOnce)
{
    GuestOs &os = addGuest();
    // A file page mapped by a process AND held in the kernel page
    // cache: one guest page, one attribution (to the process).
    Pid pid = os.spawn("p", false);
    FileImage f = FileImage::shared("/lib.so", 4 * KiB);
    Vma *vma = os.mmapFile(pid, f, MemCategory::Code);
    os.touch(vma, 0);

    OwnerAccounting acct(capture());
    const auto &proc = acct.usage(os.vmId(), pid);
    EXPECT_EQ(proc.ownedTotal(), 4 * KiB);
    EXPECT_EQ(proc.sharedTotal(), 0u);
    // The kernel's cache mapping of the same guest page adds nothing.
    if (acct.hasProcess(os.vmId(), 0)) {
        EXPECT_EQ(acct.usage(os.vmId(), 0).ownedTotal() +
                      acct.usage(os.vmId(), 0).sharedTotal(),
                  0u);
    }
    // Conservation still holds.
    EXPECT_EQ(acct.attributedBytes(), acct.residentBytes());
}

TEST_F(AnalysisFixture, SelfDeduplicationCountsAsSaving)
{
    GuestOs &os = addGuest();
    Pid pid = os.spawn("p", true);
    Vma *vma = os.mmapAnon(pid, 16 * KiB, MemCategory::JavaHeap, "h");
    for (std::uint64_t i = 0; i < 4; ++i)
        os.writePage(vma, i, PageData::zero());
    hv->collapseIdenticalPages();
    EXPECT_EQ(hv->residentFrames(), 1u);

    OwnerAccounting acct(capture());
    const auto &pu = acct.usage(os.vmId(), pid);
    EXPECT_EQ(pu.ownedTotal(), 4 * KiB);
    EXPECT_EQ(pu.sharedTotal(), 12 * KiB);
}

TEST_F(AnalysisFixture, VmOverheadAttributedToVmItself)
{
    addGuest(2 * MiB);
    OwnerAccounting acct(capture());
    EXPECT_EQ(acct.vmBreakdown(0).vmSelf, 2 * MiB);
    EXPECT_EQ(acct.attributedBytes(), acct.residentBytes());
}

TEST_F(AnalysisFixture, ReportRenderersProduceOutput)
{
    GuestOs &os = addGuest(1 * MiB);
    Pid java = os.spawn("java", true);
    Vma *vma = os.mmapAnon(java, 64 * KiB, MemCategory::JavaHeap, "h");
    for (std::uint64_t i = 0; i < 16; ++i)
        os.writePage(vma, i, PageData::filled(1, i));

    OwnerAccounting acct(capture());
    std::string vm_report =
        analysis::renderVmBreakdownReport(acct, {"VM1"});
    EXPECT_NE(vm_report.find("VM1"), std::string::npos);
    EXPECT_NE(vm_report.find("Java"), std::string::npos);

    std::vector<analysis::JavaProcRow> rows = {{"JVM1", 0, java}};
    std::string java_report =
        analysis::renderJavaBreakdownReport(acct, rows);
    EXPECT_NE(java_report.find("Java heap"), std::string::npos);
    EXPECT_NE(java_report.find("JVM1"), std::string::npos);

    EXPECT_NE(analysis::vmBreakdownCsv(acct, {"VM1"}).find("vm,"),
              std::string::npos);
    EXPECT_NE(analysis::javaBreakdownCsv(acct, rows).find("process,"),
              std::string::npos);
}

TEST_F(AnalysisFixture, SwappedPagesAreNotPhysicalUsage)
{
    // Tiny host: force some of the guest's pages out, then verify the
    // walk skips them.
    StatSet s2;
    hv::HostConfig tiny;
    tiny.ramBytes = 8 * pageSize;
    tiny.reserveBytes = 0;
    KvmHypervisor small_hv(tiny, s2);
    VmId id = small_hv.createVm("vm", 1 * MiB, 0);
    GuestOs os(small_hv, id, "vm", 5);
    Pid pid = os.spawn("p", false);
    Vma *vma = os.mmapAnon(pid, 12 * pageSize, MemCategory::JvmWork, "x");
    for (std::uint64_t i = 0; i < 12; ++i)
        os.writePage(vma, i, PageData::filled(1, i));

    std::vector<const GuestOs *> ptrs = {&os};
    Snapshot snap = analysis::captureSnapshot(small_hv, ptrs);
    EXPECT_EQ(snap.frames.size(), 8u);
    OwnerAccounting acct(snap);
    EXPECT_EQ(acct.attributedBytes(), 8 * pageSize);
}
