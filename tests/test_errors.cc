/**
 * @file
 * Error-path tests: the fatal()/panic() conditions users can actually
 * hit (guest OOM with a full swap, host OOM with everything pinned,
 * malformed dumps) must terminate with clear diagnostics rather than
 * corrupt state.
 */

#include <gtest/gtest.h>

#include "analysis/dump_format.hh"
#include "analysis/forensics.hh"
#include "base/stats.hh"
#include "core/scenario.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"
#include "ksm/ksm_scanner.hh"
#include "mem/frame_table.hh"

using namespace jtps;
using guest::GuestOs;
using guest::MemCategory;
using hv::Hypervisor;
using mem::PageData;

namespace
{

hv::HostConfig
tinyHost(Bytes ram)
{
    hv::HostConfig cfg;
    cfg.ramBytes = ram;
    cfg.reserveBytes = 0;
    return cfg;
}

} // namespace

using ErrorDeathTest = ::testing::Test;

TEST(ErrorDeathTest, GuestOomWithFullSwapIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        StatSet stats;
        Hypervisor hv(tinyHost(64 * MiB), stats);
        VmId id = hv.createVm("vm", 8 * pageSize, 0);
        GuestOs os(hv, id, "vm", 1);
        os.setGuestSwapBytes(2 * pageSize); // nearly no swap
        Pid pid = os.spawn("p", false);
        guest::Vma *vma = os.mmapAnon(pid, 64 * pageSize,
                                      MemCategory::JvmWork, "big");
        for (std::uint64_t i = 0; i < 64; ++i)
            os.writePage(vma, i, PageData::filled(1, i));
    };
    EXPECT_EXIT(run(), ::testing::ExitedWithCode(1), "out of memory");
}

TEST(ErrorDeathTest, HostOomWithOnlyPinnedMemoryIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        StatSet stats;
        Hypervisor hv(tinyHost(4 * pageSize), stats);
        // Overhead is pinned; asking for more than RAM can never work.
        hv.createVm("vm", 1 * MiB, 8 * pageSize);
    };
    EXPECT_EXIT(run(), ::testing::ExitedWithCode(1), "out of memory");
}

TEST(ErrorDeathTest, MalformedDumpsAreRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(analysis::parseDump("not a dump\n"),
                ::testing::ExitedWithCode(1), "malformed dump");
    EXPECT_EXIT(analysis::parseDump("jtpsdump 99\n"),
                ::testing::ExitedWithCode(1), "malformed dump");
    EXPECT_EXIT(analysis::parseDump("jtpsdump 1\nvms 1\n"),
                ::testing::ExitedWithCode(1), "missing end");
    EXPECT_EXIT(
        analysis::parseDump("jtpsdump 1\nvms 1\nframe 0 2\n"
                            "ref 0 0 0 1 0\nend 1\n"),
        ::testing::ExitedWithCode(1), "incomplete");
    EXPECT_EXIT(
        analysis::parseDump("jtpsdump 1\nref 0 0 0 1 0\nend 1\n"),
        ::testing::ExitedWithCode(1), "ref outside frame");
    // Category out of range.
    EXPECT_EXIT(
        analysis::parseDump("jtpsdump 1\nframe 0 1\nref 0 0 0 1 99\n"
                            "end 1\n"),
        ::testing::ExitedWithCode(1), "bad ref");

    // Numbers are unsigned decimal without a sign, and vm ids lie below
    // the vms count: no input may wrap, index out of bounds or size a
    // table by an id.
    const char *const bad_dumps[] = {
        // The largest 32-bit vm id, for which vm + 1 is 0.
        "jtpsdump 1\nvms 1\noverhead 4294967295 7\nend 0\n",
        "jtpsdump 1\nvms 1\noverhead -1 7\nend 0\n",
        "jtpsdump 1\nvms 1\noverhead 4000000000 7\nend 0\n",
        "jtpsdump 1\nvms 4000000000\noverhead 3999999999 7\nend 0\n",
        "jtpsdump 1\nvms 2\noverhead 1 7\nend 0\n",
        "jtpsdump 1\noverhead 0 7\nend 0\n",
        "jtpsdump 1\nvms +1\nend 0\n",
        "jtpsdump 1\nvms 1 2\nend 0\n",
        "jtpsdump 1\nvms 1\nvms 2\nend 0\n",
        "jtpsdump 1\nvms 1\nframe 0 1\nref -1 0 1 1 0\nend 1\n",
        "jtpsdump 1\nvms 1\nframe 0 1\nref 1 0 1 1 0\nend 1\n",
        "jtpsdump 1\nframe 0 1\nref 0 0 1 1 0\nend 1\n",
        "jtpsdump 1\nvms 1\nframe 0 1\nref 0 0 1 2 0\nend 1\n",
        // Frame hfns must strictly ascend: a repeated one would merge
        // into the first.
        "jtpsdump 1\nvms 1\nframe 5 1\nref 0 0 1 1 0\n"
        "frame 5 1\nref 0 1 1 1 0\nend 2\n",
        "jtpsdump 1\nvms 1\nframe 5 1\nref 0 0 1 1 0\n"
        "frame 4 1\nref 0 1 1 1 0\nend 2\n",
        // More references than memory could hold.
        "jtpsdump 1\nvms 1\nframe 0 4000000000000000000\nend 0\n",
        // Gfns are 32-bit and the all-ones one is no page.
        "jtpsdump 1\nvms 1\nframe 0 1\nref 0 4294967296 1 1 0\nend 1\n",
        "jtpsdump 1\nvms 1\nframe 0 1\nref 0 4294967295 1 1 0\nend 1\n",
        "jtpsdump 1\nvms 1\nend 0\nend 0\n",
    };
    for (const char *dump : bad_dumps) {
        SCOPED_TRACE(dump);
        EXPECT_EXIT(analysis::parseDump(dump), ::testing::ExitedWithCode(1),
                    "malformed dump");
    }

    // A frame whose ref count would carry the 32-bit running offset
    // past its limit is refused at its own line.
    EXPECT_EXIT(analysis::parseDump("jtpsdump 1\nvms 1\n"
                                    "frame 0 4294967296\nend 0\n"),
                ::testing::ExitedWithCode(1),
                "line 3: frame's ref count overflows the 32-bit");
    EXPECT_EXIT(analysis::parseDump("jtpsdump 1\nvms 1\n"
                                    "frame 0 1\nref 0 0 1 1 0\n"
                                    "frame 1 4294967295\nend 0\n"),
                ::testing::ExitedWithCode(1),
                "line 5: frame's ref count overflows the 32-bit");
}

// The per-page records store gfns in 32 bits and EPT backings in 60;
// every input that would not fit them is refused by name, never
// truncated.

TEST(ErrorDeathTest, GuestOf2To32PagesIsRefused)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        StatSet stats;
        Hypervisor hv(tinyHost(64 * MiB), stats);
        // Refused before its 32 GiB EPT is allocated.
        hv.createVm("huge", (maxGuestPages + 1) * pageSize, 0);
    };
    EXPECT_EXIT(run(), ::testing::ExitedWithCode(1),
                "guest 'huge' of 4294967296 pages is too large");
}

TEST(ErrorDeathTest, FrameNumbersBeyondEptBackingAreRefused)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The largest table allocates nothing up front.
    mem::FrameTable largest(std::uint64_t{1} << backingBits);
    EXPECT_EQ(largest.capacity(), std::uint64_t{1} << backingBits);
    EXPECT_EXIT(mem::FrameTable((std::uint64_t{1} << backingBits) + 1),
                ::testing::ExitedWithCode(1),
                "host frame number 1152921504606846976 does not fit the "
                "EPT entry's 60-bit backing field");
}

TEST(ErrorDeathTest, SwapSlotBeyondEptBackingIsRefused)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // No run stores 2^60 pages, so the check SwapDevice::store() applies
    // to each new slot id is called directly.
    mem::checkBacking((std::uint64_t{1} << backingBits) - 1, "swap slot id");
    EXPECT_EXIT(
        mem::checkBacking(std::uint64_t{1} << backingBits, "swap slot id"),
        ::testing::ExitedWithCode(1),
        "swap slot id 1152921504606846976 does not fit");
}

TEST(ErrorDeathTest, VmIdBeyondKsmSlotFieldIsRefused)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // @p first_has_memory gives VM 0 pages, so the scan sizes its row
    // first, and that resize already covers every later VM's row.
    auto run = [](VmId empty_vms, bool first_has_memory) {
        StatSet stats;
        Hypervisor hv(tinyHost(64 * MiB), stats);
        ksm::KsmScanner scanner(hv, ksm::KsmConfig{}, stats);
        if (first_has_memory) {
            const VmId first = hv.createVm("first", 4 * pageSize, 0);
            hv.writePage(first, 0, PageData::filled(2, 2));
            --empty_vms;
        }
        // Memoryless VMs take ids without a page-state row.
        for (VmId i = 0; i < empty_vms; ++i)
            hv.createVm("", 0, 0);
        const VmId last = hv.createVm("last", 4 * pageSize, 0);
        hv.writePage(last, 0, PageData::filled(1, 1));
        for (int pass = 0; pass < 3; ++pass)
            scanner.scanBatch();
        std::exit(scanner.pageStateBytes() > 0 ? 3 : 4);
    };
    constexpr VmId cap = VmId{1} << ksm::KsmScanner::slotVmBits;
    EXPECT_EXIT(run(cap - 1, false), ::testing::ExitedWithCode(3), "");
    EXPECT_EXIT(run(cap, false), ::testing::ExitedWithCode(1),
                "VM id 1048576 does not fit the 20-bit VM field");
    EXPECT_EXIT(run(cap, true), ::testing::ExitedWithCode(1),
                "VM id 1048576 does not fit the 20-bit VM field");
}

TEST(ErrorDeathTest, SnapshotBeyond32BitOffsetsIsRefused)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // No test host maps 2^32 guest pages, so the limit captureSnapshot()
    // applies to its reference count is checked directly.
    analysis::checkSnapshotRefs(analysis::Snapshot::maxSnapshotRefs);
    EXPECT_EXIT(
        analysis::checkSnapshotRefs(analysis::Snapshot::maxSnapshotRefs + 1),
        ::testing::ExitedWithCode(1),
        "snapshot of 4294967296 references exceeds");
}

TEST(ErrorDeathTest, WriteWordSectorBoundsArePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        StatSet stats;
        Hypervisor hv(tinyHost(1 * MiB), stats);
        VmId id = hv.createVm("vm", 64 * pageSize, 0);
        hv.writeWord(id, 0, mem::sectorsPerPage, 1); // sector too big
    };
    EXPECT_DEATH(run(), "assertion");
}

// Hypervisor::checkConsistency() audits the invariants that tie the
// EPT, the frame table, the swap device and the PML rings together.
// Each test below breaks exactly one of them through the public
// accessors and expects the audit to panic on that invariant's check.

namespace
{

/**
 * Build a 4-frame host whose one VM wrote 6 pages (so 2 went to swap)
 * into 8-slot PML rings, apply @p break_one to it, run the audit and
 * expect it to panic with @p check. The intact host is audited too,
 * and must pass.
 */
template <typename Break>
void
expectAuditPanics(Break break_one, const char *check)
{
    auto run = [&](bool broken) {
        StatSet stats;
        hv::HostConfig cfg = tinyHost(4 * pageSize);
        cfg.pmlRingSlots = 8;
        Hypervisor hv(cfg, stats);
        const VmId vm = hv.createVm("vm", 16 * pageSize, 0);
        for (Gfn g = 0; g < 6; ++g)
            hv.writePage(vm, g, PageData::filled(1, g));
        if (broken)
            break_one(hv, hv.vm(vm));
        hv.checkConsistency();
        std::exit(0);
    };
    EXPECT_EXIT(run(false), ::testing::ExitedWithCode(0), "");
    EXPECT_DEATH(run(true), check);
}

/** The first guest frame of @p v in state @p state. */
Gfn
firstIn(const hv::Vm &v, hv::PageState state)
{
    for (Gfn g = 0; g < v.ept.size(); ++g)
        if (v.ept.entry(g).state == state)
            return g;
    std::abort();
}

/** The frame backing @p v's first resident page. */
mem::Frame &
firstResidentFrame(Hypervisor &hv, const hv::Vm &v)
{
    return hv.frames().frame(
        v.ept.entry(firstIn(v, hv::PageState::Resident)).backing);
}

} // namespace

TEST(ErrorDeathTest, AuditCatchesEptEntryMissingFromItsFrameMappings)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    expectAuditPanics(
        [](Hypervisor &, hv::Vm &v) {
            // Repoint the first resident page at the last one's frame,
            // whose reverse mappings name only the last page.
            const Gfn first = firstIn(v, hv::PageState::Resident);
            Gfn last = first;
            for (Gfn g = first; g < v.ept.size(); ++g)
                if (v.ept.entry(g).state == hv::PageState::Resident)
                    last = g;
            ASSERT_NE(first, last);
            v.ept.entry(first).backing = v.ept.entry(last).backing;
        },
        "e.backing == hfn");
}

TEST(ErrorDeathTest, AuditCatchesReverseMappingWithoutItsEptEntry)
{
    // Forget a resident page in its EPT only: its frame keeps the
    // reverse mapping, and refcount still matches the mapping count.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    expectAuditPanics(
        [](Hypervisor &, hv::Vm &v) {
            v.ept.entry(firstIn(v, hv::PageState::Resident)) = hv::EptEntry{};
        },
        "e.state == PageState::Resident && e.backing == hfn");
}

TEST(ErrorDeathTest, AuditCatchesDuplicateReverseMapping)
{
    // Give a frame its primary mapping a second time and point one
    // more entry at it: refcount, spill size and the totals of
    // mappings and resident entries all still agree, so only the rule
    // that no entry is claimed twice sees it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    expectAuditPanics(
        [](Hypervisor &hv, hv::Vm &v) {
            const Hfn h = v.ept.entry(firstIn(v, hv::PageState::Resident))
                              .backing;
            hv.frames().addMapping(h, hv.frames().frame(h).primary);
            hv::EptEntry &spare =
                v.ept.entry(firstIn(v, hv::PageState::NotPresent));
            spare.state = hv::PageState::Resident;
            spare.backing = h;
        },
        "!claimed.m.vm..m.gfn.");
}

TEST(ErrorDeathTest, AuditCatchesSwappedEntryWithoutItsSlot)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    expectAuditPanics(
        [](Hypervisor &hv, hv::Vm &v) {
            mem::SwapSlot unheld = 0;
            while (hv.swap().has(unheld))
                ++unheld;
            v.ept.entry(firstIn(v, hv::PageState::Swapped)).backing = unheld;
        },
        "swap_.has");
}

TEST(ErrorDeathTest, AuditCatchesPmlBitWithoutRingEntry)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    expectAuditPanics(
        [](Hypervisor &, hv::Vm &v) {
            v.ept.entry(firstIn(v, hv::PageState::NotPresent)).pmlLogged =
                true;
        },
        "!e.pmlLogged .. ringed.gfn.");
}

TEST(ErrorDeathTest, AuditCatchesPmlRingBeyondItsSlots)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    expectAuditPanics(
        [](Hypervisor &hv, hv::Vm &v) {
            while (v.pmlRing.size() <= hv.pmlRingSlots())
                v.pmlRing.push_back(v.pmlRing.front());
        },
        "pmlRing.size.. <= pml_ring_slots_");
}

TEST(ErrorDeathTest, AuditCatchesRefcountOffItsMappingCount)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    expectAuditPanics(
        [](Hypervisor &hv, hv::Vm &v) {
            ++firstResidentFrame(hv, v).refcount;
        },
        "f.refcount == 1 . spills_");
}

TEST(ErrorDeathTest, AuditCatchesKsmStableFlagBehindTheCounters)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    expectAuditPanics(
        [](Hypervisor &hv, hv::Vm &v) {
            firstResidentFrame(hv, v).ksmStable = true;
        },
        "stable_count == ksm_stable_frames_");
}

TEST(ErrorDeathTest, RetiredVmHasNoGuest)
{
    // Retiring a VM destroys its guest, JVM and driver: asking for any
    // of them afterwards is a caller bug, caught before it can walk
    // page tables through the retired VM's empty EPT.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        core::Scenario s(core::ScenarioConfig{},
                         {workload::dayTraderIntel()});
        s.build();
        s.retireVm(0);
        s.guest(0);
    };
    EXPECT_DEATH(run(), "assertion 'i < slots_.size\\(\\) && "
                        "slots_\\[i\\] != nullptr' failed");
}
