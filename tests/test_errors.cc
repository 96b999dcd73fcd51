/**
 * @file
 * Error-path tests: the fatal()/panic() conditions users can actually
 * hit (guest OOM with a full swap, host OOM with everything pinned,
 * malformed dumps) must terminate with clear diagnostics rather than
 * corrupt state.
 */

#include <gtest/gtest.h>

#include "analysis/dump_format.hh"
#include "base/stats.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"

using namespace jtps;
using guest::GuestOs;
using guest::MemCategory;
using hv::KvmHypervisor;
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
        KvmHypervisor hv(tinyHost(64 * MiB), stats);
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
        KvmHypervisor hv(tinyHost(4 * pageSize), stats);
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
        "jtpsdump 1\nvms 1\nend 0\nend 0\n",
    };
    for (const char *dump : bad_dumps) {
        SCOPED_TRACE(dump);
        EXPECT_EXIT(analysis::parseDump(dump), ::testing::ExitedWithCode(1),
                    "malformed dump");
    }
}

TEST(ErrorDeathTest, WriteWordSectorBoundsArePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto run = [] {
        StatSet stats;
        KvmHypervisor hv(tinyHost(1 * MiB), stats);
        VmId id = hv.createVm("vm", 64 * pageSize, 0);
        hv.writeWord(id, 0, mem::sectorsPerPage, 1); // sector too big
    };
    EXPECT_DEATH(run(), "assertion");
}
