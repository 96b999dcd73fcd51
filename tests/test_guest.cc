/**
 * @file
 * Unit tests for the guest OS: processes, VMAs, page tables, the file
 * page cache, kernel boot.
 */

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "base/stats.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"

using namespace jtps;
using guest::FileImage;
using guest::GuestOs;
using guest::KernelConfig;
using guest::MemCategory;
using guest::Vma;
using hv::Hypervisor;
using mem::PageData;

namespace
{

struct GuestFixture : ::testing::Test
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
        os = std::make_unique<GuestOs>(*hv, vm, "vm", 1234);
    }
};

} // namespace

TEST_F(GuestFixture, SpawnAssignsSequentialPids)
{
    EXPECT_EQ(os->process(0).name, "[kernel]");
    Pid p1 = os->spawn("a", false);
    Pid p2 = os->spawn("b", true);
    EXPECT_EQ(p1, 1u);
    EXPECT_EQ(p2, 2u);
    EXPECT_TRUE(os->process(p2).isJava);
}

TEST_F(GuestFixture, AnonMemoryIsDemandPaged)
{
    Pid pid = os->spawn("p", false);
    Vma *vma = os->mmapAnon(pid, 64 * KiB, MemCategory::JvmWork, "x");
    EXPECT_EQ(vma->numPages, 16u);
    EXPECT_EQ(os->gfnsAllocated(), 0u);
    EXPECT_EQ(os->readWord(vma, 3, 0), 0u); // read doesn't populate
    EXPECT_EQ(os->gfnsAllocated(), 0u);

    os->writeWord(vma, 3, 1, 99);
    EXPECT_EQ(os->gfnsAllocated(), 1u);
    EXPECT_EQ(os->readWord(vma, 3, 1), 99u);
}

TEST_F(GuestFixture, AslrMakesLayoutsDiffer)
{
    Pid p1 = os->spawn("p1", false);
    Pid p2 = os->spawn("p2", false);
    Vma *v1 = os->mmapAnon(p1, 64 * KiB, MemCategory::JvmWork, "x");
    Vma *v2 = os->mmapAnon(p2, 64 * KiB, MemCategory::JvmWork, "x");
    EXPECT_NE(v1->startVpn, v2->startVpn);
}

TEST_F(GuestFixture, FileMmapAliasesPageCache)
{
    FileImage f = FileImage::shared("/opt/lib.so", 32 * KiB);
    Pid p1 = os->spawn("p1", false);
    Pid p2 = os->spawn("p2", false);
    Vma *v1 = os->mmapFile(p1, f, MemCategory::Code);
    Vma *v2 = os->mmapFile(p2, f, MemCategory::Code);

    os->touch(v1, 2);
    os->touch(v2, 2);
    // Both processes and the kernel cache hold the same guest frame:
    // only one cache page was created.
    EXPECT_EQ(os->pageCachePages(), 1u);
    const Gfn g1 = os->gfnAt(v1, 2);
    const Gfn g2 = os->gfnAt(v2, 2);
    ASSERT_NE(g1, invalidFrame);
    EXPECT_EQ(g1, g2);
    // Content comes from the file image.
    EXPECT_EQ(os->readWord(v1, 2, 0), f.pageContent(2).word[0]);
}

TEST_F(GuestFixture, SharedFilesHaveEqualContentAcrossGuests)
{
    VmId vm2 = hv->createVm("vm2", 128 * MiB, 0);
    GuestOs os2(*hv, vm2, "vm2", 9999);

    FileImage f = FileImage::shared("/opt/lib.so", 16 * KiB);
    Gfn a = os->pageCacheGet(f, 0);
    Gfn b = os2.pageCacheGet(f, 0);
    EXPECT_EQ(*hv->peek(os->vmId(), a), *hv->peek(vm2, b));

    FileImage pa = FileImage::perVm("/var/log/m", 16 * KiB, os->seed());
    FileImage pb = FileImage::perVm("/var/log/m", 16 * KiB, os2.seed());
    Gfn c = os->pageCacheGet(pa, 0);
    Gfn d = os2.pageCacheGet(pb, 0);
    EXPECT_NE(*hv->peek(os->vmId(), c), *hv->peek(vm2, d));
}

TEST_F(GuestFixture, DiscardFreesAnonButNotFilePages)
{
    Pid pid = os->spawn("p", false);
    Vma *anon = os->mmapAnon(pid, 16 * KiB, MemCategory::JavaHeap, "h");
    os->writeWord(anon, 0, 0, 1);
    const std::uint64_t gfns = os->gfnsAllocated();
    os->discard(anon, 0);
    EXPECT_EQ(os->gfnsAllocated(), gfns - 1);

    FileImage f = FileImage::shared("/f", 16 * KiB);
    Vma *file = os->mmapFile(pid, f, MemCategory::Code);
    os->touch(file, 0);
    const std::uint64_t gfns2 = os->gfnsAllocated();
    os->discard(file, 0); // only unmaps; cache retains the page
    EXPECT_EQ(os->gfnsAllocated(), gfns2);
    EXPECT_EQ(os->pageCachePages(), 1u);
}

TEST_F(GuestFixture, MunmapReleasesRange)
{
    Pid pid = os->spawn("p", false);
    Vma *vma = os->mmapAnon(pid, 64 * KiB, MemCategory::JvmWork, "x");
    for (std::uint64_t i = 0; i < vma->numPages; ++i)
        os->writeWord(vma, i, 0, i + 1);
    EXPECT_EQ(os->gfnsAllocated(), 16u);
    os->munmap(pid, vma);
    EXPECT_EQ(os->gfnsAllocated(), 0u);
    EXPECT_TRUE(os->process(pid).vmas.empty());
    hv->checkConsistency();
}

TEST_F(GuestFixture, GfnReuseAfterFree)
{
    Pid pid = os->spawn("p", false);
    Vma *vma = os->mmapAnon(pid, 16 * KiB, MemCategory::JvmWork, "x");
    os->writeWord(vma, 0, 0, 1);
    const Gfn g = os->gfnAt(vma, 0);
    ASSERT_NE(g, invalidFrame);
    os->discard(vma, 0);
    EXPECT_EQ(os->gfnAt(vma, 0), invalidFrame);
    os->writeWord(vma, 1, 0, 2);
    const Gfn g2 = os->gfnAt(vma, 1);
    EXPECT_EQ(g, g2); // freed gfn recycled
}

TEST_F(GuestFixture, BootKernelPopulatesExpectedSizes)
{
    KernelConfig cfg;
    cfg.textBytes = 2 * MiB;
    cfg.dataBytes = 1 * MiB;
    cfg.slabBytes = 1 * MiB;
    cfg.sharedBootCacheBytes = 4 * MiB;
    cfg.privateBootCacheBytes = 2 * MiB;
    os->bootKernel(cfg);

    EXPECT_EQ(os->pageCachePages(), bytesToPages(6 * MiB));
    // text+data+slab+cache all resident.
    EXPECT_EQ(hv->pagesIn(os->vmId(), hv::PageState::Resident), bytesToPages(10 * MiB));
}

TEST_F(GuestFixture, KernelTextIdenticalAcrossGuestsDataNot)
{
    VmId vm2 = hv->createVm("vm2", 128 * MiB, 0);
    GuestOs os2(*hv, vm2, "vm2", 777);

    KernelConfig cfg;
    cfg.textBytes = 64 * KiB;
    cfg.dataBytes = 64 * KiB;
    cfg.slabBytes = 64 * KiB;
    cfg.sharedBootCacheBytes = 64 * KiB;
    cfg.privateBootCacheBytes = 64 * KiB;
    os->bootKernel(cfg);
    os2.bootKernel(cfg);

    // Compare contents by category.
    auto page_of = [&](GuestOs &g, const char *vma_name,
                       std::uint64_t idx) -> const PageData * {
        for (const auto &vma : g.process(0).vmas) {
            if (vma->name == vma_name) {
                const Gfn gfn = g.gfnAt(vma.get(), idx);
                if (gfn == invalidFrame)
                    return nullptr;
                return g.hv().peek(g.vmId(), gfn);
            }
        }
        return nullptr;
    };
    ASSERT_NE(page_of(*os, "kernel-text", 0), nullptr);
    EXPECT_EQ(*page_of(*os, "kernel-text", 0),
              *page_of(os2, "kernel-text", 0));
    EXPECT_NE(*page_of(*os, "kernel-data", 0),
              *page_of(os2, "kernel-data", 0));
    EXPECT_NE(*page_of(*os, "slab", 0), *page_of(os2, "slab", 0));
}

TEST_F(GuestFixture, TouchFileSpaceKeepsPagesWarmAndFaultsSwapped)
{
    // Fill the cache, then verify random file touches refresh LRU
    // ages (no faults on a roomy host).
    FileImage f = FileImage::shared("/data", 64 * KiB);
    os->readFile(f);
    const std::uint64_t faults_before = hv->majorFaults(os->vmId());
    os->touchFileSpace(100);
    EXPECT_EQ(hv->majorFaults(os->vmId()), faults_before);

    // On a tiny host, touching evicted cache pages must fault them in.
    StatSet s2;
    hv::HostConfig tiny;
    tiny.ramBytes = 8 * pageSize;
    tiny.reserveBytes = 0;
    Hypervisor small_hv(tiny, s2);
    VmId id = small_hv.createVm("vm", 1 * MiB, 0);
    GuestOs small_os(small_hv, id, "vm", 5);
    small_os.readFile(FileImage::shared("/data", 16 * pageSize));
    EXPECT_EQ(small_hv.pagesIn(id, hv::PageState::Swapped), 8u);
    small_os.touchFileSpace(64);
    EXPECT_GT(small_hv.majorFaults(id), 0u);
    small_hv.checkConsistency();
}

TEST_F(GuestFixture, DaemonTextSharesAnonDoesNot)
{
    VmId vm2 = hv->createVm("vm2", 128 * MiB, 0);
    GuestOs os2(*hv, vm2, "vm2", 31337);

    os->spawnDaemon("sshd", 64 * KiB, 64 * KiB);
    os2.spawnDaemon("sshd", 64 * KiB, 64 * KiB);

    // TPS (collapse) must find the text pages identical across the two
    // guests, and the anon heaps different.
    const std::uint64_t before = hv->residentFrames();
    const std::uint64_t merged = hv->collapseIdenticalPages();
    EXPECT_EQ(merged, bytesToPages(64 * KiB));
    EXPECT_EQ(hv->residentFrames(), before - merged);
}

TEST(GuestOs, PageCacheSlotsAreReusedAfterReclaim)
{
    // A cache VMA slot freed by reclaim must be handed out again: the
    // guest's lifetime cache fills may exceed its size many times over.
    StatSet stats;
    hv::HostConfig cfg;
    cfg.ramBytes = 64 * MiB;
    cfg.reserveBytes = 0;
    Hypervisor hv(cfg, stats);
    const VmId vm = hv.createVm("vm", 2 * MiB, 0);
    GuestOs os(hv, vm, "vm", 7);
    const FileImage file = FileImage::shared("/var/log/app", 16 * pageSize);

    const std::uint64_t guest_pages = bytesToPages(2 * MiB);
    std::uint64_t fills = 0;
    while (fills <= 2 * guest_pages) {
        for (std::uint64_t i = 0; i < file.pages(); ++i) {
            const Gfn gfn = os.pageCacheGet(file, i);
            const PageData *data = hv.peek(vm, gfn);
            ASSERT_NE(data, nullptr) << "fill " << fills;
            ASSERT_EQ(*data, file.pageContent(i)) << "fill " << fills;
            ++fills;
        }
        ASSERT_EQ(os.pageCachePages(), file.pages());
        ASSERT_EQ(os.reclaimPageCache(file.pages()), file.pages());
        ASSERT_EQ(os.pageCachePages(), 0u);
    }
    hv.checkConsistency();
}

// Random page-table traffic on a small guest — writes, touches, reads,
// discards, munmaps, balloon inflation (which forces guest swap-out;
// later accesses swap back in) and page-cache reclaim — checked after
// every step against a reference model: a std::map<Vpn, Gfn> per
// process for the mapped pages plus the last word written to each
// anonymous page. A page may only leave the model through an explicit
// unmap or by moving to the guest swap; a mapped page never changes
// gfn, and no two anonymous pages share one.
TEST(GuestPageTableFuzz, FlatTablesMatchReferenceModel)
{
    StatSet stats;
    hv::HostConfig cfg;
    cfg.ramBytes = 64 * MiB;
    cfg.reserveBytes = 0;
    Hypervisor hv(cfg, stats);
    const VmId vm = hv.createVm("vm", 2 * MiB, 0);
    GuestOs os(hv, vm, "vm", 99);
    const FileImage file = FileImage::shared("/lib/fuzz.so", 64 * pageSize);
    // Read but never mapped: its cache pages are always reclaimable, so
    // fill + reclaim cycles push the lifetime cache fills far past the
    // guest's size.
    const FileImage log = FileImage::shared("/var/log/fuzz", 64 * pageSize);
    std::uint64_t cache_fills = 0;

    struct Region
    {
        Pid pid;
        Vma *vma;
    };
    const Pid p1 = os.spawn("p1", false);
    const Pid p2 = os.spawn("p2", false);
    auto map_region = [&](Pid pid, bool file_backed) {
        return Region{pid, file_backed
                               ? os.mmapFile(pid, file, MemCategory::Code)
                               : os.mmapAnon(pid, 96 * pageSize,
                                             MemCategory::JvmWork, "anon")};
    };
    std::vector<Region> regions = {map_region(p1, false),
                                   map_region(p2, false),
                                   map_region(p1, true),
                                   map_region(p2, true)};

    const Vma *cache_vma = nullptr;
    for (const auto &v : os.process(0).vmas) {
        if (v->name == "page-cache")
            cache_vma = v.get();
    }
    ASSERT_NE(cache_vma, nullptr);

    std::map<Pid, std::map<Vpn, Gfn>> model;
    std::map<std::pair<Pid, Vpn>, std::uint64_t> words;
    std::uint64_t swap_outs_seen = 0;
    std::uint64_t swap_ins_seen = 0;

    auto swapped = [&](const Region &r, std::uint64_t i) {
        return os.process(r.pid).swappedOut.count(r.vma->vpnAt(i)) != 0;
    };
    // Fold the step's side effects into the model and check the rest.
    auto reconcile = [&]() {
        std::set<Gfn> anon_gfns, file_gfns;
        std::uint64_t swapped_pages = 0;
        for (const Region &r : regions) {
            auto &table = model[r.pid];
            for (std::uint64_t i = 0; i < r.vma->numPages; ++i) {
                const Vpn vpn = r.vma->vpnAt(i);
                const Gfn g = os.gfnAt(r.vma, i);
                auto it = table.find(vpn);
                if (it == table.end()) {
                    ASSERT_EQ(g, invalidFrame) << "unexpected mapping";
                } else if (g == invalidFrame) {
                    // Only reclaim may unmap behind our back, and only
                    // by moving an anonymous page to the guest swap.
                    ASSERT_FALSE(r.vma->fileBacked);
                    ASSERT_TRUE(swapped(r, i));
                    table.erase(it);
                    ++swap_outs_seen;
                } else {
                    ASSERT_EQ(g, it->second) << "mapped page moved";
                }
                if (g != invalidFrame) {
                    ASSERT_FALSE(swapped(r, i));
                    if (r.vma->fileBacked) {
                        file_gfns.insert(g);
                    } else {
                        ASSERT_TRUE(anon_gfns.insert(g).second);
                    }
                }
            }
        }
        for (Gfn g : file_gfns)
            ASSERT_EQ(anon_gfns.count(g), 0u) << "cache gfn reused";
        for (Pid pid : {p1, p2})
            swapped_pages += os.process(pid).swappedOut.size();
        ASSERT_EQ(swapped_pages, os.guestSwappedPages());
        // The kernel page-cache VMA maps each cached page at the slot
        // equal to its gfn, and nothing else.
        std::uint64_t cache_slots = 0;
        for (std::uint64_t i = 0; i < cache_vma->numPages; ++i) {
            const Gfn g = cache_vma->gfns[i];
            if (g == invalidFrame)
                continue;
            ASSERT_EQ(g, i) << "cache page off its gfn slot";
            ++cache_slots;
        }
        ASSERT_EQ(cache_slots, os.pageCachePages());
    };
    // The target page of a step that maps it: it must be mapped now,
    // to the gfn the model already holds if it was mapped before.
    auto expect_mapped = [&](const Region &r, std::uint64_t i) {
        const Gfn g = os.gfnAt(r.vma, i);
        ASSERT_NE(g, invalidFrame);
        auto [it, inserted] = model[r.pid].emplace(r.vma->vpnAt(i), g);
        if (inserted && !r.vma->fileBacked && words.count({r.pid, it->first}))
            ++swap_ins_seen; // came back from the guest swap
        ASSERT_EQ(it->second, g);
    };

    Rng rng(2024);
    for (int step = 0; step < 3000; ++step) {
        Region &r = regions[rng.nextBelow(regions.size())];
        const std::uint64_t i = rng.nextBelow(r.vma->numPages);
        const Vpn vpn = r.vma->vpnAt(i);
        const std::uint64_t op = rng.nextBelow(11);
        if (op <= 2 && !r.vma->fileBacked) {
            const std::uint64_t value = rng.next() | 1;
            os.writeWord(r.vma, i, 0, value);
            ASSERT_NO_FATAL_FAILURE(expect_mapped(r, i));
            words[{r.pid, vpn}] = value;
        } else if (op <= 3) {
            const bool was_live =
                model[r.pid].count(vpn) || swapped(r, i);
            os.touch(r.vma, i);
            if (r.vma->fileBacked || was_live) {
                ASSERT_NO_FATAL_FAILURE(expect_mapped(r, i));
            } else {
                // Touching never-written anonymous memory maps nothing.
                ASSERT_EQ(os.gfnAt(r.vma, i), invalidFrame);
            }
        } else if (op <= 4) {
            const bool was_live =
                model[r.pid].count(vpn) || swapped(r, i);
            const std::uint64_t w = os.readWord(r.vma, i, 0);
            if (r.vma->fileBacked) {
                ASSERT_NO_FATAL_FAILURE(expect_mapped(r, i));
                EXPECT_EQ(w, file.pageContent(i).word[0]);
            } else if (was_live) {
                ASSERT_NO_FATAL_FAILURE(expect_mapped(r, i));
                auto wit = words.find({r.pid, vpn});
                EXPECT_EQ(w, wit == words.end() ? 0 : wit->second);
            } else {
                // It reads as zero and stays unmapped.
                EXPECT_EQ(w, 0u);
                ASSERT_EQ(os.gfnAt(r.vma, i), invalidFrame);
            }
        } else if (op <= 5) {
            os.discard(r.vma, i);
            model[r.pid].erase(vpn);
            words.erase({r.pid, vpn});
            EXPECT_EQ(os.gfnAt(r.vma, i), invalidFrame);
            EXPECT_FALSE(swapped(r, i));
        } else if (op == 6 && rng.nextBelow(8) == 0) {
            for (std::uint64_t k = 0; k < r.vma->numPages; ++k) {
                model[r.pid].erase(r.vma->vpnAt(k));
                words.erase({r.pid, r.vma->vpnAt(k)});
            }
            const bool file_backed = r.vma->fileBacked;
            os.munmap(r.pid, r.vma);
            r = map_region(r.pid, file_backed);
        } else if (op == 7) {
            os.balloonTake(64 + rng.nextBelow(192));
        } else if (op == 8) {
            os.balloonReturn(rng.nextBelow(256));
        } else if (op == 9) {
            os.reclaimPageCache(rng.nextBelow(64));
        } else if (op == 10) {
            const std::uint64_t first = rng.nextBelow(log.pages());
            for (std::uint64_t k = first; k < log.pages(); ++k) {
                const std::uint64_t cached = os.pageCachePages();
                const PageData *data = hv.peek(vm, os.pageCacheGet(log, k));
                ASSERT_NE(data, nullptr);
                ASSERT_EQ(*data, log.pageContent(k)) << "step " << step;
                cache_fills += os.pageCachePages() - cached;
            }
        }
        ASSERT_NO_FATAL_FAILURE(reconcile()) << "step " << step;
    }
    // The run must have exercised both directions of guest swap.
    EXPECT_GT(swap_outs_seen, 0u);
    EXPECT_GT(swap_ins_seen, 0u);
    // Reclaim plus refault went several times past the guest size.
    EXPECT_GT(cache_fills, 4 * bytesToPages(2 * MiB));
    hv.checkConsistency();
}
