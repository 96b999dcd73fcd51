/**
 * @file
 * Unit tests for the JVM model: class sets, the shared class cache,
 * heap/GC, JIT, and the assembled JavaVm.
 */

#include <set>

#include <gtest/gtest.h>

#include "base/stats.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"
#include "jvm/class_model.hh"
#include "jvm/java_heap.hh"
#include "jvm/java_vm.hh"
#include "jvm/jit_compiler.hh"
#include "jvm/shared_class_cache.hh"

using namespace jtps;
using guest::GuestOs;
using guest::MemCategory;
using hv::Hypervisor;
using jvm::CacheScope;
using jvm::ClassOrigin;
using jvm::ClassSet;
using jvm::ClassSetSpec;
using jvm::GcConfig;
using jvm::JavaHeap;
using jvm::JavaVm;
using jvm::JavaVmConfig;
using jvm::JitCompiler;
using jvm::JitConfig;
using jvm::SharedClassCache;
using mem::PageData;

namespace
{

ClassSetSpec
tinySpec()
{
    ClassSetSpec cs;
    cs.programName = "test-program";
    cs.middlewareName = "test-mw";
    cs.systemClasses = 50;
    cs.middlewareClasses = 200;
    cs.appClasses = 30;
    cs.avgRomBytes = 4096;
    cs.avgRamBytes = 512;
    return cs;
}

struct JvmFixture : ::testing::Test
{
    StatSet stats;
    hv::HostConfig host_cfg;
    std::unique_ptr<Hypervisor> hv;
    std::unique_ptr<GuestOs> os;

    void
    SetUp() override
    {
        host_cfg.ramBytes = 1 * GiB;
        host_cfg.reserveBytes = 0;
        hv = std::make_unique<Hypervisor>(host_cfg, stats);
        VmId vm = hv->createVm("vm", 256 * MiB, 0);
        os = std::make_unique<GuestOs>(*hv, vm, "vm", 55);
    }
};

JavaVmConfig
smallJvmConfig(const ClassSet &classes, const SharedClassCache *cache)
{
    JavaVmConfig cfg;
    cfg.classes = &classes;
    cfg.sharedCache = cache;
    cfg.libs = {{"libtest.so", 256 * KiB, 128 * KiB}};
    cfg.gc.heapBytes = 4 * MiB;
    cfg.jit.codeCacheBytes = 1 * MiB;
    cfg.jit.stubsBytes = 64 * KiB;
    cfg.jit.scratchBytes = 256 * KiB;
    cfg.jit.scratchZeroBytes = 64 * KiB;
    cfg.mallocUsedBytes = 512 * KiB;
    cfg.bulkZeroBytes = 128 * KiB;
    cfg.nioBufferBytes = 128 * KiB;
    cfg.threadCount = 4;
    cfg.stackBytesPerThread = 64 * KiB;
    return cfg;
}

} // namespace

TEST(ClassSet, SynthesisIsDeterministic)
{
    ClassSet a = ClassSet::synthesize(tinySpec());
    ClassSet b = ClassSet::synthesize(tinySpec());
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.totalRomBytes(), b.totalRomBytes());
    for (std::uint32_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.at(i).romBytes, b.at(i).romBytes);
        EXPECT_EQ(a.at(i).cacheable, b.at(i).cacheable);
    }
}

TEST(ClassSet, MiddlewareClassesIdenticalAcrossPrograms)
{
    ClassSetSpec s1 = tinySpec();
    ClassSetSpec s2 = tinySpec();
    s2.programName = "other-program";
    ClassSet a = ClassSet::synthesize(s1);
    ClassSet b = ClassSet::synthesize(s2);

    bool app_differs = false;
    for (std::uint32_t i = 0; i < a.size(); ++i) {
        if (a.at(i).origin != ClassOrigin::Application) {
            ASSERT_EQ(a.at(i).romBytes, b.at(i).romBytes)
                << "middleware class " << i;
        } else if (a.at(i).romBytes != b.at(i).romBytes) {
            app_differs = true;
        }
    }
    EXPECT_TRUE(app_differs);
}

TEST(ClassSet, OriginBoundaries)
{
    ClassSet set = ClassSet::synthesize(tinySpec());
    EXPECT_EQ(set.at(0).origin, ClassOrigin::System);
    EXPECT_EQ(set.at(49).origin, ClassOrigin::System);
    EXPECT_EQ(set.at(50).origin, ClassOrigin::Middleware);
    EXPECT_EQ(set.at(249).origin, ClassOrigin::Middleware);
    EXPECT_EQ(set.at(250).origin, ClassOrigin::Application);
}

TEST(SharedClassCache, StoresMiddlewareInCanonicalOrder)
{
    ClassSet set = ClassSet::synthesize(tinySpec());
    SharedClassCache cache = SharedClassCache::build(
        set, "test", 64 * MiB, CacheScope::MiddlewareOnly);

    std::uint64_t prev_end = 0;
    for (std::uint32_t id = 0; id < set.size(); ++id) {
        if (set.at(id).origin == ClassOrigin::Application) {
            EXPECT_FALSE(cache.contains(id));
            continue;
        }
        ASSERT_TRUE(cache.contains(id));
        auto [first, last] = cache.sectorRange(id);
        EXPECT_GE(first, prev_end); // canonical, non-overlapping
        EXPECT_GT(last, first);
        prev_end = last;
    }
    EXPECT_EQ(cache.storedBytesByOrigin(ClassOrigin::Application), 0u);
    EXPECT_GT(cache.storedBytesByOrigin(ClassOrigin::Middleware), 0u);
}

TEST(SharedClassCache, AllCacheableScopeIncludesApps)
{
    ClassSet set = ClassSet::synthesize(tinySpec());
    SharedClassCache cache = SharedClassCache::build(
        set, "test", 64 * MiB, CacheScope::AllCacheable);
    bool some_app = false;
    for (std::uint32_t id = 0; id < set.size(); ++id) {
        if (set.at(id).origin == ClassOrigin::Application &&
            cache.contains(id)) {
            some_app = true;
            EXPECT_TRUE(set.at(id).cacheable);
        }
    }
    EXPECT_TRUE(some_app);
}

TEST(SharedClassCache, CapacityLimitIsRespected)
{
    ClassSet set = ClassSet::synthesize(tinySpec());
    SharedClassCache small = SharedClassCache::build(
        set, "small", 128 * KiB, CacheScope::MiddlewareOnly);
    EXPECT_LE(small.usedBytes(), 128 * KiB);
    EXPECT_LT(small.storedClasses(), set.size());
    EXPECT_GT(small.storedClasses(), 0u);
}

TEST(SharedClassCache, CopiedCachesShareContentTagSaltedOnesDoNot)
{
    ClassSet set = ClassSet::synthesize(tinySpec());
    SharedClassCache c1 = SharedClassCache::build(
        set, "x", 64 * MiB, CacheScope::MiddlewareOnly, 0);
    SharedClassCache c2 = SharedClassCache::build(
        set, "x", 64 * MiB, CacheScope::MiddlewareOnly, 0);
    SharedClassCache c3 = SharedClassCache::build(
        set, "x", 64 * MiB, CacheScope::MiddlewareOnly, 1);
    EXPECT_EQ(c1.file().contentTag(), c2.file().contentTag());
    EXPECT_NE(c1.file().contentTag(), c3.file().contentTag());
    // Same layout, same file size, byte-different content.
    EXPECT_EQ(c1.file().bytes(), c3.file().bytes());
}

TEST(SharedClassCache, SameMiddlewareDifferentAppSameCache)
{
    // The §IV.C base-image property: WAS+DayTrader and WAS+TPC-W get
    // byte-identical middleware-only caches.
    ClassSetSpec s1 = tinySpec();
    ClassSetSpec s2 = tinySpec();
    s2.programName = "other-app";
    SharedClassCache c1 = SharedClassCache::build(
        ClassSet::synthesize(s1), "was", 64 * MiB);
    SharedClassCache c2 = SharedClassCache::build(
        ClassSet::synthesize(s2), "was", 64 * MiB);
    EXPECT_EQ(c1.file().contentTag(), c2.file().contentTag());
}

TEST(SharedClassCache, AotSectionIsDeterministicAndBudgeted)
{
    ClassSet set = ClassSet::synthesize(tinySpec());
    SharedClassCache a = SharedClassCache::build(set, "x", 64 * MiB);
    SharedClassCache b = SharedClassCache::build(set, "x", 64 * MiB);
    EXPECT_FALSE(a.hasAot());

    a.addAotSection(100, 16 * KiB, 512 * KiB);
    b.addAotSection(100, 16 * KiB, 512 * KiB);
    EXPECT_TRUE(a.hasAot());
    EXPECT_GT(a.aotMethods(), 0u);
    EXPECT_LT(a.aotMethods(), 100u); // budget cuts it off
    EXPECT_EQ(a.aotMethods(), b.aotMethods());
    // Copies of the archive carry the same AOT content tag; the AOT
    // image is distinct from the class image.
    EXPECT_EQ(a.aotFile().contentTag(), b.aotFile().contentTag());
    EXPECT_NE(a.aotFile().contentTag(), a.file().contentTag());

    // Ranges are ordered and non-overlapping.
    std::uint64_t prev = 0;
    for (std::uint32_t m = 0; m < a.aotMethods(); ++m) {
        ASSERT_TRUE(a.containsAotMethod(m));
        auto [first, last] = a.aotSectorRange(m);
        EXPECT_GE(first, prev);
        EXPECT_GT(last, first);
        prev = last;
    }
    EXPECT_FALSE(a.containsAotMethod(a.aotMethods()));
}

TEST_F(JvmFixture, AotMethodsLoadFromTheArchiveNotTheJit)
{
    ClassSet classes = ClassSet::synthesize(tinySpec());
    SharedClassCache cache =
        SharedClassCache::build(classes, "t", 64 * MiB);
    cache.addAotSection(50, 8 * KiB, 1 * MiB);

    JavaVmConfig cfg = smallJvmConfig(classes, &cache);
    cfg.useAotCache = true;
    JavaVm vm(*os, cfg);
    vm.start();

    const std::uint32_t compiled = vm.compileHotMethods(40);
    EXPECT_EQ(compiled, 40u);
    EXPECT_GT(vm.aotMethodsLoaded(), 0u);
    // AOT-loaded bodies never consume private code cache.
    EXPECT_EQ(vm.jit().methodsCompiled() + vm.aotMethodsLoaded(),
              compiled);
}

TEST_F(JvmFixture, HeapAllocatesAndCollects)
{
    GcConfig gc;
    gc.heapBytes = 8 * MiB;
    gc.gcTriggerFraction = 0.9;
    gc.liveFraction = 0.5;
    JavaHeap heap(*os, os->spawn("j", true), gc, 42);
    heap.init();

    heap.allocate(6 * MiB);
    EXPECT_EQ(heap.globalGcCount(), 0u);
    heap.allocate(4 * MiB);
    EXPECT_GE(heap.globalGcCount(), 1u);
    EXPECT_GT(heap.livePages(), 0u);
    EXPECT_EQ(heap.allocatedBytes(), 10 * MiB);
}

TEST_F(JvmFixture, GcZeroFillsPrefixOfReclaimedSpace)
{
    GcConfig gc;
    gc.heapBytes = 4 * MiB;
    gc.liveFraction = 0.5;
    gc.zeroFillFraction = 1.0; // zero everything reclaimed
    Pid pid = os->spawn("j", true);
    JavaHeap heap(*os, pid, gc, 42);
    heap.init();
    heap.allocate(8 * MiB); // forces at least one GC

    // After GC, pages between live end and old cursor are zero.
    std::uint64_t zeros = 0;
    for (std::uint64_t p = 0; p < bytesToPages(4 * MiB); ++p) {
        const Gfn gfn = os->gfnAt(heap.vma(), p);
        if (gfn == invalidFrame)
            continue;
        const PageData *d = hv->peek(os->vmId(), gfn);
        if (d && d->isZero())
            ++zeros;
    }
    EXPECT_GT(zeros, 0u);
}

TEST_F(JvmFixture, FirstGcClearsHeadroomZeros)
{
    GcConfig gc;
    gc.heapBytes = 8 * MiB;
    gc.gcTriggerFraction = 0.9;
    gc.headroomZeroFraction = 0.01;
    Pid pid = os->spawn("j", true);
    JavaHeap heap(*os, pid, gc, 42);
    heap.init();
    heap.allocate(10 * MiB); // at least one GC

    // Pages just above the trigger must be resident zeros.
    const std::uint64_t trigger = static_cast<std::uint64_t>(
        bytesToPages(8 * MiB) * 0.9);
    const std::uint64_t tail =
        static_cast<std::uint64_t>(bytesToPages(8 * MiB) * 0.01);
    ASSERT_GT(tail, 0u);
    for (std::uint64_t p = trigger; p < trigger + tail; ++p) {
        const Gfn gfn = os->gfnAt(heap.vma(), p);
        ASSERT_NE(gfn, invalidFrame);
        const PageData *d = hv->peek(os->vmId(), gfn);
        ASSERT_NE(d, nullptr);
        EXPECT_TRUE(d->isZero());
    }
}

TEST_F(JvmFixture, QuickeningMakesPrivateRomPagesUnique)
{
    // Two JVMs in two guests load the same classes without a cache:
    // quickening + load-order perturbation must leave essentially no
    // identical metadata pages.
    VmId vm2_id = hv->createVm("vm2", 256 * MiB, 0);
    GuestOs os2(*hv, vm2_id, "vm2", 66);

    ClassSet classes = ClassSet::synthesize(tinySpec());
    JavaVm v1(*os, smallJvmConfig(classes, nullptr));
    JavaVm v2(os2, smallJvmConfig(classes, nullptr));
    v1.start();
    v2.start();
    while (v1.loadLazyClasses(64) > 0) {
    }
    while (v2.loadLazyClasses(64) > 0) {
    }

    auto meta_digests = [&](GuestOs &g, JavaVm &v) {
        std::set<std::uint64_t> out;
        const auto &proc = g.process(v.pid());
        for (const auto &vma : proc.vmas) {
            if (vma->category != MemCategory::ClassMetadata)
                continue;
            for (std::uint64_t p = 0; p < vma->numPages; ++p) {
                const Gfn gfn = g.gfnAt(vma.get(), p);
                if (gfn == invalidFrame)
                    continue;
                const PageData *d = g.hv().peek(g.vmId(), gfn);
                if (d != nullptr)
                    out.insert(d->digest());
            }
        }
        return out;
    };
    auto d1 = meta_digests(*os, v1);
    auto d2 = meta_digests(os2, v2);
    std::size_t matches = 0;
    for (std::uint64_t d : d2)
        matches += d1.count(d);
    // Under 3% of the metadata pages may coincide (paper: "the
    // contents of memory pages are rarely identical between Java VM
    // processes, even if they are running the same Java program").
    EXPECT_LT(matches, d1.size() / 33 + 2)
        << matches << " of " << d1.size() << " pages matched";
}

TEST_F(JvmFixture, GenconMinorGcsDominate)
{
    GcConfig gc;
    gc.policy = GcConfig::Policy::Gencon;
    gc.heapBytes = 8 * MiB;
    gc.nurseryBytes = 6 * MiB;
    JavaHeap heap(*os, os->spawn("j", true), gc, 42);
    heap.init();
    heap.allocate(40 * MiB);
    EXPECT_GT(heap.minorGcCount(), 3u);
    EXPECT_GT(heap.livePages(), 0u);
}

TEST_F(JvmFixture, HeapContentDiffersAcrossProcesses)
{
    GcConfig gc;
    gc.heapBytes = 1 * MiB;
    Pid p1 = os->spawn("j1", true);
    Pid p2 = os->spawn("j2", true);
    JavaHeap h1(*os, p1, gc, 42), h2(*os, p2, gc, 43);
    h1.init();
    h2.init();
    h1.allocate(512 * KiB);
    h2.allocate(512 * KiB);

    auto first_page = [&](JavaHeap &h) {
        return *hv->peek(os->vmId(), os->gfnAt(h.vma(), 0));
    };
    EXPECT_NE(first_page(h1), first_page(h2));
}

TEST_F(JvmFixture, JitStubsShareMethodsDoNot)
{
    JitConfig cfg;
    cfg.codeCacheBytes = 4 * MiB;
    cfg.stubsBytes = 64 * KiB;
    cfg.scratchBytes = 1 * MiB;
    cfg.scratchZeroBytes = 64 * KiB;

    Pid p1 = os->spawn("j1", true);
    Pid p2 = os->spawn("j2", true);
    JitCompiler j1(*os, p1, cfg, 42), j2(*os, p2, cfg, 43);
    j1.init();
    j2.init();
    EXPECT_TRUE(j1.compileMethod(7));
    EXPECT_TRUE(j2.compileMethod(7));

    auto page = [&](const guest::Vma *vma, std::uint64_t i) {
        return *hv->peek(os->vmId(), os->gfnAt(vma, i));
    };
    // Stub page 0: identical across the two processes.
    EXPECT_EQ(page(j1.codeVma(), 0), page(j2.codeVma(), 0));
    // First method page (after the stubs): differs (profile-dependent).
    const std::uint64_t m = bytesToPages(cfg.stubsBytes);
    EXPECT_NE(page(j1.codeVma(), m), page(j2.codeVma(), m));
}

TEST_F(JvmFixture, TieredRecompilationLeavesDeadCode)
{
    JitConfig cfg;
    cfg.codeCacheBytes = 4 * MiB;
    cfg.stubsBytes = 0;
    cfg.scratchBytes = 256 * KiB;
    cfg.scratchZeroBytes = 0;
    cfg.avgMethodCodeBytes = 8 * KiB;
    JitCompiler jit(*os, os->spawn("j", true), cfg, 42);
    jit.init();
    for (std::uint32_t m = 0; m < 10; ++m)
        ASSERT_TRUE(jit.compileMethod(m));
    EXPECT_EQ(jit.deadCodePages(), 0u);

    EXPECT_EQ(jit.recompileHottest(4), 4u);
    EXPECT_EQ(jit.methodsRecompiled(), 4u);
    EXPECT_GT(jit.deadCodePages(), 0u);

    // Promoting everything (and then some) saturates.
    jit.recompileHottest(100);
    EXPECT_LE(jit.methodsRecompiled(), 10u);
    EXPECT_EQ(jit.recompileHottest(5), 0u); // nothing tier-1 left
}

TEST_F(JvmFixture, LoaderSegmentsSplitTheMetaspace)
{
    ClassSet classes = ClassSet::synthesize(tinySpec());
    JavaVm vm(*os, smallJvmConfig(classes, nullptr));
    vm.start();
    while (vm.loadLazyClasses(64) > 0) {
    }

    // Every loader with classes must own metadata pages; the totals
    // must add up.
    std::uint64_t sum = 0;
    for (std::size_t l = 0; l < jvm::numLoaderKinds; ++l)
        sum += vm.loaderMetaspacePages(static_cast<jvm::LoaderKind>(l));
    EXPECT_EQ(sum, vm.metaspacePages());
    EXPECT_GT(vm.loaderMetaspacePages(jvm::LoaderKind::Bootstrap), 0u);
    EXPECT_GT(vm.loaderMetaspacePages(jvm::LoaderKind::Middleware), 0u);
    EXPECT_GT(vm.loaderMetaspacePages(jvm::LoaderKind::Ejb), 0u);

    // And the process has one metaspace VMA per loader.
    unsigned metaspace_vmas = 0;
    for (const auto &vma : os->process(vm.pid()).vmas) {
        if (vma->name.rfind("metaspace-", 0) == 0)
            ++metaspace_vmas;
    }
    EXPECT_EQ(metaspace_vmas, jvm::numLoaderKinds);
}

TEST_F(JvmFixture, JitCodeCacheFillsUp)
{
    JitConfig cfg;
    cfg.codeCacheBytes = 64 * KiB;
    cfg.stubsBytes = 0;
    cfg.scratchBytes = 64 * KiB;
    cfg.scratchZeroBytes = 0;
    cfg.avgMethodCodeBytes = 16 * KiB;
    JitCompiler jit(*os, os->spawn("j", true), cfg, 42);
    jit.init();
    std::uint32_t compiled = 0;
    for (std::uint32_t i = 0; i < 100; ++i)
        compiled += jit.compileMethod(i);
    EXPECT_LT(compiled, 100u);
    EXPECT_GT(compiled, 0u);
    EXPECT_EQ(jit.methodsCompiled(), compiled);
}

TEST_F(JvmFixture, StartLoadsStartupClasses)
{
    ClassSet classes = ClassSet::synthesize(tinySpec());
    JavaVmConfig cfg = smallJvmConfig(classes, nullptr);
    JavaVm vm(*os, cfg);
    vm.start();

    std::uint32_t startup = 0;
    for (const auto &ci : classes.classes())
        startup += ci.startup;
    EXPECT_EQ(vm.classesLoaded(), startup);
    EXPECT_FALSE(vm.allClassesLoaded());

    // Lazy loading finishes the rest.
    while (vm.loadLazyClasses(64) > 0) {
    }
    EXPECT_TRUE(vm.allClassesLoaded());
}

TEST_F(JvmFixture, CdsRomClassesComeFromTheCacheFile)
{
    ClassSet classes = ClassSet::synthesize(tinySpec());
    SharedClassCache cache =
        SharedClassCache::build(classes, "t", 64 * MiB);

    JavaVm no_cds(*os, smallJvmConfig(classes, nullptr), "j1");
    no_cds.start();
    const std::uint64_t meta_no_cds = no_cds.metaspacePages();

    JavaVm cds(*os, smallJvmConfig(classes, &cache), "j2");
    cds.start();
    const std::uint64_t meta_cds = cds.metaspacePages();

    // With CDS the private metaspace only holds RAM classes (and
    // uncacheable ROM), so it must be much smaller.
    EXPECT_LT(meta_cds * 3, meta_no_cds);
    // And the cache file pages are in the guest page cache.
    EXPECT_GT(os->pageCachePages(), 0u);
}

TEST_F(JvmFixture, MetaspaceLayoutDiffersByProcessButRomIsStable)
{
    // Two processes in two different guests load the same classes; the
    // metadata pages must differ (perturbed order), which is exactly
    // why TPS fails on them.
    VmId vm2_id = hv->createVm("vm2", 256 * MiB, 0);
    GuestOs os2(*hv, vm2_id, "vm2", 66);

    ClassSet classes = ClassSet::synthesize(tinySpec());
    JavaVm v1(*os, smallJvmConfig(classes, nullptr));
    JavaVm v2(os2, smallJvmConfig(classes, nullptr));
    v1.start();
    v2.start();

    const std::uint64_t before = hv->residentFrames();
    hv->collapseIdenticalPages();
    const std::uint64_t merged = before - hv->residentFrames();
    // Lib text, JIT stubs, zero reserves and NIO share (< ~200 pages
    // here); the ~350 pages of class metadata must not. If metadata
    // layout accidentally matched, merged would jump by hundreds.
    EXPECT_LE(merged, 250u);
    EXPECT_GT(merged, 0u);
}

TEST_F(JvmFixture, NioBuffersIdenticalAcrossProcessesSameBenchmark)
{
    ClassSet classes = ClassSet::synthesize(tinySpec());
    JavaVmConfig cfg = smallJvmConfig(classes, nullptr);
    cfg.nioPayloadTag = stringTag("daytrader-payload");

    VmId vm2_id = hv->createVm("vm2", 256 * MiB, 0);
    GuestOs os2(*hv, vm2_id, "vm2", 66);
    JavaVm v1(*os, cfg), v2(os2, cfg);
    v1.start();
    v2.start();

    // Find the NIO VMAs and compare first pages.
    auto nio_page = [&](GuestOs &g, JavaVm &v) {
        for (const auto &vma : g.process(v.pid()).vmas) {
            if (vma->name == "nio-buffers") {
                return *g.hv().peek(g.vmId(), g.gfnAt(vma.get(), 0));
            }
        }
        return PageData::zero();
    };
    EXPECT_EQ(nio_page(*os, v1), nio_page(os2, v2));
}
