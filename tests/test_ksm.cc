/**
 * @file
 * Unit tests for the KSM scanner: calm filter, stable/unstable trees,
 * zero-page behaviour, tuning and CPU model.
 */

#include <gtest/gtest.h>

#include "base/stats.hh"
#include "base/units.hh"
#include "hv/hypervisor.hh"
#include "ksm/ksm_scanner.hh"
#include "sim/event_queue.hh"

using namespace jtps;
using hv::Hypervisor;
using ksm::KsmConfig;
using ksm::KsmScanner;
using mem::PageData;

namespace
{

struct KsmFixture : ::testing::Test
{
    StatSet stats;
    hv::HostConfig host_cfg;
    std::unique_ptr<Hypervisor> hv;
    std::unique_ptr<KsmScanner> scanner;

    void
    SetUp() override
    {
        host_cfg.ramBytes = 32 * MiB;
        host_cfg.reserveBytes = 0;
        hv = std::make_unique<Hypervisor>(host_cfg, stats);
        KsmConfig cfg;
        cfg.pagesToScan = 100000; // whole memory per batch in tests
        scanner = std::make_unique<KsmScanner>(*hv, cfg, stats);
    }
};

} // namespace

TEST_F(KsmFixture, MergesIdenticalCalmPagesAfterTwoPasses)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    PageData d = PageData::filled(5, 5);
    hv->writePage(a, 3, d);
    hv->writePage(b, 8, d);

    // Pass 1: digests recorded, nothing merged (not yet calm).
    scanner->scanBatch();
    EXPECT_EQ(scanner->pagesShared(), 0u);

    // Pass 2: both pages calm and identical -> merged.
    scanner->scanBatch();
    EXPECT_EQ(scanner->pagesShared(), 1u);
    EXPECT_EQ(scanner->pagesSharing(), 1u);
    EXPECT_EQ(hv->translate(a, 3), hv->translate(b, 8));
    EXPECT_EQ(scanner->savedBytes(), pageSize);
    hv->checkConsistency();
}

TEST_F(KsmFixture, ChurningPagesAreNeverMerged)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    for (int round = 0; round < 6; ++round) {
        // Identical across VMs at any instant, but changing every
        // round: the calm filter must reject them.
        PageData d = PageData::filled(99, round);
        hv->writePage(a, 0, d);
        hv->writePage(b, 0, d);
        scanner->scanBatch();
    }
    EXPECT_EQ(scanner->pagesShared(), 0u);
    EXPECT_GT(stats.get("ksm.not_calm"), 0u);
}

TEST_F(KsmFixture, StableTreeMergesLateComers)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    VmId c = hv->createVm("c", 1 * MiB, 0);
    PageData d = PageData::filled(7, 7);
    hv->writePage(a, 0, d);
    hv->writePage(b, 0, d);
    scanner->scanBatch();
    scanner->scanBatch();
    ASSERT_EQ(scanner->pagesShared(), 1u);

    // A third VM writes the same content later: it must join the
    // existing stable frame via the stable tree.
    hv->writePage(c, 0, d);
    scanner->scanBatch();
    scanner->scanBatch();
    EXPECT_EQ(scanner->pagesShared(), 1u);
    EXPECT_EQ(scanner->pagesSharing(), 2u);
    EXPECT_EQ(hv->translate(a, 0), hv->translate(c, 0));
    EXPECT_GT(stats.get("ksm.stable_merges"), 0u);
}

TEST_F(KsmFixture, CowBreakReducesSharingAndPageCanRemerge)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    PageData d = PageData::filled(1, 1);
    hv->writePage(a, 0, d);
    hv->writePage(b, 0, d);
    scanner->runToQuiescence();
    ASSERT_EQ(scanner->pagesSharing(), 1u);

    // b diverges...
    hv->writeWord(b, 0, 0, 42);
    EXPECT_EQ(scanner->pagesSharing(), 0u);
    // ...then writes the original content back: after two more passes
    // it must re-merge into the still-existing stable frame.
    hv->writeWord(b, 0, 0, d.word[0]);
    scanner->scanBatch();
    scanner->scanBatch();
    scanner->scanBatch();
    EXPECT_EQ(scanner->pagesSharing(), 1u);
    hv->checkConsistency();
}

TEST_F(KsmFixture, ZeroPagesAllMergeToOneFrame)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    for (Gfn g = 0; g < 20; ++g) {
        hv->writePage(a, g, PageData::zero());
        hv->writePage(b, g, PageData::zero());
    }
    scanner->runToQuiescence();
    EXPECT_EQ(scanner->pagesShared(), 1u);
    EXPECT_EQ(scanner->pagesSharing(), 39u);
    EXPECT_EQ(hv->residentFrames(), 1u);
}

TEST_F(KsmFixture, HugeBackedPagesAreNeverMerged)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    PageData d = PageData::filled(8, 8);
    hv->writePage(a, 0, d);
    hv->writePage(b, 0, d);
    hv->setHugePage(a, 0, true);

    scanner->runToQuiescence();
    EXPECT_EQ(scanner->pagesSharing(), 0u);
    EXPECT_GT(stats.get("ksm.skipped_huge"), 0u);

    // Splitting the huge page (khugepaged undo) makes it mergeable.
    hv->setHugePage(a, 0, false);
    scanner->scanBatch();
    scanner->scanBatch();
    scanner->scanBatch();
    EXPECT_EQ(scanner->pagesSharing(), 1u);
}

TEST_F(KsmFixture, MaxPageSharingFormsChains)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);

    KsmConfig cfg;
    cfg.pagesToScan = 100000;
    cfg.maxPageSharing = 4;
    scanner.reset(); // a host has one scanner: its page listener
    KsmScanner limited(*hv, cfg, stats);

    for (Gfn g = 0; g < 20; ++g) {
        hv->writePage(a, g, PageData::zero());
        hv->writePage(b, g, PageData::zero());
    }
    limited.runToQuiescence();

    // 40 identical pages with a cap of 4 mappings per frame: at least
    // ten duplicate stable frames, none over the cap.
    EXPECT_GE(limited.pagesShared(), 10u);
    hv->frames().forEachResident([&](Hfn, const mem::Frame &f) {
        if (f.ksmStable) {
            EXPECT_LE(f.refcount, 4u);
        }
    });
    // Dedup still saved the same total pages.
    EXPECT_EQ(limited.pagesSharing() + limited.pagesShared(), 40u);
    hv->checkConsistency();
}

TEST_F(KsmFixture, FullChainStartsNewStableNode)
{
    // Fill one stable frame exactly to max_page_sharing, then present
    // one more duplicate: it must start a *new* stable node (a chain
    // duplicate) rather than exceed the cap or go unmerged.
    KsmConfig cfg;
    cfg.pagesToScan = 100000;
    cfg.maxPageSharing = 3;
    scanner.reset(); // a host has one scanner: its page listener
    KsmScanner limited(*hv, cfg, stats);

    VmId a = hv->createVm("a", 1 * MiB, 0);
    PageData d = PageData::filled(12, 12);
    for (Gfn g = 0; g < 3; ++g)
        hv->writePage(a, g, d);
    limited.runToQuiescence();

    // Three identical pages, cap 3: one stable frame holding all three.
    ASSERT_EQ(limited.pagesShared(), 1u);
    ASSERT_EQ(limited.pagesSharing(), 2u);
    Hfn first = hv->translate(a, 0);
    EXPECT_EQ(hv->frames().frame(first).refcount, 3u);

    // The fourth duplicate finds the chain head full and must become a
    // second stable node with the same content.
    hv->writePage(a, 3, d);
    hv->writePage(a, 4, d);
    limited.runToQuiescence();
    EXPECT_EQ(limited.pagesShared(), 2u);
    EXPECT_EQ(limited.pagesSharing(), 3u);
    EXPECT_NE(hv->translate(a, 3), first);
    hv->frames().forEachResident([&](Hfn, const mem::Frame &f) {
        if (f.ksmStable) {
            EXPECT_LE(f.refcount, 3u);
        }
    });
    hv->checkConsistency();
}

TEST_F(KsmFixture, StaleDigestBucketsArePrunedLazily)
{
    // A stable node whose frame died is only discovered — and its
    // digest bucket cleaned up — when a lookup next probes that
    // content, mirroring ksmd's lazy stable-tree pruning.
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    PageData d = PageData::filled(13, 13);
    hv->writePage(a, 0, d);
    hv->writePage(b, 0, d);
    scanner->runToQuiescence();
    ASSERT_EQ(scanner->pagesShared(), 1u);

    // Kill the stable frame: the index entry is now stale, but nothing
    // is pruned until the digest is probed again.
    hv->discardPage(a, 0);
    hv->discardPage(b, 0);
    EXPECT_EQ(stats.get("ksm.stale_stable_nodes"), 0u);

    // New pages with the same content hit the stale bucket, prune it,
    // and then merge through the unstable tree as a fresh pair.
    hv->writePage(a, 1, d);
    hv->writePage(b, 1, d);
    scanner->runToQuiescence();
    EXPECT_GE(stats.get("ksm.stale_stable_nodes"), 1u);
    EXPECT_EQ(scanner->pagesShared(), 1u);
    EXPECT_EQ(scanner->pagesSharing(), 1u);
    EXPECT_EQ(hv->translate(a, 1), hv->translate(b, 1));
    hv->checkConsistency();
}

TEST_F(KsmFixture, StaleStableNodesArePruned)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    PageData d = PageData::filled(4, 4);
    hv->writePage(a, 0, d);
    hv->writePage(b, 0, d);
    scanner->runToQuiescence();
    ASSERT_EQ(scanner->pagesShared(), 1u);

    // Both mappings vanish; the stable node goes stale.
    hv->discardPage(a, 0);
    hv->discardPage(b, 0);
    EXPECT_EQ(scanner->pagesShared(), 0u);

    // New identical pages must still merge (fresh node replaces stale).
    hv->writePage(a, 1, d);
    hv->writePage(b, 1, d);
    scanner->scanBatch();
    scanner->scanBatch();
    scanner->scanBatch();
    EXPECT_EQ(scanner->pagesSharing(), 1u);
}

TEST_F(KsmFixture, BatchSizeBoundsWork)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    (void)a;
    scanner->setPagesToScan(16);
    const std::uint64_t visited = scanner->scanBatch();
    EXPECT_LE(visited, 16u);
}

TEST_F(KsmFixture, CpuUsageModelMatchesPaper)
{
    // Paper §II.C: ~25% CPU at 10,000 pages/100ms, ~2% at 1,000.
    KsmConfig cfg;
    cfg.pagesToScan = 10000;
    cfg.sleepMillisecs = 100;
    scanner.reset(); // a host has one scanner: its page listener
    {
        KsmScanner warm(*hv, cfg, stats);
        EXPECT_NEAR(warm.cpuUsage(), 0.20, 0.05);
    }

    cfg.pagesToScan = 1000;
    KsmScanner steady(*hv, cfg, stats);
    EXPECT_NEAR(steady.cpuUsage(), 0.025, 0.01);
}

TEST_F(KsmFixture, AttachScansPeriodically)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    PageData d = PageData::filled(2, 2);
    hv->writePage(a, 0, d);
    hv->writePage(b, 0, d);

    sim::EventQueue queue;
    scanner->attach(queue);
    queue.runUntil(1000);
    EXPECT_EQ(scanner->pagesSharing(), 1u);
}

TEST_F(KsmFixture, QuiescenceDetectsConvergence)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    for (Gfn g = 0; g < 10; ++g) {
        hv->writePage(a, g, PageData::filled(3, g));
        hv->writePage(b, g, PageData::filled(3, g));
    }
    const std::uint64_t merged = scanner->runToQuiescence();
    EXPECT_EQ(merged, 10u);
    EXPECT_EQ(scanner->pagesSharing(), 10u);
    // A second call must find nothing new.
    EXPECT_EQ(scanner->runToQuiescence(), 0u);
}

TEST_F(KsmFixture, GenerationSkipsSettleConvergedPassesEntirely)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    // 10 mergeable pairs plus 10 unique pages that stay unmerged.
    for (Gfn g = 0; g < 10; ++g) {
        hv->writePage(a, g, PageData::filled(3, g));
        hv->writePage(b, g, PageData::filled(3, g));
    }
    for (Gfn g = 10; g < 20; ++g)
        hv->writePage(a, g, PageData::filled(100 + g, g));

    for (int pass = 0; pass < 4; ++pass)
        scanner->scanBatch();
    ASSERT_EQ(scanner->pagesSharing(), 10u);

    // Converged: one more pass over idle memory is settled entirely by
    // generation compares (30 resident pages: 20 merged, 10 unique),
    // and the unique pages reuse the digests recorded at their last
    // visits.
    const std::uint64_t v0 = stats.get("ksm.pages_visited");
    const std::uint64_t g0 = stats.get("ksm.pages_gen_skipped");
    const std::uint64_t n0 = stats.get("ksm.not_calm");
    scanner->scanBatch();
    EXPECT_EQ(stats.get("ksm.pages_visited") - v0, 30u);
    EXPECT_EQ(stats.get("ksm.pages_gen_skipped") - g0, 30u);
    EXPECT_EQ(stats.get("ksm.not_calm") - n0, 0u);
}

TEST_F(KsmFixture, WriteInvalidatesExactlyThatPagesGeneration)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    for (Gfn g = 0; g < 10; ++g)
        hv->writePage(a, g, PageData::filled(100 + g, g));
    for (int pass = 0; pass < 3; ++pass)
        scanner->scanBatch();

    hv->writePage(a, 4, PageData::filled(200, 0));
    const std::uint64_t g0 = stats.get("ksm.pages_gen_skipped");
    const std::uint64_t n0 = stats.get("ksm.not_calm");
    scanner->scanBatch();
    // 9 of 10 pages settle on generation equality; the rewritten one
    // runs the full calm protocol and fails it (digest changed).
    EXPECT_EQ(stats.get("ksm.pages_gen_skipped") - g0, 9u);
    EXPECT_EQ(stats.get("ksm.not_calm") - n0, 1u);
}

TEST_F(KsmFixture, DiscardWipesScanStateDespiteIdenticalContent)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    for (Gfn g = 0; g < 10; ++g)
        hv->writePage(a, g, PageData::filled(100 + g, g));
    for (int pass = 0; pass < 3; ++pass)
        scanner->scanBatch();

    // Discard and reincarnate one page with byte-identical content: the
    // per-page state must have been wiped, so the revisit runs the full
    // calm protocol from scratch (not-calm once, like a fresh page) —
    // exactly what the old in-EPT checksum reset guaranteed.
    hv->discardPage(a, 7);
    hv->writePage(a, 7, PageData::filled(107, 7));
    const std::uint64_t n0 = stats.get("ksm.not_calm");
    scanner->scanBatch();
    EXPECT_EQ(stats.get("ksm.not_calm") - n0, 1u);
}

TEST_F(KsmFixture, IdenticalRewriteMovesGenerationButStaysCalm)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    const PageData d = PageData::filled(5, 5);
    hv->writePage(a, 0, d);
    hv->writePage(b, 0, d);
    scanner->scanBatch(); // pass 1: both recorded, neither calm yet
    ASSERT_EQ(scanner->pagesShared(), 0u);

    // Rewriting the same bytes moves the generation, so the next visit
    // of a:0 takes the slow path; its content key still matches the
    // one recorded in pass 1, so it is calm and merges in this pass.
    const std::uint64_t gen0 = hv->frames().writeGen(hv->translate(a, 0));
    hv->writePage(a, 0, d);
    EXPECT_NE(hv->frames().writeGen(hv->translate(a, 0)), gen0);
    const std::uint64_t g0 = stats.get("ksm.pages_gen_skipped");
    const std::uint64_t n0 = stats.get("ksm.not_calm");
    scanner->scanBatch();
    EXPECT_EQ(stats.get("ksm.not_calm") - n0, 0u);
    EXPECT_EQ(stats.get("ksm.pages_gen_skipped") - g0, 1u); // b:0 only
    EXPECT_EQ(scanner->pagesSharing(), 1u);
    EXPECT_EQ(hv->translate(a, 0), hv->translate(b, 0));
}

TEST_F(KsmFixture, CalmKeySurvivesStablePeriod)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 1 * MiB, 0);
    const PageData d = PageData::filled(1, 1);
    hv->writePage(a, 0, d);
    hv->writePage(b, 0, d);
    scanner->runToQuiescence();
    ASSERT_EQ(scanner->pagesSharing(), 1u);

    // Writing a word's current value COW-breaks b:0 onto a private
    // frame with the same bytes. Its stable visits left the key of its
    // last non-stable visit in place, so the first visit after the
    // break is calm and merges straight back through the stable index.
    hv->writeWord(b, 0, 0, d.word[0]);
    ASSERT_EQ(scanner->pagesSharing(), 0u);
    const std::uint64_t n0 = stats.get("ksm.not_calm");
    const std::uint64_t s0 = stats.get("ksm.stable_merges");
    scanner->scanBatch();
    EXPECT_EQ(stats.get("ksm.not_calm") - n0, 0u);
    EXPECT_EQ(stats.get("ksm.stable_merges") - s0, 1u);
    EXPECT_EQ(scanner->pagesSharing(), 1u);
    hv->checkConsistency();
}

TEST_F(KsmFixture, ReleasedVmPageStateRowIsFreedAtOnce)
{
    VmId a = hv->createVm("a", 1 * MiB, 0);
    VmId b = hv->createVm("b", 2 * MiB, 0);
    for (Gfn g = 0; g < 10; ++g) {
        hv->writePage(a, g, PageData::filled(3, g));
        hv->writePage(b, g, PageData::filled(3, g));
    }
    scanner->scanBatch();
    // One chunk of scan state per VM: each holds its resident pages.
    const Bytes chunk = KsmScanner::stateChunkBytes;
    EXPECT_EQ(scanner->pageStateBytes(), 2 * chunk);

    // Releasing b drops its pages and, through the release notice, its
    // whole row at once; scanning on leaves a's row as it was.
    hv->releaseVmMemory(b);
    EXPECT_EQ(scanner->pageStateBytes(), 1 * chunk);
    scanner->scanBatch();
    EXPECT_EQ(scanner->pageStateBytes(), 1 * chunk);
    scanner->checkIndex();
    hv->checkConsistency();
}

TEST_F(KsmFixture, PageStateOnlyForResidentChunks)
{
    // 64 MiB of guest memory, resident only at the first gfn, both
    // sides of the first chunk boundary and the last gfn: three of
    // the VM's 32 chunks hold a resident page.
    const Gfn per_chunk = KsmScanner::stateChunkPages;
    const VmId a = hv->createVm("a", 64 * MiB, 0);
    const Gfn last = 64 * MiB / pageSize - 1;
    ASSERT_EQ(last / per_chunk, 31u);
    const PageData twin = PageData::filled(7, 7);
    hv->writePage(a, 0, PageData::filled(1, 0));
    hv->writePage(a, per_chunk - 1, twin);
    hv->writePage(a, per_chunk, twin);
    hv->writePage(a, last, PageData::filled(1, last));
    scanner->scanBatch();
    EXPECT_EQ(stats.get("ksm.not_calm"), 4u);
    EXPECT_EQ(scanner->pageStateBytes(), 3 * KsmScanner::stateChunkBytes);

    // A discard notice for a gfn whose chunk was never created has no
    // state to drop and creates none.
    scanner->pageDiscarded(a, 9 * per_chunk + 5);
    hv->discardPage(a, 9 * per_chunk + 6);
    EXPECT_EQ(scanner->pageStateBytes(), 3 * KsmScanner::stateChunkBytes);

    // The pair across the boundary is calm on its second visit and
    // merges through the unstable table, each page's state in its own
    // chunk.
    scanner->scanBatch();
    EXPECT_EQ(stats.get("ksm.not_calm"), 4u);
    EXPECT_EQ(stats.get("ksm.unstable_promotions"), 1u);
    EXPECT_EQ(scanner->pagesSharing(), 1u);
    EXPECT_EQ(hv->translate(a, per_chunk - 1), hv->translate(a, per_chunk));

    // Stop the cursor at the end of the VM, mid-pass, then make a page
    // resident behind it in a chunk it has never met: the next pass
    // creates the chunk and counts the page not calm exactly once.
    scanner->setPagesToScan(4);
    ASSERT_EQ(scanner->scanBatch(), 4u);
    const std::uint64_t passes = scanner->fullScans();
    const Gfn late = 5 * per_chunk + 3;
    hv->writePage(a, late, PageData::filled(2, 2));
    scanner->setPagesToScan(100000);
    while (scanner->fullScans() < passes + 2)
        scanner->scanBatch();
    EXPECT_EQ(stats.get("ksm.not_calm"), 5u);
    EXPECT_EQ(scanner->pageStateBytes(), 4 * KsmScanner::stateChunkBytes);
    scanner->scanBatch();
    EXPECT_EQ(stats.get("ksm.not_calm"), 5u);
    scanner->checkIndex();
    hv->checkConsistency();
}

TEST_F(KsmFixture, UnstableTableResetsWhenTheEpochFieldWraps)
{
    // An unstable slot's epoch field holds 2^slotEpochBits - 2 passes;
    // at the boundary after the last of them every slot goes back to
    // never used. Drive a tiny host across that reset, auditing the
    // index after every pass: pairs that first become calm in the two
    // passes after the reset must still be promoted.
    VmId a = hv->createVm("a", 16 * pageSize, 0);
    VmId b = hv->createVm("b", 16 * pageSize, 0);
    // Distinct calm pages keep the table populated, so the reset clears
    // stale entries and tombstones, not just empty slots.
    for (Gfn g = 8; g < 16; ++g) {
        hv->writePage(a, g, PageData::filled(30, g));
        hv->writePage(b, g, PageData::filled(31, g));
    }
    // Full passes completed when the reset happens.
    constexpr std::uint64_t reset_pass =
        (std::uint64_t{1} << KsmScanner::slotEpochBits) - 2;
    auto pass = [&] {
        const std::uint64_t done = scanner->fullScans();
        scanner->scanBatch();
        ASSERT_EQ(scanner->fullScans(), done + 1);
        scanner->checkIndex();
    };

    while (scanner->fullScans() < reset_pass - 1)
        pass();
    // Pair 0 is first seen in the last pass before the reset and calm
    // in the first one after it; pair 1 one pass later.
    const PageData d0 = PageData::filled(40, 0);
    const PageData d1 = PageData::filled(40, 1);
    hv->writePage(a, 0, d0);
    hv->writePage(b, 0, d0);
    pass();
    ASSERT_EQ(scanner->fullScans(), reset_pass);
    EXPECT_NE(hv->translate(a, 0), hv->translate(b, 0));
    hv->writePage(a, 1, d1);
    hv->writePage(b, 1, d1);

    const std::uint64_t promotions = stats.get("ksm.unstable_promotions");
    pass();
    EXPECT_EQ(hv->translate(a, 0), hv->translate(b, 0));
    EXPECT_NE(hv->translate(a, 1), hv->translate(b, 1));
    pass();
    EXPECT_EQ(hv->translate(a, 1), hv->translate(b, 1));
    EXPECT_EQ(stats.get("ksm.unstable_promotions"), promotions + 2);
    EXPECT_EQ(scanner->pagesSharing(), 2u);
    for (int i = 0; i < 4; ++i)
        pass();
    EXPECT_EQ(scanner->pagesSharing(), 2u);
    hv->checkConsistency();
}

namespace
{

/**
 * A scanner with max_page_sharing = 2, so that a handful of duplicates
 * already forms a chain of stable frames under one digest.
 */
struct KsmStableIndex : ::testing::Test
{
    StatSet stats;
    hv::HostConfig host_cfg;
    std::unique_ptr<Hypervisor> hv;
    std::unique_ptr<KsmScanner> scanner;
    VmId a = invalidVm;

    void
    SetUp() override
    {
        host_cfg.ramBytes = 32 * MiB;
        host_cfg.reserveBytes = 0;
        hv = std::make_unique<Hypervisor>(host_cfg, stats);
        KsmConfig cfg;
        cfg.pagesToScan = 100000; // one batch is one full pass
        cfg.maxPageSharing = 2;
        scanner = std::make_unique<KsmScanner>(*hv, cfg, stats);
        a = hv->createVm("a", 4 * MiB, 0);
    }

    /** Six copies of @p d at gfns 0..5 merge into a chain of three
     *  stable frames, created in gfn order: {0,1}, {2,3}, {4,5}. */
    std::vector<Hfn>
    buildChain(const PageData &d)
    {
        for (Gfn g = 0; g < 6; ++g)
            hv->writePage(a, g, d);
        scanner->runToQuiescence();
        std::vector<Hfn> chain;
        for (Gfn g = 0; g < 6; g += 2) {
            EXPECT_EQ(hv->translate(a, g), hv->translate(a, g + 1));
            chain.push_back(hv->translate(a, g));
        }
        EXPECT_EQ(scanner->pagesShared(), 3u);
        const auto shape = scanner->checkIndex();
        EXPECT_EQ(shape.live, 1u);
        EXPECT_EQ(shape.spilled, 1u);
        return chain;
    }
};

} // namespace

TEST_F(KsmStableIndex, ChainKeepsCreationOrder)
{
    const PageData d = PageData::filled(21, 21);
    const std::vector<Hfn> chain = buildChain(d);

    // Reopen one mapping on every frame of the chain; fresh duplicates
    // must then fill the frames in creation order, one each.
    for (Gfn g : {1, 3, 5})
        hv->writePage(a, g, PageData::filled(300 + g, g));
    for (Gfn g : {10, 11, 12})
        hv->writePage(a, g, d);
    scanner->runToQuiescence();
    EXPECT_EQ(hv->translate(a, 10), chain[0]);
    EXPECT_EQ(hv->translate(a, 11), chain[1]);
    EXPECT_EQ(hv->translate(a, 12), chain[2]);
    EXPECT_EQ(stats.get("ksm.stale_stable_nodes"), 0u);
    scanner->checkIndex();
    hv->checkConsistency();
}

TEST_F(KsmStableIndex, PrunedMiddleElementIsCountedExactly)
{
    const PageData d = PageData::filled(22, 22);
    const std::vector<Hfn> chain = buildChain(d);

    // Kill the middle frame. A probe walks past the full head, prunes
    // the dead middle node (exactly one), and skips the full tail.
    hv->discardPage(a, 2);
    hv->discardPage(a, 3);
    ASSERT_EQ(stats.get("ksm.stale_stable_nodes"), 0u);
    hv->writePage(a, 20, d);
    scanner->runToQuiescence();
    EXPECT_EQ(stats.get("ksm.stale_stable_nodes"), 1u);
    EXPECT_NE(hv->translate(a, 20), chain[0]);
    EXPECT_NE(hv->translate(a, 20), chain[2]);
    auto shape = scanner->checkIndex();
    EXPECT_EQ(shape.live, 1u);
    EXPECT_EQ(shape.spilled, 1u); // {head, tail} still a chain

    // The tail moved up behind the head: once it has room, the waiting
    // duplicate merges into it.
    hv->writePage(a, 5, PageData::filled(99, 99));
    scanner->runToQuiescence();
    EXPECT_EQ(hv->translate(a, 20), chain[2]);
    EXPECT_EQ(stats.get("ksm.stale_stable_nodes"), 1u);
    shape = scanner->checkIndex();
    EXPECT_EQ(shape.live, 1u);
    EXPECT_EQ(shape.spilled, 1u);

    // Kill the head as well: the next probe prunes it, and the chain,
    // down to its tail, goes back inline.
    hv->discardPage(a, 0);
    hv->discardPage(a, 1);
    hv->writePage(a, 21, d);
    scanner->runToQuiescence();
    EXPECT_EQ(stats.get("ksm.stale_stable_nodes"), 2u);
    shape = scanner->checkIndex();
    EXPECT_EQ(shape.live, 1u);
    EXPECT_EQ(shape.spilled, 0u);
    hv->checkConsistency();
}

TEST_F(KsmStableIndex, TombstoneIsReusedAfterStaleSingleNodeIsPruned)
{
    const PageData d = PageData::filled(23, 23);
    hv->writePage(a, 0, d);
    hv->writePage(a, 1, d);
    scanner->runToQuiescence();
    auto shape = scanner->checkIndex();
    ASSERT_EQ(shape.live, 1u);
    ASSERT_EQ(shape.occupied, 1u);
    EXPECT_EQ(shape.spilled, 0u); // a lone frame is held inline

    // The node goes stale, but stays indexed until a probe prunes it,
    // leaving a tombstone behind.
    hv->discardPage(a, 0);
    hv->discardPage(a, 1);
    EXPECT_EQ(scanner->checkIndex().live, 1u);
    hv->writePage(a, 10, d);
    scanner->scanBatch(); // first visit: not calm yet
    scanner->scanBatch(); // calm: the probe prunes the node
    EXPECT_EQ(stats.get("ksm.stale_stable_nodes"), 1u);
    shape = scanner->checkIndex();
    EXPECT_EQ(shape.live, 0u);
    EXPECT_EQ(shape.occupied, 1u);

    // A fresh pair promotes the same digest into the tombstone's slot.
    hv->writePage(a, 11, d);
    scanner->runToQuiescence();
    EXPECT_EQ(hv->translate(a, 10), hv->translate(a, 11));
    shape = scanner->checkIndex();
    EXPECT_EQ(shape.live, 1u);
    EXPECT_EQ(shape.occupied, 1u);
    EXPECT_EQ(stats.get("ksm.stale_stable_nodes"), 1u);
    hv->checkConsistency();
}

TEST_F(KsmStableIndex, RehashKeepsChainsAndDropsTombstones)
{
    // A chain and a set of tombstones first...
    const PageData d = PageData::filled(24, 24);
    const std::vector<Hfn> chain = buildChain(d);
    const VmId b = hv->createVm("b", 4 * MiB, 0);
    constexpr Gfn tombstones = 40;
    for (Gfn g = 0; g < tombstones; ++g)
        hv->writePage(b, g, PageData::filled(500 + g, g));
    for (Gfn g = 0; g < tombstones; ++g)
        hv->writePage(b, 100 + g, PageData::filled(500 + g, g));
    scanner->runToQuiescence();
    for (Gfn g = 0; g < tombstones; ++g) {
        hv->discardPage(b, g);
        hv->discardPage(b, 100 + g);
        hv->writePage(b, 200 + g, PageData::filled(500 + g, g));
    }
    scanner->runToQuiescence(); // the probes prune every dead node
    auto shape = scanner->checkIndex();
    ASSERT_EQ(shape.live, 1u);
    ASSERT_EQ(shape.occupied, 1 + tombstones);
    const std::size_t capacity = shape.capacity;

    // ...then digests up to just below the ~70% load bound of the
    // initial table (717 of 1024 slots): new digests reuse some of the
    // tombstones, but not all...
    auto add_pairs = [&](Gfn from, Gfn to) {
        for (Gfn g = from; g < to; ++g) {
            hv->writePage(a, 100 + g, PageData::filled(1000 + g, g));
            hv->writePage(b, 300 + g, PageData::filled(1000 + g, g));
        }
        scanner->runToQuiescence();
    };
    add_pairs(0, 600);
    shape = scanner->checkIndex();
    ASSERT_EQ(shape.capacity, capacity);
    ASSERT_EQ(shape.live, 601u);
    ASSERT_GT(shape.occupied, shape.live);

    // ...and past it: the rehash keeps every digest and drops every
    // tombstone.
    add_pairs(600, 720);
    shape = scanner->checkIndex();
    EXPECT_GT(shape.capacity, capacity);
    EXPECT_EQ(shape.live, 721u);
    EXPECT_EQ(shape.occupied, shape.live);
    EXPECT_EQ(shape.spilled, 1u);
    EXPECT_EQ(scanner->pagesShared(), 720u + 3);

    // The chain survived the move in creation order.
    for (Gfn g : {1, 3})
        hv->writePage(a, g, PageData::filled(400 + g, g));
    for (Gfn g : {30, 31})
        hv->writePage(a, g, d);
    scanner->runToQuiescence();
    EXPECT_EQ(hv->translate(a, 30), chain[0]);
    EXPECT_EQ(hv->translate(a, 31), chain[1]);
    scanner->checkIndex();
    hv->checkConsistency();
}
