/**
 * @file
 * Unit tests for the memory substrate: page content, frame table, swap.
 */

#include <algorithm>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "mem/frame_table.hh"
#include "mem/page_data.hh"
#include "mem/swap_device.hh"

using namespace jtps;
using mem::Frame;
using mem::FrameTable;
using mem::Mapping;
using mem::PageData;
using mem::SwapDevice;

namespace
{

/** Every reverse mapping of @p hfn, primary first, in the order
 *  FrameTable::forEachMapping() reports them. Allocates per call. */
std::vector<Mapping>
mappingsOf(const FrameTable &ft, Hfn hfn)
{
    std::vector<Mapping> out;
    ft.forEachMapping(ft.frame(hfn),
                      [&](const Mapping &m) { out.push_back(m); });
    return out;
}

} // namespace

TEST(PageData, ZeroProperties)
{
    PageData z = PageData::zero();
    EXPECT_TRUE(z.isZero());
    EXPECT_EQ(z, PageData::zero());
    PageData f = PageData::filled(1, 2);
    EXPECT_FALSE(f.isZero());
    EXPECT_NE(z, f);
}

TEST(PageData, FilledIsDeterministicPerTagAndSalt)
{
    EXPECT_EQ(PageData::filled(10, 20), PageData::filled(10, 20));
    EXPECT_NE(PageData::filled(10, 20), PageData::filled(10, 21));
    EXPECT_NE(PageData::filled(10, 20), PageData::filled(11, 20));
}

TEST(PageData, DigestTracksContent)
{
    PageData a = PageData::filled(1, 1);
    PageData b = a;
    EXPECT_EQ(a.digest(), b.digest());
    b.word[3] ^= 1;
    EXPECT_NE(a.digest(), b.digest());
    b.word[3] ^= 1;
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(PageData, DigestSensitiveToEverySectorPosition)
{
    // The calm filter relies on the digest changing when any single
    // sector changes, in either half of the sector word: each sector
    // goes through the bijective mix64 on its own before the sum.
    const PageData base = PageData::filled(21, 34);
    for (unsigned s = 0; s < mem::sectorsPerPage; ++s) {
        PageData low_flip = base;
        low_flip.word[s] ^= 1;
        EXPECT_NE(base.digest(), low_flip.digest())
            << "low-half flip in sector " << s;

        PageData high_flip = base;
        high_flip.word[s] ^= 1ULL << 63;
        EXPECT_NE(base.digest(), high_flip.digest())
            << "high-half flip in sector " << s;

        PageData from_zero = PageData::zero();
        from_zero.word[s] = 1;
        EXPECT_NE(PageData::zero().digest(), from_zero.digest())
            << "zero-page flip in sector " << s;

        PageData rewritten = base;
        rewritten.word[s] = hash3(77, 88, s);
        EXPECT_NE(base.digest(), rewritten.digest())
            << "whole-word rewrite of sector " << s;
    }
}

TEST(PageData, DigestDependsOnSectorOrder)
{
    // The same words in other sectors are other content: every swap of
    // two distinct sectors moves the digest, and so does moving one
    // word into a different sector of an otherwise-zero page.
    const PageData base = PageData::filled(5, 8);
    for (unsigned i = 0; i < mem::sectorsPerPage; ++i) {
        for (unsigned j = i + 1; j < mem::sectorsPerPage; ++j) {
            PageData swapped = base;
            std::swap(swapped.word[i], swapped.word[j]);
            EXPECT_NE(base.digest(), swapped.digest())
                << "swap of sectors " << i << " and " << j;

            PageData at_i = PageData::zero();
            PageData at_j = PageData::zero();
            at_i.word[i] = 42;
            at_j.word[j] = 42;
            EXPECT_NE(at_i.digest(), at_j.digest())
                << "one word in sector " << i << " vs " << j;
        }
    }
}

TEST(PageDataBatch, ZeroPageConstantsMatchScalar)
{
    EXPECT_TRUE(PageData::zero().isZero());
    PageData nearly;
    nearly.word[mem::sectorsPerPage - 1] = 1;
    EXPECT_FALSE(nearly.isZero());
}

TEST(PageData, OrderingIsStrictWeak)
{
    PageData a = PageData::zero();
    PageData b = PageData::filled(1, 1);
    EXPECT_TRUE((a < b) != (b < a));
    EXPECT_FALSE(a < a);
}

TEST(FrameTable, AllocAndFree)
{
    FrameTable ft(16);
    Mapping m{0, 7};
    Hfn h = ft.alloc(m, PageData::filled(1, 1));
    ASSERT_NE(h, invalidFrame);
    EXPECT_TRUE(ft.isAllocated(h));
    EXPECT_EQ(ft.resident(), 1u);
    EXPECT_EQ(ft.frame(h).refcount, 1u);
    EXPECT_EQ(ft.frame(h).primary, m);

    EXPECT_TRUE(ft.removeMapping(h, m));
    EXPECT_FALSE(ft.isAllocated(h));
    EXPECT_EQ(ft.resident(), 0u);
    ft.checkConsistency();
}

TEST(FrameTable, CapacityLimit)
{
    FrameTable ft(2);
    EXPECT_NE(ft.alloc({0, 0}, PageData::zero()), invalidFrame);
    EXPECT_NE(ft.alloc({0, 1}, PageData::zero()), invalidFrame);
    EXPECT_EQ(ft.alloc({0, 2}, PageData::zero()), invalidFrame);
    EXPECT_EQ(ft.freeFrames(), 0u);
}

TEST(FrameTable, SharedMappingsRefcount)
{
    FrameTable ft(8);
    Hfn h = ft.alloc({0, 1}, PageData::filled(3, 3));
    ft.addMapping(h, {1, 9});
    ft.addMapping(h, {2, 4});
    EXPECT_EQ(ft.frame(h).refcount, 3u);
    EXPECT_EQ(mappingsOf(ft, h).size(), 3u);
    ft.checkConsistency();

    // Removing the primary promotes an extra mapping.
    EXPECT_FALSE(ft.removeMapping(h, {0, 1}));
    EXPECT_EQ(ft.frame(h).refcount, 2u);
    EXPECT_FALSE(ft.removeMapping(h, {2, 4}));
    EXPECT_TRUE(ft.removeMapping(h, {1, 9}));
    ft.checkConsistency();
}

TEST(FrameTable, FreedFramesAreReused)
{
    FrameTable ft(4);
    Hfn a = ft.alloc({0, 0}, PageData::zero());
    ft.removeMapping(a, {0, 0});
    Hfn b = ft.alloc({0, 1}, PageData::zero());
    EXPECT_EQ(a, b); // free list reuse
}

TEST(FrameTable, PinnedFramesNeverVictims)
{
    FrameTable ft(4);
    Hfn p = ft.allocPinned(PageData::filled(1, 1));
    ASSERT_NE(p, invalidFrame);
    // Only the pinned frame exists: no victim must be found.
    EXPECT_EQ(ft.pickVictim(true), invalidFrame);
    ft.freePinned(p);
    EXPECT_FALSE(ft.isAllocated(p));
}

TEST(FrameTable, LruPrefersLeastRecentlyTouched)
{
    FrameTable ft(4);
    Hfn a = ft.alloc({0, 0}, PageData::zero());
    Hfn b = ft.alloc({0, 1}, PageData::zero());
    // a was allocated first, then b: a is older.
    EXPECT_EQ(ft.pickVictim(false), a);
    // Touch a: now b is the oldest.
    ft.touch(a);
    EXPECT_EQ(ft.pickVictim(false), b);
    // And back.
    ft.touch(b);
    EXPECT_EQ(ft.pickVictim(false), a);
}

TEST(FrameTable, LruIsGloballyFairUnderSkew)
{
    // One "process" keeps its 8 frames hot; another's 8 frames idle.
    // Victims must come from the idle set, not from whichever frames
    // happen to sit at a scan position.
    FrameTable ft(64);
    std::vector<Hfn> hot, idle;
    for (Gfn g = 0; g < 8; ++g)
        hot.push_back(ft.alloc({0, g}, PageData::zero()));
    for (Gfn g = 0; g < 8; ++g)
        idle.push_back(ft.alloc({1, g}, PageData::zero()));

    for (int round = 0; round < 20; ++round) {
        for (Hfn h : hot)
            ft.touch(h);
        Hfn v = ft.pickVictim(false);
        ASSERT_NE(v, invalidFrame);
        EXPECT_TRUE(std::find(idle.begin(), idle.end(), v) !=
                    idle.end())
            << "victim " << v << " came from the hot set";
    }
}

TEST(FrameTable, SharedFramesNeedAllowShared)
{
    FrameTable ft(4);
    Hfn h = ft.alloc({0, 0}, PageData::zero());
    ft.addMapping(h, {1, 0});
    EXPECT_EQ(ft.pickVictim(false), invalidFrame);
    EXPECT_EQ(ft.pickVictim(true), h);
}

TEST(FrameTable, FallbackSweepFindsEligibleFrames)
{
    // 1,022 of 1,024 frames are pinned, so the 16-frame sample
    // (seeded, hence the same on every run) misses both eligible ones
    // and the clock sweep has to find them. It resumes just past each
    // victim: repeated calls take turns instead of returning the first
    // eligible frame forever.
    constexpr std::uint64_t frames = 1024;
    constexpr Hfn a = 300;
    constexpr Hfn b = 700;
    StatSet stats;
    FrameTable ft(frames, &stats);
    for (Hfn h = 0; h < frames; ++h) {
        const Hfn got = (h == a || h == b)
                            ? ft.alloc({0, h}, PageData::filled(3, h))
                            : ft.allocPinned(PageData::filled(4, h));
        ASSERT_EQ(got, h);
    }
    // Neither a shared frame nor a pinned one is eligible.
    ft.addMapping(a, {1, a});
    EXPECT_EQ(ft.pickVictim(false), b);
    EXPECT_EQ(ft.pickVictim(false), b);
    EXPECT_EQ(stats.get("host.victim_fallback_sweeps"), 2u);

    EXPECT_EQ(ft.pickVictim(true), a);
    EXPECT_EQ(ft.pickVictim(true), b);
    EXPECT_EQ(ft.pickVictim(true), a);
    EXPECT_EQ(stats.get("host.victim_fallback_sweeps"), 5u);
    ft.checkConsistency();
}

TEST(FrameTable, ConsistencyCheckCountsResident)
{
    FrameTable ft(32, nullptr);
    std::vector<Hfn> frames;
    for (int i = 0; i < 20; ++i)
        frames.push_back(ft.alloc({0, static_cast<Gfn>(i)},
                                  PageData::filled(i, i)));
    for (int i = 0; i < 10; ++i)
        ft.removeMapping(frames[i], {0, static_cast<Gfn>(i)});
    EXPECT_EQ(ft.resident(), 10u);
    ft.checkConsistency();
}

TEST(FrameTable, KsmCountersTrackStableFlagAndMappings)
{
    FrameTable ft(8);
    EXPECT_EQ(ft.ksmStableFrames(), 0u);
    EXPECT_EQ(ft.ksmSharingMappings(), 0u);

    Hfn h = ft.alloc({0, 0}, PageData::filled(1, 1));
    ft.addMapping(h, {1, 0});
    ft.setKsmStable(h, true);
    EXPECT_EQ(ft.ksmStableFrames(), 1u);
    EXPECT_EQ(ft.ksmSharingMappings(), 1u); // refcount 2 => 1 saved

    ft.addMapping(h, {2, 0});
    EXPECT_EQ(ft.ksmSharingMappings(), 2u);
    ft.removeMapping(h, {1, 0});
    EXPECT_EQ(ft.ksmSharingMappings(), 1u);
    ft.checkConsistency();

    // Unmarking restores both counters.
    ft.setKsmStable(h, false);
    EXPECT_EQ(ft.ksmStableFrames(), 0u);
    EXPECT_EQ(ft.ksmSharingMappings(), 0u);
    ft.setKsmStable(h, true);

    // Freeing the frame via its last mappings zeroes everything.
    ft.removeMapping(h, {0, 0});
    EXPECT_TRUE(ft.removeMapping(h, {2, 0}));
    EXPECT_EQ(ft.ksmStableFrames(), 0u);
    EXPECT_EQ(ft.ksmSharingMappings(), 0u);
    ft.checkConsistency();
}

TEST(FrameTable, KsmCountersMatchRecountUnderRandomWorkload)
{
    // Randomized mark/share/unmap/free churn directly against the
    // frame table; the O(1) counters must equal a full recount at
    // every checkpoint (checkConsistency also cross-checks them).
    FrameTable ft(128);
    Rng rng(20130421);
    std::vector<std::pair<Hfn, Mapping>> live; // one entry per mapping
    std::uint64_t next_gfn = 0;

    for (int step = 0; step < 4000; ++step) {
        const int op = rng.nextBelow(100);
        if (op < 35 || live.empty()) {
            if (ft.freeFrames() == 0)
                continue;
            Mapping m{0, next_gfn++};
            Hfn h = ft.alloc(m, PageData::filled(rng.nextBelow(4), 0));
            live.push_back({h, m});
        } else if (op < 55) {
            // Share some existing frame (KSM merge).
            const auto &[h, m0] = live[rng.nextBelow(live.size())];
            Mapping m{1, next_gfn++};
            ft.addMapping(h, m);
            live.push_back({h, m});
        } else if (op < 75) {
            // Toggle stable state (promote / COW-divergence cleanup).
            const auto &[h, m] = live[rng.nextBelow(live.size())];
            ft.setKsmStable(h, rng.bernoulli(0.7));
        } else {
            // Unmap (COW break or free).
            const std::size_t i = rng.nextBelow(live.size());
            const auto [h, m] = live[i];
            live.erase(live.begin() + i);
            ft.removeMapping(h, m);
        }

        if (step % 200 == 0) {
            std::uint64_t stable = 0, sharing = 0;
            ft.forEachResident([&](Hfn, const Frame &f) {
                if (f.ksmStable) {
                    ++stable;
                    sharing += f.refcount - 1;
                }
            });
            ASSERT_EQ(ft.ksmStableFrames(), stable) << "step " << step;
            ASSERT_EQ(ft.ksmSharingMappings(), sharing)
                << "step " << step;
            ft.checkConsistency();
        }
    }
}

TEST(SwapDevice, StoreAndTake)
{
    SwapDevice swap;
    PageData data = PageData::filled(5, 5);
    auto slot = swap.store(data, {{0, 1}, {1, 2}});
    EXPECT_TRUE(swap.has(slot));
    EXPECT_EQ(swap.used(), 1u);

    auto stored = swap.take(slot);
    EXPECT_EQ(stored.data, data);
    ASSERT_EQ(stored.mappings.size(), 2u);
    EXPECT_FALSE(swap.has(slot));
    EXPECT_EQ(swap.used(), 0u);
}

TEST(SwapDevice, SlotsAreUnique)
{
    SwapDevice swap;
    auto a = swap.store(PageData::zero(), {{0, 0}});
    auto b = swap.store(PageData::zero(), {{0, 1}});
    EXPECT_NE(a, b);
}

TEST(SwapDevice, DropMappingFreesEmptySlot)
{
    SwapDevice swap;
    auto slot = swap.store(PageData::zero(), {{0, 1}, {1, 2}});
    EXPECT_FALSE(swap.dropMapping(slot, {0, 1}));
    EXPECT_TRUE(swap.has(slot));
    EXPECT_TRUE(swap.dropMapping(slot, {1, 2}));
    EXPECT_FALSE(swap.has(slot));
}

TEST(SwapDevice, StatsArePublished)
{
    StatSet stats;
    SwapDevice swap(&stats);
    auto slot = swap.store(PageData::zero(), {{0, 0}});
    EXPECT_EQ(stats.get("host.pswpout"), 1u);
    EXPECT_EQ(stats.get("host.swap_slots"), 1u);
    swap.take(slot);
    EXPECT_EQ(stats.get("host.pswpin"), 1u);
    EXPECT_EQ(stats.get("host.swap_slots"), 0u);
}

TEST(FrameTable, WriteGenerationIsNeverZeroAndAdvancesOnBump)
{
    FrameTable ft(4);
    Hfn a = ft.alloc({0, 0}, PageData::zero());
    const std::uint64_t g0 = ft.writeGen(a);
    EXPECT_NE(g0, 0u); // 0 is reserved for "never observed"
    const std::uint64_t g1 = ft.noteWrite(a, ft.frame(a));
    EXPECT_EQ(ft.writeGen(a), g1);
    EXPECT_GT(g1, g0);
    // A different frame never shares a generation: the clock is global.
    Hfn b = ft.alloc({0, 1}, PageData::zero());
    EXPECT_NE(ft.writeGen(b), ft.writeGen(a));
}

TEST(FrameTable, FrameReuseAfterFreeAdvancesWriteGeneration)
{
    // Regression: a freed and recycled hfn must come back with a fresh
    // generation, or a cache entry keyed by (hfn, generation) from the
    // previous tenant would wrongly validate against the new content.
    FrameTable ft(4);
    Hfn a = ft.alloc({0, 0}, PageData::filled(1, 1));
    const std::uint64_t before = ft.writeGen(a);
    ft.removeMapping(a, {0, 0}); // frees the frame
    Hfn b = ft.alloc({0, 1}, PageData::filled(1, 1));
    ASSERT_EQ(a, b); // same hfn recycled (free-list reuse) ...
    EXPECT_GT(ft.writeGen(b), before); // ... but a strictly newer gen,
    // even though the content is identical to the previous tenant's.
}

TEST(FrameTable, StableFlagTransitionAdvancesWriteGeneration)
{
    // The KSM scanner concludes "not stable" from generation equality
    // alone, so joining or leaving the stable tree must look like a
    // write.
    FrameTable ft(4);
    Hfn a = ft.alloc({0, 0}, PageData::filled(2, 2));
    const std::uint64_t g0 = ft.writeGen(a);
    ft.setKsmStable(a, true);
    const std::uint64_t g1 = ft.writeGen(a);
    EXPECT_GT(g1, g0);
    ft.setKsmStable(a, false);
    EXPECT_GT(ft.writeGen(a), g1);
    // No-op transition: no generation change.
    const std::uint64_t g2 = ft.writeGen(a);
    ft.setKsmStable(a, false);
    EXPECT_EQ(ft.writeGen(a), g2);
}

TEST(FrameTable, ExtraReserveOnFirstSpillShrinkOnLastUnshare)
{
    // The reverse-mapping spill list reserves once at the first
    // spill (KSM chains grow without per-merge reallocation up to
    // kExtraReserve mappings) and gives the storage back when the last
    // extra mapping goes.
    StatSet stats;
    FrameTable ft(64, &stats);
    const Hfn f = ft.alloc(Mapping{0, 0}, PageData::filled(9, 9));
    ASSERT_NE(f, invalidFrame);
    EXPECT_EQ(ft.extraOf(ft.frame(f)).capacity(), 0u);

    ft.addMapping(f, Mapping{1, 0}); // first spill
    EXPECT_EQ(ft.extraOf(ft.frame(f)).capacity(),
              FrameTable::kExtraReserve);
    for (VmId vm = 2; vm <= FrameTable::kExtraReserve; ++vm)
        ft.addMapping(f, Mapping{vm, 0});
    // Filled to the reservation: still not a single reallocation.
    EXPECT_EQ(ft.extraOf(ft.frame(f)).size(), FrameTable::kExtraReserve);
    EXPECT_EQ(ft.extraOf(ft.frame(f)).capacity(),
              FrameTable::kExtraReserve);

    // One past the reservation grows normally...
    const VmId beyond = FrameTable::kExtraReserve + 1;
    ft.addMapping(f, Mapping{beyond, 0});
    EXPECT_GT(ft.extraOf(ft.frame(f)).capacity(),
              FrameTable::kExtraReserve);

    // ...and unsharing back to a sole mapping releases the storage.
    const std::uint32_t slot = ft.frame(f).spill;
    for (VmId vm = 1; vm <= beyond; ++vm)
        ft.removeMapping(f, Mapping{vm, 0});
    EXPECT_EQ(ft.frame(f).refcount, 1u);
    EXPECT_EQ(ft.frame(f).spill, 0u);
    EXPECT_TRUE(ft.extraOf(ft.frame(f)).empty());
    EXPECT_EQ(ft.extraOf(ft.frame(f)).capacity(), 0u);
    // The released slot has no storage either: the next spill reuses
    // it and reserves afresh.
    const Hfn g = ft.alloc(Mapping{0, 1}, PageData::filled(9, 8));
    ft.addMapping(g, Mapping{1, 1});
    EXPECT_EQ(ft.frame(g).spill, slot);
    EXPECT_EQ(ft.extraOf(ft.frame(g)).capacity(),
              FrameTable::kExtraReserve);
    ft.checkConsistency();
}

TEST(FrameTable, SpillSlotsAreReusedAfterLastUnshare)
{
    FrameTable ft(16);
    const Hfn a = ft.alloc(Mapping{0, 0}, PageData::filled(1, 0));
    const Hfn b = ft.alloc(Mapping{0, 1}, PageData::filled(1, 1));
    const Hfn c = ft.alloc(Mapping{0, 2}, PageData::filled(1, 2));
    EXPECT_EQ(ft.frame(a).spill, 0u);
    EXPECT_EQ(ft.spillSlotsLive(), 0u);

    ft.addMapping(a, Mapping{1, 0});
    ft.addMapping(b, Mapping{1, 1});
    const std::uint32_t slot_a = ft.frame(a).spill;
    const std::uint32_t slot_b = ft.frame(b).spill;
    EXPECT_NE(slot_a, 0u);
    EXPECT_NE(slot_b, 0u);
    EXPECT_NE(slot_a, slot_b);
    EXPECT_EQ(ft.spillSlotsLive(), 2u);
    ft.checkConsistency();

    // Unsharing a (through its primary mapping: the spilled one moves
    // inline) frees its slot, and c's first spill takes it back.
    EXPECT_FALSE(ft.removeMapping(a, Mapping{0, 0}));
    EXPECT_EQ(ft.frame(a).primary, (Mapping{1, 0}));
    EXPECT_EQ(ft.frame(a).spill, 0u);
    EXPECT_EQ(ft.spillSlotsLive(), 1u);
    ft.checkConsistency();
    ft.addMapping(c, Mapping{1, 2});
    EXPECT_EQ(ft.frame(c).spill, slot_a);
    EXPECT_EQ(ft.spillSlotsLive(), 2u);
    ft.checkConsistency();
}

TEST(FrameTable, FreeingASharedFrameLeavesNoSpillSlot)
{
    FrameTable ft(16);
    const Hfn h = ft.alloc(Mapping{0, 0}, PageData::filled(2, 0));
    ft.addMapping(h, Mapping{1, 0});
    ft.addMapping(h, Mapping{2, 0});
    ft.setKsmStable(h, true);
    EXPECT_EQ(ft.spillSlotsLive(), 1u);

    EXPECT_FALSE(ft.removeMapping(h, Mapping{1, 0}));
    EXPECT_FALSE(ft.removeMapping(h, Mapping{0, 0}));
    EXPECT_TRUE(ft.removeMapping(h, Mapping{2, 0}));
    EXPECT_FALSE(ft.isAllocated(h));
    EXPECT_EQ(ft.spillSlotsLive(), 0u);
    EXPECT_EQ(ft.ksmStableFrames(), 0u);
    ft.checkConsistency();

    // The recycled frame number comes back without a spill list.
    const Hfn again = ft.alloc(Mapping{3, 0}, PageData::filled(2, 1));
    EXPECT_EQ(again, h);
    EXPECT_EQ(ft.frame(again).spill, 0u);
    EXPECT_EQ(mappingsOf(ft, again), (std::vector<Mapping>{{3, 0}}));
    ft.checkConsistency();
}

TEST(FrameTable, LongSharingChainKeepsMappingOrder)
{
    // A 256-sharer chain (KSM's max_page_sharing default): mappings
    // come back in the order they were added; removing one from the
    // middle keeps the rest in order, and removing the primary moves
    // the newest mapping inline.
    FrameTable ft(8);
    const Hfn h = ft.alloc(Mapping{0, 0}, PageData::filled(4, 4));
    std::vector<Mapping> expect = {{0, 0}};
    for (VmId vm = 1; vm < 256; ++vm) {
        ft.addMapping(h, Mapping{vm, vm * 3});
        expect.push_back(Mapping{vm, vm * 3});
    }
    EXPECT_EQ(ft.frame(h).refcount, 256u);
    EXPECT_EQ(mappingsOf(ft, h), expect);
    EXPECT_EQ(ft.spillSlotsLive(), 1u);
    ft.checkConsistency();

    for (const VmId vm : {128u, 1u, 200u}) {
        ASSERT_FALSE(ft.removeMapping(h, Mapping{vm, vm * 3}));
        expect.erase(
            std::find(expect.begin(), expect.end(), Mapping{vm, vm * 3}));
    }
    EXPECT_EQ(mappingsOf(ft, h), expect);

    ASSERT_FALSE(ft.removeMapping(h, Mapping{0, 0}));
    expect.front() = expect.back();
    expect.pop_back();
    EXPECT_EQ(ft.frame(h).primary, (Mapping{255, 255 * 3}));
    EXPECT_EQ(mappingsOf(ft, h), expect);
    EXPECT_EQ(ft.frame(h).refcount, 252u);
    ft.checkConsistency();
}

TEST(FrameTableDeathTest, CorruptSpillSlotIsCaught)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Two shared frames, each with its own spill slot; then b's slot
    // index is overwritten with @p bad (a is the slot of frame a).
    auto corrupt = [](bool alias_a, std::uint32_t bad) {
        FrameTable ft(8);
        const Hfn a = ft.alloc(Mapping{0, 0}, PageData::filled(5, 0));
        const Hfn b = ft.alloc(Mapping{0, 1}, PageData::filled(5, 1));
        ft.addMapping(a, Mapping{1, 0});
        ft.addMapping(b, Mapping{1, 1});
        ft.checkConsistency();
        ft.frame(b).spill = alias_a ? ft.frame(a).spill : bad;
        ft.checkConsistency();
    };
    // One slot with two owners.
    EXPECT_DEATH(corrupt(true, 0), "assertion");
    // A slot past the table.
    EXPECT_DEATH(corrupt(false, 99), "assertion");
    // b's slot neither owned nor free.
    EXPECT_DEATH(corrupt(false, 0), "assertion");
}

TEST(FrameTable, SlabBoundary)
{
    // Frames live in fixed slabs of kSlabFrames. Growing past a slab
    // boundary must not move a frame, and frees and free-list reuse on
    // both sides of a boundary must keep every invariant.
    constexpr std::uint64_t slab = FrameTable::kSlabFrames;
    constexpr std::uint64_t more = 70000;
    // Not a whole number of slabs: the last slab is a partial one.
    const std::uint64_t capacity = slab - 16 + more + 100;
    StatSet stats;
    FrameTable ft(capacity, &stats);

    for (std::uint64_t i = 0; i < slab - 16; ++i)
        ASSERT_EQ(ft.alloc(Mapping{0, i}, PageData::filled(1, i)), i);
    const Hfn held_hfn = slab - 17; // the last frame so far
    Frame &held = ft.frame(held_hfn);
    const Frame *held_addr = &held;
    for (std::uint64_t i = slab - 16; i < slab - 16 + more; ++i)
        ASSERT_EQ(ft.alloc(Mapping{0, i}, PageData::filled(1, i)), i);
    // Two boundaries crossed; the reference still names the frame.
    EXPECT_EQ(&ft.frame(held_hfn), held_addr);
    EXPECT_EQ(held.data, PageData::filled(1, held_hfn));
    EXPECT_EQ(held.primary, (Mapping{0, held_hfn}));
    ft.touch(held_hfn);
    EXPECT_EQ(held.lastTouch, ft.frame(held_hfn).lastTouch);

    // Share one frame on each side of the first boundary, then free
    // frames on both sides of it.
    for (const Hfn h : {slab - 1, slab}) {
        ft.addMapping(h, Mapping{1, h});
        ft.setKsmStable(h, true);
    }
    const std::set<Hfn> freed = {slab - 3, slab - 2, slab + 1, slab + 2};
    for (const Hfn h : freed)
        EXPECT_TRUE(ft.removeMapping(h, Mapping{0, h}));
    EXPECT_FALSE(ft.removeMapping(slab, Mapping{0, slab}));
    ft.checkConsistency();

    // The free list hands the same frame numbers back, reinitialised.
    std::set<Hfn> reused;
    for (std::uint64_t i = 0; i < freed.size(); ++i) {
        const Hfn h = ft.alloc(Mapping{2, i}, PageData::filled(2, i));
        ASSERT_NE(h, invalidFrame);
        reused.insert(h);
        EXPECT_EQ(ft.frame(h).refcount, 1u);
        EXPECT_FALSE(ft.frame(h).ksmStable);
        EXPECT_EQ(ft.frame(h).data, PageData::filled(2, i));
    }
    EXPECT_EQ(reused, freed);

    // Fill the partial last slab to capacity: no frame past it.
    while (ft.freeFrames() > 0)
        ASSERT_NE(ft.alloc(Mapping{3, 0}, PageData::zero()), invalidFrame);
    EXPECT_EQ(ft.alloc(Mapping{3, 1}, PageData::zero()), invalidFrame);
    EXPECT_EQ(&ft.frame(held_hfn), held_addr);
    ft.checkConsistency();
    EXPECT_EQ(stats.get("host.frames_freed"), freed.size());
    EXPECT_EQ(stats.get("host.frames_allocated"), capacity + freed.size());
}
