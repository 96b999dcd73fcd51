/**
 * @file
 * Property-based tests (parameterized sweeps): the hypervisor + KSM
 * stack is driven with randomized operation streams and checked against
 * a shadow model, across many seeds.
 *
 * Invariants (DESIGN.md §7):
 *  - a guest always reads back exactly what it last wrote, no matter
 *    what merging/COW/eviction happened in between;
 *  - structural consistency (refcounts, counters) holds at every
 *    checkpoint;
 *  - owner-oriented attribution conserves resident bytes.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/accounting.hh"
#include "analysis/forensics.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "core/scenario.hh"
#include "guest/guest_os.hh"
#include "hv/hypervisor.hh"
#include "ksm/ksm_scanner.hh"

using namespace jtps;
using hv::Hypervisor;
using ksm::KsmConfig;
using ksm::KsmScanner;
using mem::PageData;

namespace
{

class HvFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(HvFuzz, ReadYourWritesUnderMergeCowEvict)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    StatSet stats;

    hv::HostConfig host;
    host.ramBytes = 64 * pageSize; // tight: forces eviction
    host.reserveBytes = 0;
    Hypervisor hv(host, stats);

    constexpr int num_vms = 3;
    constexpr Gfn pages_per_vm = 40;
    for (int v = 0; v < num_vms; ++v)
        hv.createVm("vm" + std::to_string(v), pages_per_vm * pageSize, 0);

    KsmConfig kcfg;
    kcfg.pagesToScan = 1000;
    KsmScanner scanner(hv, kcfg, stats);

    // Shadow model: what each guest page must contain.
    std::map<std::pair<VmId, Gfn>, PageData> shadow;

    for (int step = 0; step < 3000; ++step) {
        const VmId vm = rng.nextBelow(num_vms);
        const Gfn gfn = rng.nextBelow(pages_per_vm);
        const int op = rng.nextBelow(100);

        if (op < 45) {
            // Write a page; small content space => many duplicates.
            PageData d = PageData::filled(rng.nextBelow(6), 0);
            hv.writePage(vm, gfn, d);
            shadow[{vm, gfn}] = d;
        } else if (op < 60) {
            // Word write.
            const unsigned sector = rng.nextBelow(mem::sectorsPerPage);
            const std::uint64_t value = rng.nextBelow(4);
            hv.writeWord(vm, gfn, sector, value);
            shadow[{vm, gfn}].word[sector] = value;
        } else if (op < 75) {
            // Read and verify immediately.
            const unsigned sector = rng.nextBelow(mem::sectorsPerPage);
            auto it = shadow.find({vm, gfn});
            const std::uint64_t expect =
                it == shadow.end() ? 0 : it->second.word[sector];
            ASSERT_EQ(hv.readWord(vm, gfn, sector), expect)
                << "seed=" << seed << " step=" << step;
        } else if (op < 85) {
            hv.discardPage(vm, gfn);
            shadow.erase({vm, gfn});
        } else if (op < 95) {
            scanner.scanBatch();
        } else {
            hv.touchPage(vm, gfn);
        }

        if (step % 500 == 0)
            hv.checkConsistency();
    }

    // Final full verification of every guest page.
    for (int v = 0; v < num_vms; ++v) {
        for (Gfn g = 0; g < pages_per_vm; ++g) {
            auto it = shadow.find({static_cast<VmId>(v), g});
            for (unsigned s = 0; s < mem::sectorsPerPage; ++s) {
                const std::uint64_t expect =
                    it == shadow.end() ? 0 : it->second.word[s];
                ASSERT_EQ(hv.readWord(v, g, s), expect)
                    << "seed=" << seed << " vm=" << v << " gfn=" << g;
            }
        }
    }
    hv.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HvFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

namespace
{

class SharingCounterFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(SharingCounterFuzz, CountersMatchFullRecountUnderMergeCowFree)
{
    // The O(1) pages_shared / pages_sharing counters are bumped at
    // every ksmMakeStable / ksmMergeInto / COW break / unmap / evict;
    // after a randomized workload they must equal what a full
    // frame-table walk reports.
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    StatSet stats;

    hv::HostConfig host;
    host.ramBytes = 96 * pageSize; // tight: eviction hits shared frames
    host.reserveBytes = 0;
    Hypervisor hv(host, stats);

    constexpr int num_vms = 3;
    constexpr Gfn pages_per_vm = 48;
    for (int v = 0; v < num_vms; ++v)
        hv.createVm("vm" + std::to_string(v), pages_per_vm * pageSize, 0);

    KsmConfig kcfg;
    kcfg.pagesToScan = 1000;
    KsmScanner scanner(hv, kcfg, stats);

    auto recount = [&](std::uint64_t &shared, std::uint64_t &sharing) {
        shared = sharing = 0;
        hv.frames().forEachResident(
            [&](Hfn, const mem::Frame &f) {
                if (f.ksmStable) {
                    ++shared;
                    sharing += f.refcount - 1;
                }
            });
    };

    for (int step = 0; step < 2500; ++step) {
        const VmId vm = rng.nextBelow(num_vms);
        const Gfn gfn = rng.nextBelow(pages_per_vm);
        const int op = rng.nextBelow(100);

        if (op < 40) {
            // Small content space => many mergeable duplicates.
            hv.writePage(vm, gfn, PageData::filled(rng.nextBelow(5), 0));
        } else if (op < 55) {
            // Word write: COW-breaks shared pages.
            hv.writeWord(vm, gfn, rng.nextBelow(mem::sectorsPerPage),
                         rng.nextBelow(3));
        } else if (op < 70) {
            hv.discardPage(vm, gfn);
        } else if (op < 90) {
            scanner.scanBatch();
        } else {
            hv.touchPage(vm, gfn);
        }

        if (step % 250 == 0) {
            std::uint64_t shared = 0, sharing = 0;
            recount(shared, sharing);
            ASSERT_EQ(scanner.pagesShared(), shared)
                << "seed=" << seed << " step=" << step;
            ASSERT_EQ(scanner.pagesSharing(), sharing)
                << "seed=" << seed << " step=" << step;
            // And the frame table's own audit recounts them in one
            // full walk.
            hv.frames().checkConsistency();
        }
    }

    scanner.runToQuiescence();
    std::uint64_t shared = 0, sharing = 0;
    recount(shared, sharing);
    EXPECT_EQ(scanner.pagesShared(), shared);
    EXPECT_EQ(scanner.pagesSharing(), sharing);
    hv.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharingCounterFuzz,
                         ::testing::Values(4, 9, 16, 25, 36, 49));

namespace
{

class CollapseFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(CollapseFuzz, CollapsePreservesContentAndConserves)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    StatSet stats;
    hv::HostConfig host;
    host.ramBytes = 16 * MiB;
    host.reserveBytes = 0;
    hv::Hypervisor hv(host, stats);

    constexpr int num_vms = 4;
    constexpr Gfn pages = 64;
    std::map<std::pair<VmId, Gfn>, PageData> shadow;
    for (int v = 0; v < num_vms; ++v) {
        hv.createVm("vm" + std::to_string(v), pages * pageSize, 0);
        for (Gfn g = 0; g < pages; ++g) {
            PageData d = PageData::filled(rng.nextBelow(10), 0);
            hv.writePage(v, g, d);
            shadow[{static_cast<VmId>(v), g}] = d;
        }
    }

    const std::uint64_t before = hv.residentFrames();
    const std::uint64_t merged = hv.collapseIdenticalPages();
    EXPECT_EQ(hv.residentFrames(), before - merged);
    // At most 10 distinct contents remain.
    EXPECT_LE(hv.residentFrames(), 10u);
    hv.checkConsistency();

    for (auto &[key, data] : shadow) {
        const PageData *p = hv.peek(key.first, key.second);
        ASSERT_NE(p, nullptr);
        ASSERT_EQ(*p, data);
    }

    // Post-collapse writes still isolate correctly.
    hv.writeWord(0, 0, 0, 424242);
    for (int v = 1; v < num_vms; ++v) {
        const std::uint64_t expect =
            shadow[std::make_pair(static_cast<VmId>(v), Gfn{0})].word[0];
        EXPECT_EQ(hv.peek(v, 0)->word[0], expect);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapseFuzz,
                         ::testing::Values(7, 11, 19, 23, 42));

namespace
{

class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

} // namespace

TEST_P(ConservationSweep, AttributionConservesResidentBytes)
{
    const auto [num_vms, collapse] = GetParam();
    StatSet stats;
    hv::HostConfig host;
    host.ramBytes = 2ULL * GiB;
    host.reserveBytes = 0;
    Hypervisor hv(host, stats);

    std::vector<std::unique_ptr<guest::GuestOs>> guests;
    guest::KernelConfig k;
    k.textBytes = 512 * KiB;
    k.dataBytes = 256 * KiB;
    k.slabBytes = 256 * KiB;
    k.sharedBootCacheBytes = 1 * MiB;
    k.privateBootCacheBytes = 512 * KiB;

    for (int v = 0; v < num_vms; ++v) {
        VmId id = hv.createVm("vm" + std::to_string(v), 32 * MiB,
                              256 * KiB);
        guests.push_back(std::make_unique<guest::GuestOs>(
            hv, id, "vm", 100 + v));
        guests.back()->bootKernel(k);
        guests.back()->spawnDaemon("d", 128 * KiB, 128 * KiB);
        Pid java = guests.back()->spawn("java", true);
        auto *vma = guests.back()->mmapAnon(
            java, 2 * MiB, guest::MemCategory::JavaHeap, "heap");
        for (std::uint64_t i = 0; i < vma->numPages; ++i) {
            guests.back()->writePage(
                vma, i, PageData::filled(i % 7, i % 3));
        }
    }
    if (collapse)
        hv.collapseIdenticalPages();

    std::vector<const guest::GuestOs *> ptrs;
    for (auto &g : guests)
        ptrs.push_back(g.get());
    analysis::Snapshot snap = analysis::captureSnapshot(hv, ptrs);
    analysis::OwnerAccounting owner(snap);
    EXPECT_EQ(owner.attributedBytes(), owner.residentBytes());
    EXPECT_EQ(owner.residentBytes(), hv.residentBytes());

    Bytes rollup = 0;
    for (int v = 0; v < num_vms; ++v)
        rollup += owner.vmBreakdown(v).usageTotal();
    EXPECT_EQ(rollup, owner.residentBytes());

    analysis::PssAccounting pss(snap);
    EXPECT_NEAR(pss.totalBytes(),
                static_cast<double>(hv.residentBytes()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConservationSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(false, true)));

namespace
{

class GuestSwapFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(GuestSwapFuzz, ContentSurvivesGuestAndHostPressure)
{
    // Both paging layers active at once: a guest with less RAM than
    // its working set, on a host with less RAM than the guest. Reads
    // must always return the last written value.
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    StatSet stats;

    hv::HostConfig host;
    host.ramBytes = 32 * pageSize; // < guest RAM: host pages too
    host.reserveBytes = 0;
    Hypervisor hv(host, stats);
    VmId id = hv.createVm("vm", 40 * pageSize, 0);
    guest::GuestOs os(hv, id, "vm", seed);
    Pid pid = os.spawn("p", false);
    guest::Vma *vma = os.mmapAnon(pid, 64 * pageSize,
                                  guest::MemCategory::JvmWork, "ws");

    std::map<std::uint64_t, std::uint64_t> shadow; // page*8+sector -> v
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t page = rng.nextBelow(64);
        const unsigned sector = rng.nextBelow(mem::sectorsPerPage);
        if (rng.bernoulli(0.6)) {
            const std::uint64_t value = rng.next();
            os.writeWord(vma, page, sector, value);
            shadow[page * 8 + sector] = value;
        } else {
            auto it = shadow.find(page * 8 + sector);
            const std::uint64_t expect =
                it == shadow.end() ? 0 : it->second;
            ASSERT_EQ(os.readWord(vma, page, sector), expect)
                << "seed=" << seed << " step=" << step;
        }
        if (step % 1000 == 0)
            hv.checkConsistency();
    }
    // The guest must actually have used its swap for this to be a
    // meaningful test.
    EXPECT_GT(os.guestSwapOuts(), 0u);
    hv.checkConsistency();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestSwapFuzz,
                         ::testing::Values(3, 7, 31, 127, 8191));

namespace
{

/**
 * Two complete hypervisor + scanner stacks driven in lockstep with the
 * same operation stream: one scanner uses incremental (generation
 * gated) scanning, the other the from-scratch reference mode. Every
 * observable — merge counters, sharing totals, translations, page
 * contents — must stay identical, because skipping is gated only on
 * proofs (generation/epoch equality), never on heuristics.
 */
struct TwinStacks
{
    static constexpr int numVms = 3;
    /** Default guest size: every VM fits in one chunk of scan state. */
    static constexpr Gfn smallVmPages = 48;

    const Gfn pagesPerVm;

    StatSet inc_stats;
    StatSet ref_stats;
    TraceBuffer inc_trace;
    TraceBuffer ref_trace;
    Hypervisor inc_hv;
    Hypervisor ref_hv;
    KsmScanner inc_scanner;
    KsmScanner ref_scanner;

    static hv::HostConfig
    hostCfg(Bytes ram)
    {
        hv::HostConfig h;
        h.ramBytes = ram;
        h.reserveBytes = 0;
        return h;
    }

    static KsmConfig
    ksmCfg(bool incremental)
    {
        KsmConfig c;
        c.pagesToScan = 500;
        c.incrementalScan = incremental;
        return c;
    }

    explicit TwinStacks(Bytes ram, Gfn pages_per_vm = smallVmPages)
        : TwinStacks(ram, ksmCfg(true), ksmCfg(false), pages_per_vm)
    {
    }

    /** Generalized twins: any two scanner configurations expected to
     *  behave byte-identically. */
    TwinStacks(Bytes ram, const KsmConfig &inc_cfg,
               const KsmConfig &ref_cfg, Gfn pages_per_vm = smallVmPages)
        : TwinStacks(hostCfg(ram), hostCfg(ram), inc_cfg, ref_cfg,
                     pages_per_vm)
    {
    }

    /** Fully general twins: per-side host configuration too (the PML
     *  fuzz gives one side rings and the other none). */
    TwinStacks(const hv::HostConfig &inc_host,
               const hv::HostConfig &ref_host, const KsmConfig &inc_cfg,
               const KsmConfig &ref_cfg,
               Gfn pages_per_vm = smallVmPages)
        : pagesPerVm(pages_per_vm), inc_hv(inc_host, inc_stats),
          ref_hv(ref_host, ref_stats),
          inc_scanner(inc_hv, inc_cfg, inc_stats),
          ref_scanner(ref_hv, ref_cfg, ref_stats)
    {
        // Record both stacks' trace streams: merges, promotions, scan
        // boundaries, COW breaks and swap traffic must line up event
        // for event, not just in the totals.
        inc_trace.enable();
        ref_trace.enable();
        inc_hv.setTrace(&inc_trace);
        ref_hv.setTrace(&ref_trace);
        for (int v = 0; v < numVms; ++v) {
            inc_hv.createVm("vm" + std::to_string(v),
                            pagesPerVm * pageSize, 0);
            ref_hv.createVm("vm" + std::to_string(v),
                            pagesPerVm * pageSize, 0);
        }
    }

    void
    expectEqual(std::uint64_t seed, int step)
    {
        // Every counter the reference scanner maintains must match;
        // only the two skip-accounting counters may differ (they are
        // identically zero in reference mode).
        static const char *counters[] = {
            "ksm.stale_stable_nodes", "ksm.stale_unstable_nodes",
            "ksm.skipped_huge",       "ksm.not_calm",
            "ksm.stable_merges",      "ksm.unstable_promotions",
            "ksm.pages_visited",
        };
        for (const char *c : counters)
            ASSERT_EQ(inc_stats.get(c), ref_stats.get(c))
                << c << " seed=" << seed << " step=" << step;
        ASSERT_EQ(inc_scanner.fullScans(), ref_scanner.fullScans())
            << "seed=" << seed << " step=" << step;
        ASSERT_EQ(inc_scanner.pagesShared(), ref_scanner.pagesShared())
            << "seed=" << seed << " step=" << step;
        ASSERT_EQ(inc_scanner.pagesSharing(), ref_scanner.pagesSharing())
            << "seed=" << seed << " step=" << step;
        for (int v = 0; v < numVms; ++v) {
            for (Gfn g = 0; g < pagesPerVm; ++g) {
                ASSERT_EQ(inc_hv.translate(v, g), ref_hv.translate(v, g))
                    << "seed=" << seed << " step=" << step << " vm=" << v
                    << " gfn=" << g;
                const PageData *pi = inc_hv.peek(v, g);
                const PageData *pr = ref_hv.peek(v, g);
                ASSERT_EQ(pi == nullptr, pr == nullptr)
                    << "seed=" << seed << " step=" << step << " vm=" << v
                    << " gfn=" << g;
                if (pi != nullptr) {
                    ASSERT_EQ(*pi, *pr)
                        << "seed=" << seed << " step=" << step
                        << " vm=" << v << " gfn=" << g;
                }
            }
        }
        inc_hv.checkConsistency();
        ref_hv.checkConsistency();
        // Same probes, same pruning: the two stable indexes hold as
        // many digests, tombstones and side chains in as many slots.
        const auto inc_index = inc_scanner.checkIndex();
        const auto ref_index = ref_scanner.checkIndex();
        ASSERT_EQ(inc_index.capacity, ref_index.capacity);
        ASSERT_EQ(inc_index.live, ref_index.live);
        ASSERT_EQ(inc_index.occupied, ref_index.occupied);
        ASSERT_EQ(inc_index.spilled, ref_index.spilled);

        // The trace streams must be identical event by event (ticks
        // are all zero here — no clock is wired — so this compares
        // type, subject and both payload arguments in record order).
        const auto &ei = inc_trace.events();
        const auto &er = ref_trace.events();
        ASSERT_EQ(ei.size(), er.size())
            << "trace length, seed=" << seed << " step=" << step;
        for (std::size_t i = 0; i < ei.size(); ++i) {
            ASSERT_TRUE(ei[i].type == er[i].type && ei[i].vm == er[i].vm &&
                        ei[i].arg0 == er[i].arg0 &&
                        ei[i].arg1 == er[i].arg1)
                << "trace event " << i << " differs, seed=" << seed
                << " step=" << step;
        }
    }

    /**
     * Full stat-registry equality, minus @p exempt counters. Both
     * scanners register every counter up front, so the key sets
     * always agree; this catches divergence in counters outside the
     * reference-maintained list too.
     */
    void
    expectRegistriesEqual(const std::vector<std::string> &exempt,
                          std::uint64_t seed)
    {
        auto a = inc_stats.counters();
        auto b = ref_stats.counters();
        ASSERT_EQ(a.size(), b.size()) << "seed=" << seed;
        for (const auto &[name, value] : a) {
            if (std::find(exempt.begin(), exempt.end(), name) !=
                exempt.end())
                continue;
            auto it = b.find(name);
            ASSERT_TRUE(it != b.end()) << name << " seed=" << seed;
            EXPECT_EQ(value, it->second) << name << " seed=" << seed;
        }
    }
};

/** Draws the gfn of one twin operation; driveTwins() defaults to a
 *  uniform draw over the whole guest. */
using GfnPicker = std::function<Gfn(Rng &)>;

void
driveTwins(TwinStacks &t, std::uint64_t seed, int steps,
           const GfnPicker &pick = nullptr)
{
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
        const VmId vm = rng.nextBelow(TwinStacks::numVms);
        const Gfn gfn = pick ? pick(rng) : rng.nextBelow(t.pagesPerVm);
        const int op = rng.nextBelow(100);

        if (op < 40) {
            // Small content pool => merges, COW breaks, re-merges.
            PageData d = PageData::filled(rng.nextBelow(6), 0);
            t.inc_hv.writePage(vm, gfn, d);
            t.ref_hv.writePage(vm, gfn, d);
        } else if (op < 55) {
            const unsigned sector = rng.nextBelow(mem::sectorsPerPage);
            const std::uint64_t value = rng.nextBelow(4);
            t.inc_hv.writeWord(vm, gfn, sector, value);
            t.ref_hv.writeWord(vm, gfn, sector, value);
        } else if (op < 67) {
            t.inc_hv.discardPage(vm, gfn);
            t.ref_hv.discardPage(vm, gfn);
        } else if (op < 80) {
            t.inc_scanner.scanBatch();
            t.ref_scanner.scanBatch();
        } else if (op < 90) {
            t.inc_hv.touchPage(vm, gfn);
            t.ref_hv.touchPage(vm, gfn);
        } else {
            const bool huge = rng.bernoulli(0.5);
            t.inc_hv.setHugePage(vm, gfn, huge);
            t.ref_hv.setHugePage(vm, gfn, huge);
        }

        if (step % 250 == 249) {
            ASSERT_NO_FATAL_FAILURE(t.expectEqual(seed, step));
        }
    }
    ASSERT_NO_FATAL_FAILURE(t.expectEqual(seed, steps));

    // Converge both and compare the quiescent state too: the last
    // passes are exactly the generation-skip-heavy ones.
    t.inc_scanner.runToQuiescence();
    t.ref_scanner.runToQuiescence();
    ASSERT_NO_FATAL_FAILURE(t.expectEqual(seed, -1));
}

class IncrementalEquivalenceFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(IncrementalEquivalenceFuzz, MatchesReferenceScanner)
{
    const std::uint64_t seed = GetParam();
    TwinStacks t(2 * MiB); // ample RAM: no host paging
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, seed, 2500));
    // The equivalence must not be vacuous: the fast path has to have
    // actually engaged — and never in the reference scanner.
    EXPECT_GT(t.inc_stats.get("ksm.pages_gen_skipped"), 0u);
    EXPECT_EQ(t.ref_stats.get("ksm.pages_gen_skipped"), 0u);
}

TEST_P(IncrementalEquivalenceFuzz, MatchesReferenceAcrossChunkEdges)
{
    // Guests of four full chunks of scan state and a 12-page tail,
    // touched only in three windows: the first chunk's head and end,
    // the head of the second (so the walk from its end runs into the
    // missing third), and both sides of the last chunk boundary.
    const std::uint64_t seed = GetParam();
    const Gfn per_chunk = KsmScanner::stateChunkPages;
    const Gfn pages = 4 * per_chunk + 12;
    TwinStacks t(2 * MiB, pages);
    const Gfn windows[][2] = {{0, 8},
                              {per_chunk - 12, per_chunk + 12},
                              {4 * per_chunk - 8, pages}};
    const GfnPicker sparse = [&](Rng &rng) {
        const auto &w = windows[rng.nextBelow(3)];
        return w[0] + rng.nextBelow(w[1] - w[0]);
    };
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, seed, 2500, sparse));
    EXPECT_GT(t.inc_stats.get("ksm.pages_gen_skipped"), 0u);
    EXPECT_GT(t.inc_stats.get("ksm.stable_merges") +
                  t.inc_stats.get("ksm.unstable_promotions"),
              0u);
    // Never more than the four chunks the windows touch, of 5 per VM.
    EXPECT_LE(t.inc_scanner.pageStateBytes(),
              TwinStacks::numVms * 4 * KsmScanner::stateChunkBytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalenceFuzz,
                         ::testing::Values(6, 28, 64, 256, 496, 8128));

namespace
{

class IncrementalEquivalencePagingFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(IncrementalEquivalencePagingFuzz, MatchesReferenceUnderHostPaging)
{
    const std::uint64_t seed = GetParam();
    // Host RAM below the guests' combined footprint: evictions and
    // swap-ins constantly retire and reincarnate frames, which is
    // exactly where stale-generation bugs would hide.
    TwinStacks t(100 * pageSize);
    ASSERT_NO_FATAL_FAILURE(driveTwins(t, seed, 2000));
    EXPECT_GT(t.inc_stats.get("ksm.pages_gen_skipped"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalencePagingFuzz,
                         ::testing::Values(17, 33, 65, 129, 257));

namespace
{

/**
 * Build and run a small traced 3-VM scenario. When
 * @p leave_free_pages is nonzero, each guest's balloon is inflated
 * after boot until only that many guest frames stay free.
 */
std::unique_ptr<core::Scenario>
runGuestScenario(std::uint64_t seed, Bytes host_ram,
                 std::uint64_t leave_free_pages = 0)
{
    core::ScenarioConfig cfg;
    cfg.enableClassSharing = true;
    cfg.warmupMs = 4'000;
    cfg.steadyMs = 6'000;
    cfg.host.ramBytes = host_ram;
    cfg.seed = seed;
    auto s = std::make_unique<core::Scenario>(
        cfg, std::vector<workload::WorkloadSpec>(
                 3, workload::tuscanyBigbank()));
    s->build();
    s->trace().enable();
    if (leave_free_pages > 0) {
        for (std::size_t v = 0; v < s->vmCount(); ++v) {
            auto &os = s->guest(v);
            const std::uint64_t used =
                os.balloonHeldPages() + os.gfnsAllocated();
            const std::uint64_t free =
                os.guestPages() > used ? os.guestPages() - used : 0;
            if (free > leave_free_pages)
                os.balloonTake(free - leave_free_pages);
        }
    }
    s->run();
    s->hv().checkConsistency();
    return s;
}

/**
 * Byte-for-byte equality of two completed runs: the full stat
 * registry, the whole trace stream including timestamps, the EPT
 * translations and page contents, and the per-epoch results.
 */
void
expectRunsEqual(core::Scenario &a, core::Scenario &b)
{
    EXPECT_EQ(a.stats().counters(), b.stats().counters());

    const auto &ea = a.trace().events();
    const auto &eb = b.trace().events();
    ASSERT_EQ(ea.size(), eb.size()) << "trace length";
    for (std::size_t i = 0; i < ea.size(); ++i) {
        ASSERT_TRUE(ea[i].tick == eb[i].tick &&
                    ea[i].type == eb[i].type && ea[i].vm == eb[i].vm &&
                    ea[i].arg0 == eb[i].arg0 && ea[i].arg1 == eb[i].arg1)
            << "trace event " << i;
    }

    ASSERT_EQ(a.vmCount(), b.vmCount());
    ASSERT_EQ(a.hv().residentBytes(), b.hv().residentBytes());
    for (std::size_t v = 0; v < a.vmCount(); ++v) {
        const std::uint64_t pages = a.guest(v).guestPages();
        ASSERT_EQ(pages, b.guest(v).guestPages());
        // Stride-sample the guest address spaces (a prime stride so
        // every region alignment gets coverage).
        for (Gfn g = 0; g < pages; g += 7) {
            ASSERT_EQ(a.hv().translate(v, g), b.hv().translate(v, g))
                << "vm=" << v << " gfn=" << g;
            const PageData *pa = a.hv().peek(v, g);
            const PageData *pb = b.hv().peek(v, g);
            ASSERT_EQ(pa == nullptr, pb == nullptr)
                << "vm=" << v << " gfn=" << g;
            if (pa != nullptr) {
                ASSERT_EQ(*pa, *pb) << "vm=" << v << " gfn=" << g;
            }
        }
    }

    // The epoch histories feed these; exact equality because both
    // runs perform the identical arithmetic in the identical order.
    EXPECT_EQ(a.aggregateThroughput(100), b.aggregateThroughput(100));
    EXPECT_EQ(a.perVmThroughput(100), b.perVmThroughput(100));
    EXPECT_EQ(a.perVmResponseMs(100), b.perVmResponseMs(100));
}

} // namespace

namespace
{

class GuestEpochTwinRun : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(GuestEpochTwinRun, AmpleHostIsReproducible)
{
    // Same seed, two independent stacks: the epoch drain must leave
    // nothing to chance (iteration order, uninitialised state).
    const std::uint64_t seed = GetParam();
    auto a = runGuestScenario(seed, 6ULL * GiB);
    auto b = runGuestScenario(seed, 6ULL * GiB);
    ASSERT_NO_FATAL_FAILURE(expectRunsEqual(*a, *b));
    EXPECT_GT(a->aggregateThroughput(100), 0.0);
}

TEST_P(GuestEpochTwinRun, SqueezedPagingHostIsReproducible)
{
    // Host RAM below the guests' combined footprint (evictions and
    // swap-ins on the epoch path) and balloons inflated until only
    // ~4 MiB of guest memory stays free.
    const std::uint64_t seed = GetParam();
    auto a = runGuestScenario(seed, 640ULL * MiB, 1024);
    auto b = runGuestScenario(seed, 640ULL * MiB, 1024);
    ASSERT_NO_FATAL_FAILURE(expectRunsEqual(*a, *b));
    // Not vacuous: the host really paged under the guests.
    std::uint64_t host_faults = 0;
    for (std::size_t v = 0; v < a->vmCount(); ++v)
        host_faults += a->hv().majorFaults(v);
    EXPECT_GT(host_faults, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestEpochTwinRun,
                         ::testing::Values(42, 5, 7));

// ---------------------------------------------------------------------
// PML rings leave the scan untouched
// ---------------------------------------------------------------------

namespace
{

hv::HostConfig
pmlHostCfg(Bytes ram, std::uint32_t slots)
{
    hv::HostConfig h = TwinStacks::hostCfg(ram);
    h.pmlRingSlots = slots;
    return h;
}

/** One random guest-side mutation applied identically to both stacks. */
void
applyTwinMutation(TwinStacks &t, Rng &rng)
{
    const VmId vm = rng.nextBelow(TwinStacks::numVms);
    const Gfn gfn = rng.nextBelow(t.pagesPerVm);
    const int op = rng.nextBelow(100);
    if (op < 45) {
        PageData d = PageData::filled(rng.nextBelow(6), 0);
        t.inc_hv.writePage(vm, gfn, d);
        t.ref_hv.writePage(vm, gfn, d);
    } else if (op < 62) {
        const unsigned sector = rng.nextBelow(mem::sectorsPerPage);
        const std::uint64_t value = rng.nextBelow(4);
        t.inc_hv.writeWord(vm, gfn, sector, value);
        t.ref_hv.writeWord(vm, gfn, sector, value);
    } else if (op < 76) {
        t.inc_hv.discardPage(vm, gfn);
        t.ref_hv.discardPage(vm, gfn);
    } else if (op < 90) {
        t.inc_hv.touchPage(vm, gfn);
        t.ref_hv.touchPage(vm, gfn);
    } else {
        const bool huge = rng.bernoulli(0.5);
        t.inc_hv.setHugePage(vm, gfn, huge);
        t.ref_hv.setHugePage(vm, gfn, huge);
    }
}

/**
 * Drive the twins pass-at-a-time: a burst of mutations, then exactly
 * one full scan pass on each side, then a drain of the ringed side's
 * rings (the working-set estimator's job in a scenario). Every tenth
 * round, and after both converge, the stacks must agree in every
 * counter, translation, page content, index shape and trace event;
 * each checkpoint's checkConsistency() also audits the ring
 * invariants. Only the PML counters themselves may differ.
 */
void
driveTwinsByPass(TwinStacks &t, std::uint64_t seed, int rounds)
{
    Rng rng(seed);
    for (int round = 0; round < rounds; ++round) {
        const int burst = 1 + rng.nextBelow(24);
        for (int i = 0; i < burst; ++i)
            applyTwinMutation(t, rng);
        const std::uint64_t inc_to = t.inc_scanner.fullScans() + 1;
        while (t.inc_scanner.fullScans() < inc_to)
            t.inc_scanner.scanBatch();
        const std::uint64_t ref_to = t.ref_scanner.fullScans() + 1;
        while (t.ref_scanner.fullScans() < ref_to)
            t.ref_scanner.scanBatch();
        for (VmId vm = 0; vm < t.inc_hv.vmCount(); ++vm)
            t.inc_hv.pmlResetRing(vm);
        if (round % 10 == 9) {
            ASSERT_NO_FATAL_FAILURE(t.expectEqual(seed, round));
        }
    }
    t.inc_scanner.runToQuiescence();
    t.ref_scanner.runToQuiescence();
    ASSERT_NO_FATAL_FAILURE(t.expectEqual(seed, -1));
    ASSERT_NO_FATAL_FAILURE(t.expectRegistriesEqual(
        {"hv.pml_appends", "hv.pml_overflows"}, seed));
}

/**
 * Run one seed with `slots`-slot PML rings on the inc side and no
 * rings on the ref side. Both sides scan by the generation walk, so
 * logging (and overflowing) must leave every result unchanged.
 */
void
checkRingedTwinsMatch(std::uint64_t seed, std::uint32_t slots)
{
    TwinStacks t(pmlHostCfg(2 * MiB, slots), pmlHostCfg(2 * MiB, 0),
                 TwinStacks::ksmCfg(true), TwinStacks::ksmCfg(true));
    ASSERT_NO_FATAL_FAILURE(driveTwinsByPass(t, seed, 120));
    // Not vacuous: the rings really logged, tiny ones really
    // overflowed, the ringless side logged nothing, and the scan
    // merged something.
    EXPECT_GT(t.inc_stats.get("hv.pml_appends"), 0u);
    if (slots == 4)
        EXPECT_GT(t.inc_stats.get("hv.pml_overflows"), 0u);
    else
        EXPECT_EQ(t.inc_stats.get("hv.pml_overflows"), 0u);
    EXPECT_EQ(t.ref_stats.get("hv.pml_appends"), 0u);
    EXPECT_GT(t.inc_stats.get("ksm.stable_merges") +
                  t.inc_stats.get("ksm.unstable_promotions"),
              0u);
}

class PmlScanEquivalenceFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

class PmlOverflowFallbackFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

/** Both PML fuzzes run the same seeds. */
const auto pmlFuzzSeeds =
    ::testing::Values(6, 28, 64, 256, 496, 1024, 8128, 33550336);

} // namespace

TEST_P(PmlScanEquivalenceFuzz, MatchesWalkingScanner)
{
    const std::uint64_t seed = GetParam();
    // 4096-slot rings never overflow at this scale.
    ASSERT_NO_FATAL_FAILURE(checkRingedTwinsMatch(seed, 4096));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmlScanEquivalenceFuzz, pmlFuzzSeeds);

TEST_P(PmlOverflowFallbackFuzz, TinyRingsForceWalksAndStillMatch)
{
    const std::uint64_t seed = GetParam();
    // 4-slot rings overflow on nearly every mutation burst; a dropped
    // entry must not perturb the walk.
    ASSERT_NO_FATAL_FAILURE(checkRingedTwinsMatch(seed, 4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmlOverflowFallbackFuzz, pmlFuzzSeeds);

// ---------------------------------------------------------------------
// Range writes are per-page writes
// ---------------------------------------------------------------------

namespace
{

/** Host, guest and scanner shape of one range-write twin run. */
struct RangeWriteCase
{
    Bytes hostRam = 0;
    Bytes guestMem = 0;
    Bytes vmaBytes = 0;
    std::uint32_t pmlRingSlots = 0;
    bool ksm = false;
};

/** One stack of a same-seed twin pair: a host, one guest with one
 *  user process owning one anonymous region, optionally a scanner. */
struct RangeWriteTwin
{
    StatSet stats;
    std::unique_ptr<Hypervisor> hv;
    std::unique_ptr<guest::GuestOs> os;
    std::unique_ptr<KsmScanner> ksm;
    const guest::Vma *vma = nullptr;
};

/**
 * Drive @p t through a seeded script of page runs over its region:
 * through GuestOs::writePages() when @p ranged, else as a writePage()
 * loop. Contents repeat within and across runs (few tags, small salt
 * cycles, zero runs), so the scanner finds duplicates to merge and
 * later runs COW-break them mid-run.
 */
void
runRangeWriteScript(RangeWriteTwin &t, const RangeWriteCase &c,
                    bool ranged, std::uint64_t seed)
{
    hv::HostConfig host;
    host.ramBytes = c.hostRam;
    host.reserveBytes = 0;
    host.pmlRingSlots = c.pmlRingSlots;
    t.hv = std::make_unique<Hypervisor>(host, t.stats);
    const VmId vm = t.hv->createVm("vm", c.guestMem, 0);
    t.os = std::make_unique<guest::GuestOs>(*t.hv, vm, "vm", seed);
    const Pid pid = t.os->spawn("app", true);
    t.vma = t.os->mmapAnon(pid, c.vmaBytes, guest::MemCategory::JavaHeap,
                           "heap");
    if (c.ksm) {
        KsmConfig kcfg;
        kcfg.pagesToScan = 1u << 20; // one batch is one full pass
        t.ksm = std::make_unique<KsmScanner>(*t.hv, kcfg, t.stats);
    }

    Rng rng(seed);
    const std::uint64_t n = t.vma->numPages;
    for (int step = 0; step < 60; ++step) {
        const std::uint64_t first = rng.nextBelow(n);
        const std::uint64_t count = 1 + rng.nextBelow(n - first);
        const std::uint64_t tag = rng.nextBelow(4);
        const std::uint64_t cycle = 1 + rng.nextBelow(8);
        auto fill = [tag, cycle](std::uint64_t p) {
            return tag == 0 ? PageData::zero()
                            : PageData::filled(tag, p % cycle);
        };
        if (ranged) {
            t.os->writePages(t.vma, first, count, fill);
        } else {
            for (std::uint64_t p = first; p < first + count; ++p)
                t.os->writePage(t.vma, p, fill(p));
        }
        if (t.ksm && step % 5 == 4) {
            t.ksm->scanBatch(); // record digests
            t.ksm->scanBatch(); // calm now: merge
        }
        if (c.pmlRingSlots > 0 && step % 7 == 6)
            t.hv->pmlResetRing(vm);
    }
    t.hv->checkConsistency();
}

/** Every piece of state a write touches is equal in @p a and @p b. */
void
expectSameWriteState(const RangeWriteTwin &a, const RangeWriteTwin &b)
{
    EXPECT_EQ(a.stats.counters(), b.stats.counters());
    ASSERT_EQ(a.vma->gfns, b.vma->gfns);
    EXPECT_EQ(a.os->guestSwapOuts(), b.os->guestSwapOuts());
    EXPECT_EQ(a.os->guestMajorFaults(), b.os->guestMajorFaults());

    const hv::Vm &va = a.hv->vm(a.os->vmId());
    const hv::Vm &vb = b.hv->vm(b.os->vmId());
    ASSERT_EQ(va.ept.size(), vb.ept.size());
    for (Gfn g = 0; g < va.ept.size(); ++g) {
        const hv::EptEntry &ea = va.ept.entry(g);
        const hv::EptEntry &eb = vb.ept.entry(g);
        ASSERT_TRUE(ea.state == eb.state && ea.backing == eb.backing &&
                    ea.huge == eb.huge &&
                    ea.pmlLogged == eb.pmlLogged)
            << "gfn " << g;
    }
    EXPECT_EQ(va.majorFaults, vb.majorFaults);
    EXPECT_EQ(va.pmlAppendsTotal, vb.pmlAppendsTotal);
    ASSERT_EQ(va.pmlRing.size(), vb.pmlRing.size());
    for (std::size_t i = 0; i < va.pmlRing.size(); ++i) {
        ASSERT_EQ(Gfn{va.pmlRing[i]}, Gfn{vb.pmlRing[i]})
            << "ring entry " << i;
    }

    const mem::FrameTable &fa = a.hv->frames();
    const mem::FrameTable &fb = b.hv->frames();
    ASSERT_EQ(fa.frameCount(), fb.frameCount());
    for (Hfn h = 0; h < fa.frameCount(); ++h) {
        ASSERT_EQ(fa.isAllocated(h), fb.isAllocated(h)) << "hfn " << h;
        if (!fa.isAllocated(h))
            continue;
        const mem::Frame &x = fa.frame(h);
        const mem::Frame &y = fb.frame(h);
        ASSERT_TRUE(x.data == y.data && x.lastTouch == y.lastTouch &&
                    x.refcount == y.refcount &&
                    x.ksmStable == y.ksmStable &&
                    fa.writeGen(h) == fb.writeGen(h) &&
                    x.primary == y.primary &&
                    fa.extraOf(x) == fb.extraOf(y))
            << "hfn " << h;
    }
}

/** Run the script on a ranged and a per-page twin and compare them;
 *  @return the ranged twin's stats for the caller's coverage checks. */
StatSet::CounterMap
checkRangeWriteTwins(const RangeWriteCase &c, std::uint64_t seed)
{
    RangeWriteTwin ranged, paged;
    runRangeWriteScript(ranged, c, true, seed);
    runRangeWriteScript(paged, c, false, seed);
    expectSameWriteState(ranged, paged);
    StatSet::CounterMap counters = ranged.stats.counters();
    counters["guest.swapouts"] = ranged.os->guestSwapOuts();
    counters["guest.major_faults"] = ranged.os->guestMajorFaults();
    return counters;
}

class RangeWriteTwins : public ::testing::TestWithParam<std::uint64_t>
{
};

} // namespace

TEST_P(RangeWriteTwins, AmpleHostMatchesPageLoop)
{
    RangeWriteCase c;
    c.hostRam = 64 * MiB;
    c.guestMem = 16 * MiB;
    c.vmaBytes = 512 * pageSize;
    auto counters = checkRangeWriteTwins(c, GetParam());
    EXPECT_GT(counters["hv.demand_allocs"], 0u);
}

TEST_P(RangeWriteTwins, SqueezedGuestAndHostMatchPageLoop)
{
    // A region twice the guest's memory on a host with half of it:
    // mapping page i + 1 of a run swaps earlier pages out of the guest
    // (and back in), and backing it evicts host frames (which later
    // runs fault back in), all partway through runs.
    RangeWriteCase c;
    c.hostRam = 128 * pageSize;
    c.guestMem = 256 * pageSize;
    c.vmaBytes = 512 * pageSize;
    c.pmlRingSlots = 32;
    auto counters = checkRangeWriteTwins(c, GetParam());
    EXPECT_GT(counters["guest.swapouts"], 0u);
    EXPECT_GT(counters["guest.major_faults"], 0u);
    EXPECT_GT(counters["host.evictions"], 0u);
    EXPECT_GT(counters["host.major_faults"], 0u);
}

TEST_P(RangeWriteTwins, RunsAcrossStablePagesMatchPageLoop)
{
    // The scanner merges the repeated contents between runs, so later
    // runs COW-break KSM-stable pages mid-run, with PML rings logging
    // every write.
    RangeWriteCase c;
    c.hostRam = 64 * MiB;
    c.guestMem = 4 * MiB;
    c.vmaBytes = 512 * pageSize;
    c.pmlRingSlots = 64;
    c.ksm = true;
    auto counters = checkRangeWriteTwins(c, GetParam());
    EXPECT_GT(counters["hv.ksm_merges"], 0u);
    EXPECT_GT(counters["hv.cow_breaks"], 0u);
    EXPECT_GT(counters["hv.pml_appends"], 0u);
    EXPECT_GT(counters["hv.pml_overflows"], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeWriteTwins,
                         ::testing::Values(1, 2, 3));
