/**
 * @file
 * Digest-sharded commit: equivalence and isolation tests.
 *
 * The sharded pipeline (ksm::KsmConfig::commitShards >= 2) is a pure
 * machine-sizing knob: at any shard count, counters, merges, traces,
 * page contents and translations must be byte-identical to the serial
 * walk (commitShards = 1) — only the pipeline's own counters (which
 * describe the machine, not the workload) may differ. These suites
 * drive twin hypervisor+scanner stacks in lockstep to enforce that,
 * plus the striped frame table's per-shard invariants.
 */

#include <algorithm>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "base/stats.hh"
#include "base/units.hh"
#include "base/trace.hh"
#include "hv/hypervisor.hh"
#include "ksm/ksm_scanner.hh"
#include "mem/frame_table.hh"

using namespace jtps;
using hv::KvmHypervisor;
using ksm::KsmConfig;
using ksm::KsmScanner;
using mem::PageData;

namespace
{

/** The counters that legitimately differ across shard counts: they
 *  size the machine (how the pipeline partitioned the batch), never
 *  the workload (what was merged), and the serial walk leaves all but
 *  ksm.commit_shards at zero. Everything else must match. */
const std::vector<std::string> shardOnlyCounters = {
    "ksm.commit_shards",       "ksm.shard_imbalance_max",
    "ksm.scan_shards",         "ksm.precheck_candidates",
    "ksm.commit_replays",
};

/** Scanner config with @p shards digest shards, and classify shards
 *  shrunk so even these tiny memories (3 VMs x 48 pages) fan out
 *  across several of them. */
KsmConfig
shardKsmCfg(unsigned shards)
{
    KsmConfig c;
    c.pagesToScan = 500;
    c.incrementalScan = true;
    c.scanShardPages = 16;
    c.commitShards = shards;
    return c;
}

/**
 * Two complete stacks driven in lockstep: `inc` runs the sharded
 * pipeline at `shards` digest shards, `ref` the serial walk
 * (commitShards = 1). Mirrors test_properties.cc's TwinStacks; the
 * comparison is total — counters, sharing, translations, contents,
 * trace streams.
 */
struct ShardTwins
{
    static constexpr int numVms = 3;
    static constexpr Gfn pagesPerVm = 48;

    StatSet inc_stats;
    StatSet ref_stats;
    TraceBuffer inc_trace;
    TraceBuffer ref_trace;
    KvmHypervisor inc_hv;
    KvmHypervisor ref_hv;
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

    ShardTwins(Bytes ram, unsigned shards)
        : inc_hv(hostCfg(ram), inc_stats), ref_hv(hostCfg(ram), ref_stats),
          inc_scanner(inc_hv, shardKsmCfg(shards), inc_stats),
          ref_scanner(ref_hv, shardKsmCfg(1), ref_stats)
    {
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

    /** Full registry equality minus the pipeline counters. Both
     *  scanners register every counter up front, so key sets always
     *  agree. */
    void
    expectRegistriesEqual(std::uint64_t seed)
    {
        auto a = inc_stats.counters();
        auto b = ref_stats.counters();
        ASSERT_EQ(a.size(), b.size()) << "seed=" << seed;
        for (const auto &[name, value] : a) {
            if (std::find(shardOnlyCounters.begin(),
                          shardOnlyCounters.end(),
                          name) != shardOnlyCounters.end())
                continue;
            auto it = b.find(name);
            ASSERT_TRUE(it != b.end()) << name << " seed=" << seed;
            EXPECT_EQ(value, it->second) << name << " seed=" << seed;
        }
    }

    /** Per-stripe frame-table probe on both sides: the striped
     *  counters must recount under any interleaving of shard commits,
     *  COW breaks and (in the paging fuzz) evictions. */
    void
    checkStripes()
    {
        for (unsigned s = 0; s < mem::FrameTable::kStripes; ++s) {
            inc_hv.frames().checkConsistencyShard(s);
            ref_hv.frames().checkConsistencyShard(s);
        }
    }
};

/** The fuzz op stream (same mix as the incremental twin fuzzes):
 *  writes from a small content pool, single-sector writes, discards,
 *  scans, touches, huge-page flips. */
void
driveShardTwins(ShardTwins &t, std::uint64_t seed, int steps)
{
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
        const VmId vm = rng.nextBelow(ShardTwins::numVms);
        const Gfn gfn = rng.nextBelow(ShardTwins::pagesPerVm);
        const int op = rng.nextBelow(100);

        if (op < 40) {
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
            t.checkStripes();
        }
    }
    ASSERT_NO_FATAL_FAILURE(t.expectEqual(seed, steps));

    // Converge both and compare the quiescent state: the last passes
    // are the generation-skip- and epoch-skip-heavy ones, where a
    // shard would be most tempted to trust stale probe verdicts.
    t.inc_scanner.runToQuiescence();
    t.ref_scanner.runToQuiescence();
    ASSERT_NO_FATAL_FAILURE(t.expectEqual(seed, -1));
    t.checkStripes();
}

/** Boot-storm-shaped prefill: every page written once from a small
 *  content pool (some left zero), so the scanners face a wall of
 *  cold, highly shareable pages — the regime the classify phase's
 *  content kernels target, with the zero fast path exercised
 *  alongside them. */
void
bootStormPrefill(ShardTwins &t, Rng &rng)
{
    for (int v = 0; v < ShardTwins::numVms; ++v) {
        for (Gfn g = 0; g < ShardTwins::pagesPerVm; ++g) {
            if (rng.bernoulli(0.15))
                continue; // leave zero
            PageData d = PageData::filled(rng.nextBelow(6), 0);
            t.inc_hv.writePage(v, g, d);
            t.ref_hv.writePage(v, g, d);
        }
    }
}

/** The exemption set is exact and the equivalence not vacuous. */
void
expectShardedWorkDone(ShardTwins &t, unsigned shards)
{
    // The knob itself, and a serial walk that never ran the pipeline...
    EXPECT_EQ(t.inc_stats.get("ksm.commit_shards"), shards);
    EXPECT_EQ(t.ref_stats.get("ksm.commit_shards"), 1u);
    for (const std::string &c : shardOnlyCounters) {
        if (c != "ksm.commit_shards") {
            EXPECT_EQ(t.ref_stats.get(c), 0u) << c;
        }
    }
    // ...while the sharded side really classified in several shards,
    // candidates flowed through the shard jobs and real merges were
    // committed through the deferred-op reduce.
    EXPECT_GT(t.inc_stats.get("ksm.scan_shards"), 0u);
    EXPECT_GT(t.inc_stats.get("ksm.precheck_candidates"), 0u);
    EXPECT_GT(t.inc_stats.get("ksm.stable_merges"), 0u);
    EXPECT_GT(t.inc_stats.get("ksm.unstable_promotions"), 0u);
}

class ShardCommitEquivalenceFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

} // namespace

TEST_P(ShardCommitEquivalenceFuzz, MatchesUnshardedCommit)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const unsigned shards = std::get<1>(GetParam());
    ShardTwins t(2 * MiB, shards); // ample RAM: no host paging
    ASSERT_NO_FATAL_FAILURE(driveShardTwins(t, seed, 2500));
    ASSERT_NO_FATAL_FAILURE(t.expectRegistriesEqual(seed));
    expectShardedWorkDone(t, shards);
}

TEST_P(ShardCommitEquivalenceFuzz, BootStormMatchesUnshardedCommit)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const unsigned shards = std::get<1>(GetParam());
    // The same op stream after a cold, zero-page-heavy prefill: the
    // first passes classify nothing but never-visited pages, so every
    // kernel window runs full checksum and digest lanes.
    ShardTwins t(2 * MiB, shards);
    Rng prefill(seed ^ 0xb0075708ull);
    bootStormPrefill(t, prefill);
    ASSERT_NO_FATAL_FAILURE(driveShardTwins(t, seed, 2500));
    ASSERT_NO_FATAL_FAILURE(t.expectRegistriesEqual(seed));
    expectShardedWorkDone(t, shards);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, ShardCommitEquivalenceFuzz,
    ::testing::Combine(::testing::Values(6, 256, 8128),
                       ::testing::Values(2u, 4u)));

namespace
{

class ShardPagingFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

} // namespace

TEST_P(ShardPagingFuzz, MatchesUnshardedUnderHostPaging)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const unsigned shards = std::get<1>(GetParam());
    // Host RAM below the guests' combined footprint: evictions retire
    // and reincarnate frames between batches, so shard-local stable
    // chains and unstable entries constantly go stale against frames
    // recycled into *other* shards' content. The content-first prune
    // rule and the write-generation proofs must reject every stale
    // verdict — and the striped residency/sharing counters must
    // recount per stripe at every checkpoint.
    ShardTwins t(64 * pageSize, shards);
    ASSERT_NO_FATAL_FAILURE(driveShardTwins(t, seed, 2000));
    ASSERT_NO_FATAL_FAILURE(t.expectRegistriesEqual(seed));
    EXPECT_GT(t.inc_stats.get("host.evictions"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, ShardPagingFuzz,
    ::testing::Combine(::testing::Values(17, 129),
                       ::testing::Values(2u, 4u)));

namespace
{

/**
 * Find @p count distinct page contents whose digests all fall in
 * residue class @p residue mod @p shards — the adversarial case for
 * digest sharding: everything lands in ONE shard's indexes, and
 * distinct contents must stay distinct inside it (no false merges off
 * the digest bucket, chain walks compare full content).
 */
std::vector<PageData>
collidingContents(unsigned shards, unsigned residue, std::size_t count)
{
    std::vector<PageData> out;
    for (std::uint64_t tag = 1; out.size() < count; ++tag) {
        PageData d = PageData::filled(tag, 0xC011'1DE5);
        if (d.digest() % shards == residue)
            out.push_back(d);
    }
    return out;
}

} // namespace

TEST(ShardDigestCollision, CollidingResiduesStayIsolatedAndIdentical)
{
    // Six contents, all digest ≡ 0 (mod 4): at 4 shards every
    // candidate page lands in shard 0 (maximum imbalance), its stable
    // chains and unstable probes all share buckets modulo the table
    // size, and the other three shards stay empty.
    const unsigned shards = 4;
    const auto contents = collidingContents(shards, 0, 6);

    ShardTwins t(2 * MiB, shards);
    // Each content is duplicated on two VMs (merge fodder) and one odd
    // page out stays unique per content (unstable-tree fodder).
    for (std::size_t c = 0; c < contents.size(); ++c) {
        const Gfn base = static_cast<Gfn>(3 * c);
        t.inc_hv.writePage(0, base, contents[c]);
        t.ref_hv.writePage(0, base, contents[c]);
        t.inc_hv.writePage(1, base, contents[c]);
        t.ref_hv.writePage(1, base, contents[c]);
        PageData odd = contents[c];
        odd.word[7] ^= 0x5a5a;
        t.inc_hv.writePage(2, base, odd);
        t.ref_hv.writePage(2, base, odd);
    }
    t.inc_scanner.runToQuiescence();
    t.ref_scanner.runToQuiescence();
    ASSERT_NO_FATAL_FAILURE(t.expectEqual(0, 0));

    // Every duplicated content merged; nothing merged across distinct
    // contents (the digest residue collides, the bytes do not).
    EXPECT_EQ(t.inc_scanner.pagesShared(), contents.size());
    EXPECT_EQ(t.inc_scanner.pagesSharing(), contents.size());

    // COW-break half the shared pages with fresh colliding contents,
    // rescan, and re-verify: stale chain nodes for the old contents
    // now sit in the same shard-0 buckets the new contents probe.
    const auto fresh = collidingContents(shards, 0, 9);
    for (std::size_t c = 0; c < contents.size(); c += 2) {
        const Gfn base = static_cast<Gfn>(3 * c);
        t.inc_hv.writePage(1, base, fresh[c + 2]);
        t.ref_hv.writePage(1, base, fresh[c + 2]);
    }
    t.inc_scanner.runToQuiescence();
    t.ref_scanner.runToQuiescence();
    ASSERT_NO_FATAL_FAILURE(t.expectEqual(0, 1));
    ASSERT_NO_FATAL_FAILURE(t.expectRegistriesEqual(0));
    t.checkStripes();
    EXPECT_GT(t.inc_stats.get("ksm.stable_merges"), 0u);
}

TEST(ShardFrameTable, ExtraReserveOnFirstSpillShrinkOnLastUnshare)
{
    // Satellite of the sharded frame table: the reverse-mapping spill
    // vector reserves once at the first spill (KSM chains grow without
    // per-merge reallocation up to kExtraReserve mappings) and gives
    // the storage back when the last extra mapping goes.
    StatSet stats;
    mem::FrameTable ft(64, &stats);
    const Hfn f = ft.alloc(mem::Mapping{0, 0}, PageData::filled(9, 9));
    ASSERT_NE(f, invalidFrame);
    EXPECT_EQ(ft.frame(f).extra.capacity(), 0u);

    ft.addMapping(f, mem::Mapping{1, 0}); // first spill
    EXPECT_EQ(ft.frame(f).extra.capacity(),
              mem::FrameTable::kExtraReserve);
    for (VmId vm = 2; vm <= mem::FrameTable::kExtraReserve; ++vm)
        ft.addMapping(f, mem::Mapping{vm, 0});
    // Filled to the reservation: still not a single reallocation.
    EXPECT_EQ(ft.frame(f).extra.size(), mem::FrameTable::kExtraReserve);
    EXPECT_EQ(ft.frame(f).extra.capacity(),
              mem::FrameTable::kExtraReserve);

    // One past the reservation grows normally...
    const VmId beyond = mem::FrameTable::kExtraReserve + 1;
    ft.addMapping(f, mem::Mapping{beyond, 0});
    EXPECT_GT(ft.frame(f).extra.capacity(),
              mem::FrameTable::kExtraReserve);

    // ...and unsharing back to a sole mapping releases the storage.
    for (VmId vm = 1; vm <= beyond; ++vm)
        ft.removeMapping(f, mem::Mapping{vm, 0});
    EXPECT_EQ(ft.frame(f).refcount, 1u);
    EXPECT_TRUE(ft.frame(f).extra.empty());
    EXPECT_EQ(ft.frame(f).extra.capacity(), 0u);
    ft.checkConsistency();
    for (unsigned s = 0; s < mem::FrameTable::kStripes; ++s)
        ft.checkConsistencyShard(s);
}
